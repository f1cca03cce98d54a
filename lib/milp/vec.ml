type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let check v i op =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of range [0, %d)" op i v.len)

let get v i =
  check v i "get";
  v.data.(i)

let set v i x =
  check v i "set";
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let ndata = Array.make ncap x in
  Array.blit v.data 0 ndata 0 v.len;
  v.data <- ndata

let add_last v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

let trim v = if Array.length v.data > v.len then v.data <- Array.sub v.data 0 v.len

let of_array a = { data = Array.copy a; len = Array.length a }

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let iter f v = iteri (fun _ x -> f x) v

let fold_left f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

(* Unboxed float variant: same growth discipline, but backed by a flat
   [floatarray] so elements are stored inline (no per-element boxing)
   and appends never allocate beyond the doubling copies.  Used by the
   measurement paths that accumulate per-solve float samples. *)
module Float = struct
  module FA = Stdlib.Float.Array

  type t = { mutable data : floatarray; mutable len : int }

  let create () = { data = FA.create 0; len = 0 }

  let length v = v.len

  let check v i op =
    if i < 0 || i >= v.len then
      invalid_arg
        (Printf.sprintf "Vec.Float.%s: index %d out of range [0, %d)" op i v.len)

  let get v i =
    check v i "get";
    FA.get v.data i

  let set v i x =
    check v i "set";
    FA.set v.data i x

  let grow v =
    let cap = FA.length v.data in
    let ncap = if cap = 0 then 8 else 2 * cap in
    let ndata = FA.make ncap 0. in
    FA.blit v.data 0 ndata 0 v.len;
    v.data <- ndata

  let add_last v x =
    if v.len = FA.length v.data then grow v;
    FA.set v.data v.len x;
    v.len <- v.len + 1

  let clear v = v.len <- 0

  let to_array v = Array.init v.len (FA.get v.data)

  let trim v = if FA.length v.data > v.len then v.data <- FA.sub v.data 0 v.len

  let of_array a =
    let len = Array.length a in
    let data = FA.init len (Array.get a) in
    { data; len }

  let iteri f v =
    for i = 0 to v.len - 1 do
      f i (FA.get v.data i)
    done

  let iter f v = iteri (fun _ x -> f x) v

  let fold_left f init v =
    let acc = ref init in
    for i = 0 to v.len - 1 do
      acc := f !acc (FA.get v.data i)
    done;
    !acc
end

(* Unsigned ints in [0, 2^32) packed into a [Bytes.t] at the narrowest
   width (1, 2 or 4 bytes) that holds every value stored so far: a value
   too wide for the current width re-encodes the whole vector once. *)
module Uint = struct
  type t = { mutable data : Bytes.t; mutable width : int; mutable len : int }

  let create () = { data = Bytes.empty; width = 1; len = 0 }

  let length v = v.len

  let width v = v.width

  let limit = function 1 -> 0xff | 2 -> 0xffff | _ -> 0xffff_ffff

  let fit x = if x <= 0xff then 1 else if x <= 0xffff then 2 else 4

  let read b w i =
    match w with
    | 1 -> Bytes.get_uint8 b i
    | 2 -> Bytes.get_uint16_le b (2 * i)
    | _ -> Int32.to_int (Bytes.get_int32_le b (4 * i)) land 0xffff_ffff

  let write b w i x =
    match w with
    | 1 -> Bytes.set_uint8 b i x
    | 2 -> Bytes.set_uint16_le b (2 * i) x
    | _ -> Bytes.set_int32_le b (4 * i) (Int32.of_int x)

  let check v i op =
    if i < 0 || i >= v.len then
      invalid_arg (Printf.sprintf "Vec.Uint.%s: index %d out of range [0, %d)" op i v.len)

  let check_value x op =
    if x < 0 || x > 0xffff_ffff then
      invalid_arg (Printf.sprintf "Vec.Uint.%s: value %d out of range" op x)

  (* Copy into [cap] slots of width [w]. *)
  let resize v w cap =
    let data = Bytes.create (w * cap) in
    if w = v.width then Bytes.blit v.data 0 data 0 (w * v.len)
    else
      for i = 0 to v.len - 1 do
        write data w i (read v.data v.width i)
      done;
    v.data <- data;
    v.width <- w

  let capacity v = Bytes.length v.data / v.width

  let widen v x = if x > limit v.width then resize v (fit x) (capacity v)

  let get v i =
    check v i "get";
    read v.data v.width i

  let set v i x =
    check v i "set";
    check_value x "set";
    widen v x;
    write v.data v.width i x

  let add_last v x =
    check_value x "add_last";
    widen v x;
    let cap = capacity v in
    if v.len = cap then resize v v.width (if cap = 0 then 8 else 2 * cap);
    write v.data v.width v.len x;
    v.len <- v.len + 1

  let trim v = if capacity v > v.len then resize v v.width v.len

  let of_array a =
    let v = create () in
    Array.iter (add_last v) a;
    trim v;
    v

  let to_array v = Array.init v.len (fun i -> read v.data v.width i)

  let iter f v =
    for i = 0 to v.len - 1 do
      f (read v.data v.width i)
    done
end

(* Strings laid end to end in one [Bytes.t]; [ends.(i)] is where
   string [i] stops. *)
module Str = struct
  type t = { mutable chars : Bytes.t; mutable used : int; ends : Uint.t }

  let create () = { chars = Bytes.empty; used = 0; ends = Uint.create () }

  let length v = Uint.length v.ends

  let get v i =
    let stop = Uint.get v.ends i in
    let start = if i = 0 then 0 else Uint.get v.ends (i - 1) in
    Bytes.sub_string v.chars start (stop - start)

  let add_last v s =
    let n = String.length s in
    if v.used + n > Bytes.length v.chars then begin
      let chars = Bytes.create (Int.max (v.used + n) (Int.max 64 (2 * Bytes.length v.chars))) in
      Bytes.blit v.chars 0 chars 0 v.used;
      v.chars <- chars
    end;
    Bytes.blit_string s 0 v.chars v.used n;
    v.used <- v.used + n;
    Uint.add_last v.ends v.used

  let trim v =
    if Bytes.length v.chars > v.used then v.chars <- Bytes.sub v.chars 0 v.used;
    Uint.trim v.ends
end
