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

(* Non-negative ints as LEB128 varints in one [Bytes.t]: seven bits a
   byte, low bits first, the high bit set on every byte but the last.
   Values under 128 take one byte, under 16,384 two. *)
module Varints = struct
  type t = { mutable data : Bytes.t; mutable used : int }

  let create () = { data = Bytes.empty; used = 0 }

  let length v = v.used

  let reserve v n =
    if v.used + n > Bytes.length v.data then begin
      let data = Bytes.create (Int.max (v.used + n) (Int.max 64 (2 * Bytes.length v.data))) in
      Bytes.blit v.data 0 data 0 v.used;
      v.data <- data
    end

  let add_last v x =
    if x < 0 then invalid_arg (Printf.sprintf "Vec.Varints.add_last: value %d out of range" x);
    reserve v 10;
    let x = ref x in
    while !x >= 0x80 do
      Bytes.unsafe_set v.data v.used (Char.unsafe_chr (!x land 0x7f lor 0x80));
      v.used <- v.used + 1;
      x := !x lsr 7
    done;
    Bytes.unsafe_set v.data v.used (Char.unsafe_chr !x);
    v.used <- v.used + 1

  let check v pos op =
    if pos < 0 || pos >= v.used then
      invalid_arg (Printf.sprintf "Vec.Varints.%s: offset %d out of range [0, %d)" op pos v.used)

  let get v pos =
    check v pos "get";
    let x = ref 0 and shift = ref 0 and p = ref pos in
    while Bytes.get_uint8 v.data !p >= 0x80 do
      x := !x lor ((Bytes.get_uint8 v.data !p land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr p
    done;
    !x lor (Bytes.get_uint8 v.data !p lsl !shift)

  let next v pos =
    check v pos "next";
    let p = ref pos in
    while Bytes.get_uint8 v.data !p >= 0x80 do
      incr p
    done;
    !p + 1

  let append_sub dst src pos len =
    reserve dst len;
    Bytes.blit src.data pos dst.data dst.used len;
    dst.used <- dst.used + len

  let add_substring v s pos n =
    reserve v n;
    Bytes.blit_string s pos v.data v.used n;
    v.used <- v.used + n

  let sub_string v pos len = Bytes.sub_string v.data pos len

  let trim v = if Bytes.length v.data > v.used then v.data <- Bytes.sub v.data 0 v.used
end

(* Front-coded strings in one [Bytes.t]: each entry is a header, then
   the bytes of the string past the prefix it shares with the previous
   one.  The header is the LEB128 varint [2 * rest + shares], where
   [rest] is the number of those bytes and [shares] is 1 when a second
   varint, the shared prefix's length, follows.  Every [restart]-th
   entry shares nothing, and [restarts] holds its offset, so [get]
   decodes at most [restart] entries.  Names of one kind come in runs
   ("map_relay-lp_r4", "map_relay-lp_r5", ...), which this stores in
   about two thirds of their bytes; an empty string takes one byte. *)
module Str = struct
  type t = {
    buf : Varints.t;
    mutable len : int;
    restarts : Uint.t;
    mutable last : string;  (* The previous entry, or a string sharing no prefix with it. *)
  }

  let restart = 16

  let create () = { buf = Varints.create (); len = 0; restarts = Uint.create (); last = "" }

  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then
      invalid_arg (Printf.sprintf "Vec.Str.get: index %d out of range [0, %d)" i v.len);
    let b = Buffer.create 32 in
    let pos = ref (Uint.get v.restarts (i / restart)) in
    for _ = i / restart * restart to i do
      let h = Varints.get v.buf !pos in
      pos := Varints.next v.buf !pos;
      let keep =
        if h land 1 = 0 then 0
        else begin
          let k = Varints.get v.buf !pos in
          pos := Varints.next v.buf !pos;
          k
        end
      in
      let n = h lsr 1 in
      Buffer.truncate b keep;
      Buffer.add_string b (Varints.sub_string v.buf !pos n);
      pos := !pos + n
    done;
    Buffer.contents b

  let add_last v s =
    let n = String.length s in
    let keep =
      if v.len mod restart = 0 then begin
        Uint.add_last v.restarts (Varints.length v.buf);
        0
      end
      else begin
        let l = v.last in
        let k = ref 0 in
        let lim = Int.min n (String.length l) in
        while !k < lim && String.unsafe_get s !k = String.unsafe_get l !k do
          incr k
        done;
        !k
      end
    in
    Varints.add_last v.buf ((2 * (n - keep)) + if keep > 0 then 1 else 0);
    if keep > 0 then Varints.add_last v.buf keep;
    Varints.add_substring v.buf s keep (n - keep);
    v.len <- v.len + 1;
    v.last <- s

  (* Dropping [last] only costs the next entry its shared prefix. *)
  let trim v =
    Varints.trim v.buf;
    Uint.trim v.restarts;
    v.last <- ""
end
