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
