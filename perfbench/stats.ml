(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks (the "inclusive" rule of
   Python's [statistics.quantiles]); [nan] on an empty sample. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      if i >= n - 1 then a.(n - 1)
      else
        let frac = pos -. float_of_int i in
        a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

let max_of xs = List.fold_left Float.max 0. xs

(* [num / den], 0 when nothing was attempted. *)
let ratio num den = if den = 0. then 0. else num /. den
