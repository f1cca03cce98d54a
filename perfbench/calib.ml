(* Host-speed calibration.

   The benchmark host is a shared virtual machine whose speed drifts by
   up to ~40% over tens of seconds as neighbours come and go, which
   would swamp any change the benchmark is meant to see.  A fixed
   kernel that belongs to the harness (not to the program) is timed in
   short bursts between the measured operations, and the times of the
   solve workloads are rescaled to the reference speed:

     reported = measured * (reference_s / mean kernel time) ** sensitivity

   The kernel never changes with the program, so a faster program still
   reads faster; only the host's drift cancels.  Raw times are kept in
   the run record. *)

(* A fixed, allocation-free kernel (so its speed does not depend on the
   program's heap): permuted dense matrix-vector products over
   preallocated arrays, about 75 KB of state. *)
let n = 96
let a = Array.init (n * n) (fun i -> float_of_int ((i * 7) mod 17) /. 17.)
let x = Array.make n 1.
let y = Array.make n 0.
let perm = Array.init n (fun i -> (i * 37) mod n)

let kernel () =
  Array.fill x 0 n 1.;
  for _ = 1 to 12 do
    for i = 0 to n - 1 do
      let s = ref 0. in
      let row = perm.(i) * n in
      for j = 0 to n - 1 do
        s := !s +. (a.(row + perm.(j)) *. x.(j))
      done;
      y.(i) <- !s
    done;
    let m = ref 1. in
    for i = 0 to n - 1 do
      if y.(i) > !m then m := y.(i)
    done;
    for i = 0 to n - 1 do
      x.(i) <- y.(i) /. !m
    done
  done

(* A typical mean kernel time on the 2-thread x86-64 host the bounds
   were set on, so rescaled times read close to raw ones there. *)
let reference_s = 3.0e-4

type t = { mutable total : float; mutable calls : int }

let create () = { total = 0.; calls = 0 }

(* Time [calls] kernel calls. *)
let sample t ~calls =
  let t0 = Milp.Clock.now () in
  for _ = 1 to calls do
    kernel ()
  done;
  let d = Milp.Clock.now () -. t0 in
  t.total <- t.total +. d;
  t.calls <- t.calls + calls

let mean t = if t.calls = 0 then reference_s else t.total /. float_of_int t.calls

(* The kernel's time swings more with the host's state than the
   program's does.  Over 20 runs of table1-tree and tactical-root, the
   log of each solve-phase time regressed on the log of the kernel time
   with slopes of 0.56 to 0.85, correlations 0.89 to 0.99; this is
   their middle.  Set-up, built interleaved with the first pass's
   solves, gave slopes of 0.72 and 0.61 over 30 runs of each workload
   (correlations 0.84 and 0.97). *)
let sensitivity = 0.7

(* Multiply a measured time by this to express it at reference speed. *)
let factor t = (reference_s /. mean t) ** sensitivity
