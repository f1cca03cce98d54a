type worker = {
  w_lock : Mutex.t;
  w_wake : Condition.t;
  mutable w_job : ((unit -> unit) * (exn option -> unit)) option;
}

type t = { spawn : (unit -> unit) -> unit; lock : Mutex.t; mutable idle : worker list }

let create ~spawn = { spawn; lock = Mutex.create (); idle = [] }

let rec serve lot w =
  Mutex.lock w.w_lock;
  while w.w_job = None do
    Condition.wait w.w_wake w.w_lock
  done;
  let job, after = Option.get w.w_job in
  w.w_job <- None;
  Mutex.unlock w.w_lock;
  let raised = match job () with () -> None | exception e -> Some e in
  (* Parked before [after] reports the job done, so a caller that
     waits for [after] and then calls [run] finds this worker. *)
  Mutex.lock lot.lock;
  lot.idle <- w :: lot.idle;
  Mutex.unlock lot.lock;
  after raised;
  serve lot w

let run lot job ~after =
  Mutex.lock lot.lock;
  match lot.idle with
  | w :: rest ->
      lot.idle <- rest;
      Mutex.unlock lot.lock;
      Mutex.lock w.w_lock;
      w.w_job <- Some (job, after);
      Condition.signal w.w_wake;
      Mutex.unlock w.w_lock
  | [] ->
      Mutex.unlock lot.lock;
      let w = { w_lock = Mutex.create (); w_wake = Condition.create (); w_job = Some (job, after) } in
      lot.spawn (fun () -> serve lot w)
