(* Work-stealing pool shared by many solves: the worker domains are
   owned here, for the life of the process, and every registered solve
   brings its own heaps, in-flight lists and pending counter.  Each heap
   has its own lock; the claim step first picks a *solve* (weighted
   fair by tasks served) and only then a heap within it. *)

(* Worker domains outlive the pools that use them: [shutdown] parks its
   workers instead of joining them, and [create] takes parked domains
   before it spawns any (see Parking). *)
let domains = Parking.create ~spawn:(fun f -> ignore (Domain.spawn f))

type solve = {
  weight : float;
  heaps : (int -> unit) Pqueue.t array;
  hlocks : Mutex.t array;
  (* Advisory size and minimum key per heap, written under the heap's
     lock; victim-selection and idle-check hints only, the heap under
     its lock is authoritative.  Emptiness is the size, never the key:
     a task queued with key [infinity] is as visible and stealable as
     any other. *)
  sizes : int Atomic.t array;
  mins : float Atomic.t array;
  (* Keys popped from heap [i] whose task has not retired yet, guarded
     by [hlocks.(i)], so [best_bound] counts nodes mid-LP on a worker. *)
  inflight : float list ref array;
  (* Incremented before a node is visible, decremented after its task
     returned (children already pushed): 0 proves this solve drained. *)
  pending : int Atomic.t;
  (* Tasks of this solve claimed but not yet retired.  Incremented
     *before* the claim re-checks [stop_flag], so [stopped && running=0]
     proves no task is executing and none can start. *)
  running : int Atomic.t;
  (* Tasks retired, the numerator of the fair-share ratio. *)
  served : int Atomic.t;
  stop_flag : bool Atomic.t;
  (* First exception a task of this solve raised; re-raised by await. *)
  err : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  nworkers : int;
  (* Guards [solves]/[down] and doubles as the sleep/wake channel:
     every broadcast happens while holding it, so a worker or awaiter
     that checked its wait condition under the lock cannot miss the
     wakeup that invalidates it. *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable solves : solve list;
  mutable down : bool;
  shutdown_flag : bool Atomic.t;
  mutable workers : int;  (* Worker loops not yet returned, under [lock]. *)
  mutable worker_exn : exn option;  (* The first a worker loop raised, for [shutdown]. *)
}

type handle = { sched : t; sv : solve }

let nworkers t = t.nworkers

let broadcast t =
  Mutex.lock t.lock;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

(* Pop the best node of [sv]'s heap [i], recording it in-flight under
   the same lock acquisition so there is no instant where it is
   invisible to [best_bound]. *)
let try_heap sv i =
  Mutex.lock sv.hlocks.(i);
  match Pqueue.pop sv.heaps.(i) with
  | Some (k, task) ->
      sv.inflight.(i) := k :: !(sv.inflight.(i));
      Atomic.set sv.sizes.(i) (Pqueue.length sv.heaps.(i));
      Atomic.set sv.mins.(i)
        (match Pqueue.peek_key sv.heaps.(i) with Some k' -> k' | None -> infinity);
      Mutex.unlock sv.hlocks.(i);
      Some (i, k, task)
  | None ->
      Atomic.set sv.sizes.(i) 0;
      Atomic.set sv.mins.(i) infinity;
      Mutex.unlock sv.hlocks.(i);
      None

(* Claim one node of [sv]: own heap first, then steal from the
   non-empty heap advertising the best minimum.  [running] is incremented *before* the
   stop re-check so the stop/await handshake is race-free: once an
   awaiter has observed [stopped && running = 0], any claim that started
   after must itself observe the stop flag and back out. *)
let claim_solve sv slot =
  Atomic.incr sv.running;
  let bail () =
    Atomic.decr sv.running;
    None
  in
  if Atomic.get sv.stop_flag || Atomic.get sv.pending = 0 then bail ()
  else
    match try_heap sv slot with
    | Some _ as r -> r
    | None ->
        let n = Array.length sv.heaps in
        let victim = ref (-1) and best = ref infinity in
        for i = 0 to n - 1 do
          if i <> slot && Atomic.get sv.sizes.(i) > 0 then begin
            let k = Atomic.get sv.mins.(i) in
            if !victim < 0 || k < !best then begin
              best := k;
              victim := i
            end
          end
        done;
        if !victim >= 0 then
          match try_heap sv !victim with Some _ as r -> r | None -> bail ()
        else bail ()

let fair_ratio sv = float_of_int (Atomic.get sv.served) /. sv.weight

(* Pick work across solves: least-served-per-weight first among the
   active ones.  The registry snapshot is taken under the lock; the
   per-solve claim runs outside it. *)
let claim t slot =
  Mutex.lock t.lock;
  let solves = t.solves in
  Mutex.unlock t.lock;
  let cands =
    List.filter
      (fun sv -> (not (Atomic.get sv.stop_flag)) && Atomic.get sv.pending > 0)
      solves
  in
  let cands =
    List.stable_sort (fun a b -> Float.compare (fair_ratio a) (fair_ratio b)) cands
  in
  let rec go = function
    | [] -> None
    | sv :: rest -> (
        match claim_solve sv slot with
        | Some (i, k, task) -> Some (sv, i, k, task)
        | None -> go rest)
  in
  go cands

(* Remove one occurrence of [k] (entries are a multiset of bounds; any
   float-equal entry is the same node for accounting purposes). *)
let rec remove_one k = function
  | [] -> []
  | x :: rest -> if x = k then rest else x :: remove_one k rest

let retire t sv i k =
  Mutex.lock sv.hlocks.(i);
  sv.inflight.(i) := remove_one k !(sv.inflight.(i));
  Mutex.unlock sv.hlocks.(i);
  Atomic.incr sv.served;
  let pending_left = Atomic.fetch_and_add sv.pending (-1) - 1 in
  let running_left = Atomic.fetch_and_add sv.running (-1) - 1 in
  (* Drained, or stopped with the last running task gone: wake both
     idle workers and the solve's awaiter. *)
  if pending_left = 0 || (running_left = 0 && Atomic.get sv.stop_flag) then broadcast t

let has_visible sv =
  (not (Atomic.get sv.stop_flag))
  && Atomic.get sv.pending > 0
  && Array.exists (fun n -> Atomic.get n > 0) sv.sizes

let rec run_worker t slot =
  if Atomic.get t.shutdown_flag then ()
  else begin
    (match claim t slot with
    | Some (sv, i, k, task) ->
        (try task slot
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set sv.err None (Some (e, bt)));
           Atomic.set sv.stop_flag true);
        retire t sv i k
    | None ->
        (* Nothing visible in any solve; in-flight tasks may still push
           children, so sleep until a push / retirement / submit / stop.
           The re-check happens under the same lock every broadcaster
           holds, so the wakeup cannot be lost.  A stale advisory size
           (thief race) keeps [has_visible] true and we retry the claim
           instead of sleeping; the losing [try_heap] corrects it. *)
        Mutex.lock t.lock;
        let idle =
          (not (Atomic.get t.shutdown_flag)) && not (List.exists has_visible t.solves)
        in
        if idle then Condition.wait t.cond t.lock;
        Mutex.unlock t.lock);
    run_worker t slot
  end

let create ~nworkers =
  if nworkers < 1 then invalid_arg "Scheduler.create: nworkers must be >= 1";
  let t =
    {
      nworkers;
      lock = Mutex.create ();
      cond = Condition.create ();
      solves = [];
      down = false;
      shutdown_flag = Atomic.make false;
      workers = nworkers;
      worker_exn = None;
    }
  in
  let returned e =
    Mutex.lock t.lock;
    t.workers <- t.workers - 1;
    if t.worker_exn = None then t.worker_exn <- e;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock
  in
  for slot = 0 to nworkers - 1 do
    Parking.run domains (fun () -> run_worker t slot) ~after:returned
  done;
  t

let submit ?(weight = 1.) t =
  if not (weight > 0.) then invalid_arg "Scheduler.submit: weight must be positive";
  let sv =
    {
      weight;
      heaps = Array.init t.nworkers (fun _ -> Pqueue.create ());
      hlocks = Array.init t.nworkers (fun _ -> Mutex.create ());
      sizes = Array.init t.nworkers (fun _ -> Atomic.make 0);
      mins = Array.init t.nworkers (fun _ -> Atomic.make infinity);
      inflight = Array.init t.nworkers (fun _ -> ref []);
      pending = Atomic.make 0;
      running = Atomic.make 0;
      served = Atomic.make 0;
      stop_flag = Atomic.make false;
      err = Atomic.make None;
    }
  in
  Mutex.lock t.lock;
  if t.down then begin
    Mutex.unlock t.lock;
    invalid_arg "Scheduler.submit: scheduler was shut down"
  end;
  t.solves <- sv :: t.solves;
  Mutex.unlock t.lock;
  { sched = t; sv }

let push h ~worker key task =
  let sv = h.sv in
  let i = worker mod h.sched.nworkers in
  (* Count the node before it becomes poppable: [pending] may over-
     approximate live work but can never undershoot it, so pending = 0
     really means drained. *)
  Atomic.incr sv.pending;
  Mutex.lock sv.hlocks.(i);
  Pqueue.push sv.heaps.(i) key task;
  Atomic.set sv.sizes.(i) (Pqueue.length sv.heaps.(i));
  if key < Atomic.get sv.mins.(i) then Atomic.set sv.mins.(i) key;
  Mutex.unlock sv.hlocks.(i);
  broadcast h.sched

(* Every heap lock is held at once, taken in index order (nothing else
   holds two).  A scan that released heap [i] before reading heap [j]
   could miss a node entirely: its task pushes the children onto the
   already-read heap [i], then retires the parent from [j]'s in-flight
   list before the scan gets there.  A bound read that way can claim a
   closed gap and stop the solve early. *)
let best_bound h =
  let sv = h.sv in
  Array.iter Mutex.lock sv.hlocks;
  let best = ref infinity in
  for i = 0 to Array.length sv.heaps - 1 do
    (match Pqueue.peek_key sv.heaps.(i) with
    | Some k -> if k < !best then best := k
    | None -> ());
    List.iter (fun k -> if k < !best then best := k) !(sv.inflight.(i))
  done;
  Array.iter Mutex.unlock sv.hlocks;
  !best

let queued h =
  let sv = h.sv in
  let n = ref 0 in
  for i = 0 to Array.length sv.heaps - 1 do
    Mutex.lock sv.hlocks.(i);
    n := !n + Pqueue.length sv.heaps.(i);
    Mutex.unlock sv.hlocks.(i)
  done;
  !n

let stop h =
  Atomic.set h.sv.stop_flag true;
  broadcast h.sched

let stopped h = Atomic.get h.sv.stop_flag

let drained h = Atomic.get h.sv.pending = 0

let finished sv =
  Atomic.get sv.pending = 0 || (Atomic.get sv.stop_flag && Atomic.get sv.running = 0)

let await h =
  let t = h.sched and sv = h.sv in
  Mutex.lock t.lock;
  while not (finished sv) do
    Condition.wait t.cond t.lock
  done;
  t.solves <- List.filter (fun s -> s != sv) t.solves;
  Mutex.unlock t.lock;
  match Atomic.get sv.err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let shutdown t =
  Mutex.lock t.lock;
  if t.down then Mutex.unlock t.lock
  else begin
    t.down <- true;
    Atomic.set t.shutdown_flag true;
    List.iter (fun sv -> Atomic.set sv.stop_flag true) t.solves;
    Condition.broadcast t.cond;
    while t.workers > 0 do
      Condition.wait t.cond t.lock
    done;
    Mutex.unlock t.lock;
    Option.iter raise t.worker_exn
  end
