(* Tests for the archexd serving stack (lib/server) and the shared
   cross-solve domain scheduler (Milp.Scheduler) it is built on.

   The daemon tests exercise the real thing: a listening Unix-domain
   socket, handler threads, the admission gate, the warm session cache
   and the drain path — in-process, so a leaked domain or handler shows
   up as [Daemon.run] never returning. *)

open Milp

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)
(* ------------------------------------------------------------------ *)

(* No nan: frames round-trip nan's bit pattern fine, but [nan <> nan]
   would fail the structural comparison below. *)
let gen_wire_float =
  QCheck2.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl [ infinity; neg_infinity; 0.; -0.; 1e308; 5e-324; 1.5 ];
      ])

let gen_wire_string = QCheck2.Gen.(string_size (int_range 0 40))

let gen_overrides =
  QCheck2.Gen.(
    let* o_time_limit = option gen_wire_float in
    let* o_rel_gap = option gen_wire_float in
    let* o_workers = option (int_range 0 64) in
    let* o_seed = option (int_range 0 1_000_000) in
    let* o_deadline_s = option gen_wire_float in
    let* o_presolve = option bool in
    let* o_heuristic = option (oneofl [ "tabu"; "off"; "" ]) in
    let* o_cuts = option (oneofl [ "all"; "none"; "gmi,cover"; "power,clique" ]) in
    let* o_cut_max_applied = option (int_range 1 256) in
    let* o_cut_max_age = option (int_range 1 50) in
    let* o_cut_pool_size = option (int_range 1 2000) in
    let* o_cut_min_violation = option gen_wire_float in
    let* o_stream = bool in
    return
      {
        Server.Protocol.o_time_limit;
        o_rel_gap;
        o_workers;
        o_seed;
        o_deadline_s;
        o_presolve;
        o_heuristic;
        o_cuts;
        o_cut_max_applied;
        o_cut_max_age;
        o_cut_pool_size;
        o_cut_min_violation;
        o_stream;
      })

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        return Server.Protocol.Ping;
        return Server.Protocol.Shutdown;
        (let* payload =
           oneof
             [
               map (fun s -> Server.Protocol.Lp s) gen_wire_string;
               (let* name = gen_wire_string in
                let* kstar = int_range 0 12 in
                return (Server.Protocol.Workload { name; kstar }));
             ]
         in
         let* overrides = gen_overrides in
         return (Server.Protocol.Solve { payload; overrides }));
      ])

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        (let* version = gen_wire_string in
         let* workers = int_range 0 256 in
         let* sessions = int_range 0 64 in
         return (Server.Protocol.Pong { version; workers; sessions }));
        (let* r_status = gen_wire_string in
         let* r_objective = gen_wire_float in
         let* r_bound = gen_wire_float in
         let* r_nodes = int_range 0 1_000_000 in
         let* r_lp_iterations = int_range 0 10_000_000 in
         let* r_solve_time_s = gen_wire_float in
         let* r_workers = int_range 0 64 in
         let* r_cache_hit = bool in
         return
           (Server.Protocol.Result
              {
                Server.Protocol.r_status;
                r_objective;
                r_bound;
                r_nodes;
                r_lp_iterations;
                r_solve_time_s;
                r_workers;
                r_cache_hit;
              }));
        (let* u_objective = gen_wire_float in
         let* u_bound = gen_wire_float in
         let* u_elapsed_s = gen_wire_float in
         return (Server.Protocol.Update { u_objective; u_bound; u_elapsed_s }));
        (let* i_objective = gen_wire_float in
         let* i_bound = gen_wire_float in
         let* i_has_incumbent = bool in
         return
           (Server.Protocol.Interrupted { i_objective; i_bound; i_has_incumbent }));
        map (fun s -> Server.Protocol.Rejected s) gen_wire_string;
        map (fun s -> Server.Protocol.Error_msg s) gen_wire_string;
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"protocol: request encode/decode round-trips" ~count:300
    gen_request (fun r ->
      Server.Protocol.decode_request (Server.Protocol.encode_request r) = Ok r)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"protocol: response encode/decode round-trips" ~count:300
    gen_response (fun r ->
      Server.Protocol.decode_response (Server.Protocol.encode_response r) = Ok r)

let prop_truncated_rejected =
  (* Every strict prefix of a frame must fail to decode, and so must a
     frame with trailing garbage — the framing layer's length prefix is
     the only thing allowed to delimit a payload. *)
  QCheck2.Test.make ~name:"protocol: truncated and padded frames are rejected"
    ~count:100 gen_request (fun r ->
      let b = Server.Protocol.encode_request r in
      let ok = ref true in
      for i = 0 to Bytes.length b - 1 do
        match Server.Protocol.decode_request (Bytes.sub b 0 i) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      (match
         Server.Protocol.decode_request (Bytes.cat b (Bytes.of_string "pad"))
       with
      | Ok _ -> ok := false
      | Error _ -> ());
      !ok)

let test_protocol_unknown_tag () =
  (match Server.Protocol.decode_request (Bytes.of_string "\x7f") with
  | Ok _ -> Alcotest.fail "unknown request tag accepted"
  | Error _ -> ());
  match Server.Protocol.decode_response (Bytes.of_string "\x7f") with
  | Ok _ -> Alcotest.fail "unknown response tag accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* Spin until [cond] holds; threads park in the waiting room
   asynchronously, so tests observe it through the counters. *)
let eventually ?(timeout = 10.) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.yield ();
      go ()
    end
  in
  go ()

let test_admission_gate () =
  let a = Server.Admission.create ~max_active:2 ~max_waiting:0 in
  let go () =
    match Server.Admission.try_acquire a with
    | `Go -> ()
    | _ -> Alcotest.fail "expected `Go"
  in
  go ();
  go ();
  (match Server.Admission.try_acquire a with
  | `Busy -> ()
  | _ -> Alcotest.fail "lane and waiting room full: expected `Busy");
  Server.Admission.release a;
  go ();
  Server.Admission.release a;
  Server.Admission.release a;
  Server.Admission.close a;
  match Server.Admission.try_acquire a with
  | `Closed -> ()
  | _ -> Alcotest.fail "after close: expected `Closed"

let test_admission_waiting_room () =
  let a = Server.Admission.create ~max_active:1 ~max_waiting:1 in
  (match Server.Admission.try_acquire a with
  | `Go -> ()
  | _ -> Alcotest.fail "first acquire");
  let outcome = Atomic.make 0 in
  let t =
    Thread.create
      (fun () ->
        match Server.Admission.try_acquire a with
        | `Go ->
            Server.Admission.release a;
            Atomic.set outcome 1
        | `Busy -> Atomic.set outcome 2
        | `Closed -> Atomic.set outcome 3)
      ()
  in
  Alcotest.(check bool)
    "second caller parks in the waiting room" true
    (eventually (fun () -> Server.Admission.waiting a = 1));
  (match Server.Admission.try_acquire a with
  | `Busy -> ()
  | _ -> Alcotest.fail "room full: expected `Busy");
  Server.Admission.release a;
  Thread.join t;
  Alcotest.(check int) "waiter was admitted" 1 (Atomic.get outcome)

let test_admission_close_flushes_waiters () =
  let a = Server.Admission.create ~max_active:1 ~max_waiting:2 in
  (match Server.Admission.try_acquire a with
  | `Go -> ()
  | _ -> Alcotest.fail "first acquire");
  let outcome = Atomic.make 0 in
  let t =
    Thread.create
      (fun () ->
        match Server.Admission.try_acquire a with
        | `Closed -> Atomic.set outcome 3
        | `Go -> Atomic.set outcome 1
        | `Busy -> Atomic.set outcome 2)
      ()
  in
  Alcotest.(check bool)
    "waiter parked" true
    (eventually (fun () -> Server.Admission.waiting a = 1));
  Server.Admission.close a;
  Thread.join t;
  Alcotest.(check int) "waiter flushed with `Closed" 3 (Atomic.get outcome)

(* ------------------------------------------------------------------ *)
(* Session cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let c = Server.Session_cache.create ~capacity:2 in
  let get k =
    let v, hit = Server.Session_cache.checkout c k ~create:(fun () -> ref k) in
    Server.Session_cache.checkin c k v;
    hit
  in
  Alcotest.(check bool) "a: cold" false (get "a");
  Alcotest.(check bool) "b: cold" false (get "b");
  Alcotest.(check bool) "a: warm" true (get "a");
  (* a is now most-recently used, so inserting c evicts b. *)
  Alcotest.(check bool) "c: cold" false (get "c");
  Alcotest.(check bool) "a: survived eviction" true (get "a");
  Alcotest.(check bool) "b: was the stalest, evicted" false (get "b");
  Alcotest.(check int) "capacity respected" 2 (Server.Session_cache.length c);
  let hits, misses = Server.Session_cache.stats c in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 4 misses

let test_cache_capacity_zero_bypasses () =
  let c = Server.Session_cache.create ~capacity:0 in
  let builds = ref 0 in
  let get k =
    let v, hit =
      Server.Session_cache.checkout c k ~create:(fun () ->
          incr builds;
          ref k)
    in
    Server.Session_cache.checkin c k v;
    hit
  in
  Alcotest.(check bool) "first: cold" false (get "a");
  Alcotest.(check bool) "repeat: still cold" false (get "a");
  Alcotest.(check int) "built fresh both times" 2 !builds;
  Alcotest.(check int) "nothing retained" 0 (Server.Session_cache.length c)

let test_cache_exclusive_checkout () =
  (* A checked-out value is pinned to one holder: the second thread's
     checkout of the same key must wait for checkin, at which point it
     sees the holder's mutation on the same (cached, warm) value. *)
  let c = Server.Session_cache.create ~capacity:1 in
  let v, hit = Server.Session_cache.checkout c "k" ~create:(fun () -> ref 0) in
  Alcotest.(check bool) "first checkout builds" false hit;
  let seen = Atomic.make (-1) in
  let warm = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        let v2, hit2 =
          Server.Session_cache.checkout c "k" ~create:(fun () -> ref 99)
        in
        Atomic.set seen !v2;
        Atomic.set warm hit2;
        Server.Session_cache.checkin c "k" v2)
      ()
  in
  Thread.delay 0.05;
  v := 1;
  Server.Session_cache.checkin c "k" v;
  Thread.join t;
  Alcotest.(check int) "second holder saw the mutation" 1 (Atomic.get seen);
  Alcotest.(check bool) "second checkout was warm" true (Atomic.get warm)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let with_pool nworkers f =
  let s = Scheduler.create ~nworkers in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown s) (fun () -> f s)

let test_sched_basic () =
  with_pool 2 (fun s ->
      let h = Scheduler.submit s in
      let sum = Atomic.make 0 in
      Scheduler.push h ~worker:0 0. (fun slot ->
          for i = 1 to 3 do
            Scheduler.push h ~worker:slot (float_of_int i) (fun _ ->
                ignore (Atomic.fetch_and_add sum i))
          done);
      Scheduler.await h;
      Alcotest.(check bool) "drained" true (Scheduler.drained h);
      Alcotest.(check int) "all children ran" 6 (Atomic.get sum))

let test_sched_two_solves_isolated () =
  (* Two solves on one pool: each drains independently and neither
     sees the other's tasks. *)
  with_pool 2 (fun s ->
      let run_solve n =
        let h = Scheduler.submit s in
        let sum = Atomic.make 0 in
        for i = 1 to n do
          Scheduler.push h ~worker:i (float_of_int i) (fun _ ->
              ignore (Atomic.fetch_and_add sum i))
        done;
        Scheduler.await h;
        Atomic.get sum
      in
      let r1 = ref 0 and r2 = ref 0 in
      let t1 = Thread.create (fun () -> r1 := run_solve 20) () in
      let t2 = Thread.create (fun () -> r2 := run_solve 30) () in
      Thread.join t1;
      Thread.join t2;
      Alcotest.(check int) "solve 1 total" 210 !r1;
      Alcotest.(check int) "solve 2 total" 465 !r2)

(* Park the single worker inside a task of [h] until the returned
   release function is called, so the test can stage queue contents
   deterministically while no claiming is possible. *)
let gate_worker h =
  let m = Mutex.create () and c = Condition.create () in
  let opened = ref false in
  Scheduler.push h ~worker:0 (-1.) (fun _ ->
      Mutex.lock m;
      while not !opened do
        Condition.wait c m
      done;
      Mutex.unlock m);
  if not (eventually (fun () -> Scheduler.queued h = 0)) then
    Alcotest.fail "gate task never claimed";
  fun () ->
    Mutex.lock m;
    opened := true;
    Condition.signal c;
    Mutex.unlock m

let test_sched_weighted_fairness () =
  (* One worker, weights 3 : 1.  Stage six tasks per solve while the
     worker is gated, then count who owns the first six post-gate
     execution slots — served/weight ordering must give the heavy
     solve at least four of them regardless of tie-breaking. *)
  with_pool 1 (fun s ->
      let heavy = Scheduler.submit ~weight:3. s in
      let light = Scheduler.submit ~weight:1. s in
      let order = ref [] in
      let olock = Mutex.create () in
      let record tag _slot =
        Mutex.lock olock;
        order := tag :: !order;
        Mutex.unlock olock
      in
      let release = gate_worker heavy in
      for i = 0 to 5 do
        Scheduler.push heavy ~worker:0 (float_of_int i) (record `Heavy);
        Scheduler.push light ~worker:0 (float_of_int i) (record `Light)
      done;
      release ();
      Scheduler.await heavy;
      Scheduler.await light;
      let first6 = List.filteri (fun i _ -> i < 6) (List.rev !order) in
      let nheavy = List.length (List.filter (fun t -> t = `Heavy) first6) in
      Alcotest.(check int) "everything ran" 12 (List.length !order);
      Alcotest.(check bool)
        (Printf.sprintf "weight-3 solve owns most early slots (got %d/6)" nheavy)
        true (nheavy >= 4))

let test_sched_task_exception_propagates () =
  with_pool 2 (fun s ->
      let h = Scheduler.submit s in
      Scheduler.push h ~worker:0 0. (fun _ -> failwith "boom");
      (match Scheduler.await h with
      | () -> Alcotest.fail "await should re-raise the task's exception"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* The pool survives a poisoned solve. *)
      let h2 = Scheduler.submit s in
      let ran = Atomic.make false in
      Scheduler.push h2 ~worker:0 0. (fun _ -> Atomic.set ran true);
      Scheduler.await h2;
      Alcotest.(check bool) "pool still serves other solves" true
        (Atomic.get ran))

let test_sched_stop_discards_queued () =
  with_pool 1 (fun s ->
      let h = Scheduler.submit s in
      let ran = Atomic.make 0 in
      let release = gate_worker h in
      for i = 1 to 5 do
        Scheduler.push h ~worker:0 (float_of_int i) (fun _ ->
            ignore (Atomic.fetch_and_add ran 1))
      done;
      Scheduler.stop h;
      release ();
      Scheduler.await h;
      Alcotest.(check bool) "stopped" true (Scheduler.stopped h);
      Alcotest.(check int) "queued nodes were never run" 0 (Atomic.get ran))

(* Successive pools run on the same parked domains: the domains that
   ran any task across three pools, one created after the other's
   shutdown, are at most the two of one pool. *)
let test_sched_pools_reuse_domains () =
  let ids = ref [] and m = Mutex.create () in
  for _ = 1 to 3 do
    with_pool 2 (fun s ->
        let h = Scheduler.submit s in
        for i = 1 to 8 do
          Scheduler.push h ~worker:i (float_of_int i) (fun _ ->
              let id = (Domain.self () :> int) in
              Mutex.lock m;
              if not (List.mem id !ids) then ids := id :: !ids;
              Mutex.unlock m;
              Thread.delay 0.001)
        done;
        Scheduler.await h)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d domains ran tasks" (List.length !ids))
    true
    (List.length !ids >= 1 && List.length !ids <= 2)

(* A parked worker serves the next job, survives a job that raises
   (handing the exception to [after]), and a second worker is spawned
   only while the first is busy. *)
let test_parking_reuses_workers () =
  let spawned = Atomic.make 0 in
  let lot =
    Parking.create ~spawn:(fun f ->
        Atomic.incr spawned;
        ignore (Thread.create f ()))
  in
  let start job =
    let m = Mutex.create () and c = Condition.create () and result = ref None in
    Parking.run lot job ~after:(fun e ->
        Mutex.lock m;
        result := Some e;
        Condition.signal c;
        Mutex.unlock m);
    fun () ->
      Mutex.lock m;
      while !result = None do
        Condition.wait c m
      done;
      Mutex.unlock m;
      Option.get !result
  in
  let run job = start job () in
  let who = ref [] in
  let record () = who := Thread.id (Thread.self ()) :: !who in
  ignore (run record);
  (match run (fun () -> failwith "boom") with
  | Some (Failure msg) -> Alcotest.(check string) "exception handed to after" "boom" msg
  | _ -> Alcotest.fail "after must receive the job's exception");
  ignore (run record);
  Alcotest.(check int) "one worker for sequential jobs" 1 (Atomic.get spawned);
  Alcotest.(check int) "the same thread ran both" 1 (List.length (List.sort_uniq compare !who));
  let gate = Atomic.make false in
  let first = start (fun () -> while not (Atomic.get gate) do Thread.yield () done) in
  let second = start (fun () -> Atomic.set gate true) in
  ignore (second ());
  ignore (first ());
  Alcotest.(check int) "a second worker while the first is busy" 2 (Atomic.get spawned)

let test_sched_steals_infinite_key () =
  (* A sequential chain's last task is queued with key [infinity].  It
     must still be visible to an idle worker and stealable, or the
     solve stalls until the busy worker frees up.  Block one slot in a
     gate task, queue an [infinity] task on that slot's heap, and
     require the other worker to run it while the gate is still shut. *)
  with_pool 2 (fun s ->
      let h = Scheduler.submit s in
      let m = Mutex.create () and c = Condition.create () in
      let opened = ref false in
      let gate_slot = Atomic.make (-1) and ran_on = Atomic.make (-1) in
      Scheduler.push h ~worker:0 0. (fun slot ->
          Atomic.set gate_slot slot;
          Mutex.lock m;
          while not !opened do
            Condition.wait c m
          done;
          Mutex.unlock m);
      if not (eventually (fun () -> Atomic.get gate_slot >= 0)) then
        Alcotest.fail "gate task never claimed";
      let g = Atomic.get gate_slot in
      Scheduler.push h ~worker:g infinity (fun slot -> Atomic.set ran_on slot);
      let ran_while_gated = eventually ~timeout:2. (fun () -> Atomic.get ran_on >= 0) in
      Mutex.lock m;
      opened := true;
      Condition.signal c;
      Mutex.unlock m;
      Scheduler.await h;
      Alcotest.(check bool) "infinite-key task ran while the gate held its slot" true
        ran_while_gated;
      Alcotest.(check int) "run by the other worker" (1 - g) (Atomic.get ran_on))

(* ------------------------------------------------------------------ *)
(* Branch & bound through a shared scheduler                           *)
(* ------------------------------------------------------------------ *)

(* Same downsized Table-1 family as test_archex's parallel section. *)
let par_test_params =
  {
    Archex.Scenarios.default_data_collection with
    Archex.Scenarios.dc_sensors = 3;
    dc_relay_grid = (3, 2);
    dc_width = 45.;
    dc_height = 28.;
  }

let base_cfg ~workers =
  Archex.Solver_config.(
    default
    |> with_approx ~kstar:4 ()
    |> with_time_limit 60. |> with_rel_gap 1e-6 |> with_workers workers)

let solve_cfg cfg inst =
  match Archex.Solve.run cfg inst with
  | Ok out -> out
  | Error e -> Alcotest.fail e

let test_bb_sequential_via_scheduler_replay () =
  (* ISSUE acceptance: a sequential (nworkers = 1) search routed
     through a shared scheduler must replay the owned-loop tree
     bit-identically — same pinned node count as
     test_presolve_node_count_regression, same tallies as the plain
     run, not merely the same objective. *)
  match
    Archex.Scenarios.data_collection ~objective:Archex.Objective.energy
      par_test_params
  with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let plain = (solve_cfg (base_cfg ~workers:1) inst).Archex.Outcome.mip in
      let s = Scheduler.create ~nworkers:2 in
      let via =
        Fun.protect
          ~finally:(fun () -> Scheduler.shutdown s)
          (fun () ->
            let cfg = Archex.Solver_config.with_scheduler s (base_cfg ~workers:1) in
            (solve_cfg cfg inst).Archex.Outcome.mip)
      in
      Alcotest.(check int) "pinned energy node count" 79 via.Branch_bound.nodes;
      Alcotest.(check int) "node parity" plain.Branch_bound.nodes
        via.Branch_bound.nodes;
      Alcotest.(check int) "lp iteration parity" plain.Branch_bound.lp_iterations
        via.Branch_bound.lp_iterations;
      Alcotest.(check (float 1e-9)) "objective parity" plain.Branch_bound.objective
        via.Branch_bound.objective

let test_bb_streamed_bound_honest () =
  (* Every (objective, bound) pair streamed through [on_incumbent] must
     carry a bound the final proven optimum respects: an incumbent found
     by a node's rounding or dive is bounded by that node's own LP too,
     not only by the other open nodes.  Checked on the sequential drive,
     the scheduler chain, and the two-worker ramp-up plus workers. *)
  match
    Archex.Scenarios.data_collection ~objective:Archex.Objective.energy
      par_test_params
  with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let check tag ?sched workers =
        let lock = Mutex.create () and streamed = ref [] in
        let record o b = Mutex.protect lock (fun () -> streamed := (o, b) :: !streamed) in
        let cfg = base_cfg ~workers |> Archex.Solver_config.with_on_incumbent record in
        let cfg =
          match sched with Some s -> Archex.Solver_config.with_scheduler s cfg | None -> cfg
        in
        let mip = (solve_cfg cfg inst).Archex.Outcome.mip in
        Alcotest.(check string) (tag ^ ": proved optimal") "optimal"
          (Status.mip_status_to_string mip.Branch_bound.status);
        let opt = mip.Branch_bound.objective in
        Alcotest.(check bool) (tag ^ ": streamed an incumbent") true (!streamed <> []);
        List.iter
          (fun (o, b) ->
            if b > opt +. (1e-9 *. Float.max 1. (Float.abs opt)) then
              Alcotest.failf "%s: update (obj %g, bound %g) claims a bound above the optimum %g"
                tag o b opt)
          !streamed
      in
      check "workers=1" 1;
      let s = Scheduler.create ~nworkers:2 in
      Fun.protect
        ~finally:(fun () -> Scheduler.shutdown s)
        (fun () -> check "workers=1 via scheduler" ~sched:s 1);
      check "workers=2" 2

let test_bb_parallel_via_shared_scheduler () =
  (* workers > 1 through a shared pool must agree with the owned-pool
     parallel search on status and objective. *)
  match
    Archex.Scenarios.data_collection ~objective:Archex.Objective.dollar
      par_test_params
  with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let owned = solve_cfg (base_cfg ~workers:4) inst in
      let s = Scheduler.create ~nworkers:4 in
      let shared =
        Fun.protect
          ~finally:(fun () -> Scheduler.shutdown s)
          (fun () ->
            let cfg = Archex.Solver_config.with_scheduler s (base_cfg ~workers:4) in
            solve_cfg cfg inst)
      in
      Alcotest.(check string) "status parity"
        (Status.mip_status_to_string owned.Archex.Outcome.status)
        (Status.mip_status_to_string shared.Archex.Outcome.status);
      Alcotest.(check (float 1e-6)) "objective parity"
        owned.Archex.Outcome.mip.Branch_bound.objective
        shared.Archex.Outcome.mip.Branch_bound.objective

let test_bb_concurrent_solves_share_pool () =
  (* Two searches submitted from two threads share one pool and must
     both land on their own sequential optimum — the per-solve
     exhaustion proofs keep the trees independent. *)
  let instance objective =
    match Archex.Scenarios.data_collection ~objective par_test_params with
    | Error e -> Alcotest.fail e
    | Ok inst -> inst
  in
  let dollar = instance Archex.Objective.dollar in
  let mixed =
    instance (Archex.Objective.combine Archex.Objective.dollar Archex.Objective.energy)
  in
  let seq_dollar = solve_cfg (base_cfg ~workers:1) dollar in
  let seq_mixed = solve_cfg (base_cfg ~workers:1) mixed in
  let s = Scheduler.create ~nworkers:2 in
  let r_dollar = ref None and r_mixed = ref None in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown s)
    (fun () ->
      let cfg = Archex.Solver_config.with_scheduler s (base_cfg ~workers:2) in
      let t1 = Thread.create (fun () -> r_dollar := Some (solve_cfg cfg dollar)) () in
      let t2 = Thread.create (fun () -> r_mixed := Some (solve_cfg cfg mixed)) () in
      Thread.join t1;
      Thread.join t2);
  match (!r_dollar, !r_mixed) with
  | Some d, Some x ->
      Alcotest.(check (float 1e-6)) "dollar objective"
        seq_dollar.Archex.Outcome.mip.Branch_bound.objective
        d.Archex.Outcome.mip.Branch_bound.objective;
      Alcotest.(check (float 1e-6)) "mixed objective"
        seq_mixed.Archex.Outcome.mip.Branch_bound.objective
        x.Archex.Outcome.mip.Branch_bound.objective
  | _ -> Alcotest.fail "a concurrent solve did not finish"

(* ------------------------------------------------------------------ *)
(* Daemon end to end                                                   *)
(* ------------------------------------------------------------------ *)

let tmp_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "archexd-test-%s-%d.sock" tag (Unix.getpid ()))

let small_overrides =
  {
    Server.Protocol.no_overrides with
    Server.Protocol.o_time_limit = Some 120.;
    o_rel_gap = Some 1e-6;
  }

let oneshot_objective name =
  match Archex.Scenario.find name with
  | Error e -> Alcotest.fail e
  | Ok w -> (
      match Archex.Scenario.instance w with
      | Error e -> Alcotest.fail e
      | Ok inst -> (
          let cfg =
            Archex.Solver_config.(
              default
              |> with_approx ~kstar:4 ()
              |> with_time_limit 120. |> with_rel_gap 1e-6)
          in
          match Archex.Solve.run cfg inst with
          | Error e -> Alcotest.fail e
          | Ok out -> out.Archex.Outcome.mip.Branch_bound.objective))

let expect_result name = function
  | Ok (Server.Protocol.Result r) -> r
  | Ok (Server.Protocol.Rejected m) -> Alcotest.fail (name ^ ": rejected: " ^ m)
  | Ok (Server.Protocol.Error_msg m) -> Alcotest.fail (name ^ ": error: " ^ m)
  | Ok _ -> Alcotest.fail (name ^ ": unexpected response frame")
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_daemon_end_to_end () =
  let sock = tmp_sock "e2e" in
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.c_socket = sock;
      c_workers = 2;
      c_max_active = 2;
      c_max_waiting = 2;
      c_cache_capacity = 4;
      c_time_limit = 120.;
      c_verbose = false;
    }
  in
  match Server.Daemon.create config with
  | Error e -> Alcotest.fail e
  | Ok d ->
      let clean = ref false in
      let dt = Thread.create (fun () -> clean := Server.Daemon.run d) () in
      (match Server.Client.connect sock with
      | Error e -> Alcotest.fail ("connect: " ^ e)
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Server.Client.disconnect conn)
            (fun () ->
              (match Server.Client.ping conn with
              | Ok (Server.Protocol.Pong p) ->
                  Alcotest.(check string)
                    "pong version" Server.Daemon.version p.version;
                  Alcotest.(check int)
                    "pong workers" (Server.Daemon.workers d) p.workers
              | Ok _ -> Alcotest.fail "ping: unexpected frame"
              | Error e -> Alcotest.fail ("ping: " ^ e));
              let submit name =
                Server.Client.solve conn
                  (Server.Protocol.Workload { name; kstar = 4 })
                  small_overrides
              in
              let r = expect_result "dc-small-dollar" (submit "dc-small-dollar") in
              Alcotest.(check string) "status" "optimal" r.Server.Protocol.r_status;
              Alcotest.(check bool) "first request is cold" false
                r.Server.Protocol.r_cache_hit;
              Alcotest.(check (float 1e-6))
                "daemon objective matches one-shot Solve.run"
                (oneshot_objective "dc-small-dollar")
                r.Server.Protocol.r_objective;
              let r2 = expect_result "repeat" (submit "dc-small-dollar") in
              Alcotest.(check bool) "repeat hits the warm session" true
                r2.Server.Protocol.r_cache_hit;
              Alcotest.(check (float 1e-6)) "warm objective unchanged"
                r.Server.Protocol.r_objective r2.Server.Protocol.r_objective;
              (match submit "no-such-workload" with
              | Ok (Server.Protocol.Error_msg _) -> ()
              | Ok _ -> Alcotest.fail "unknown workload: expected Error_msg"
              | Error e -> Alcotest.fail ("unknown workload: " ^ e));
              (* Per-request cut overrides: a restricted family list
                 still proves the same optimum; a bogus list, a retired
                 family, an out-of-range pool knob or a negative worker
                 count is a bad request, not a crash. *)
              let r3 =
                expect_result "cuts override"
                  (Server.Client.solve conn
                     (Server.Protocol.Workload
                        { name = "dc-small-dollar"; kstar = 4 })
                     { small_overrides with Server.Protocol.o_cuts = Some "gmi,cover" })
              in
              Alcotest.(check (float 1e-6)) "restricted-cuts objective unchanged"
                r.Server.Protocol.r_objective r3.Server.Protocol.r_objective;
              List.iter
                (fun (what, o) ->
                  match
                    Server.Client.solve conn
                      (Server.Protocol.Workload { name = "dc-small-dollar"; kstar = 4 })
                      o
                  with
                  | Ok (Server.Protocol.Error_msg _) -> ()
                  | Ok _ -> Alcotest.fail (what ^ ": expected Error_msg")
                  | Error e -> Alcotest.fail (what ^ ": " ^ e))
                [
                  ("bad cut list", { small_overrides with o_cuts = Some "bogus" });
                  ("retired family", { small_overrides with o_cuts = Some "negcycle" });
                  ("zero pool age", { small_overrides with o_cut_max_age = Some 0 });
                  ("zero max applied", { small_overrides with o_cut_max_applied = Some 0 });
                  ("zero pool size", { small_overrides with o_cut_pool_size = Some 0 });
                  ("zero min violation", { small_overrides with o_cut_min_violation = Some 0. });
                  ("negative workers", { small_overrides with o_workers = Some (-3) });
                ];
              (* A raw LP model takes the cacheless MILP path. *)
              let m = Model.create () in
              let x = Model.add_var m ~lb:0. ~ub:5. ~kind:Model.Integer "x" in
              let y = Model.add_var m ~lb:0. ~ub:5. ~kind:Model.Integer "y" in
              Model.add_constr m (Lin.of_list [ (1., x); (1., y) ]) Model.Ge 3.;
              Model.set_objective m Model.Minimize
                (Lin.of_list [ (1., x); (1., y) ]);
              let lp =
                Server.Client.solve conn
                  (Server.Protocol.Lp (Lp_format.to_string m))
                  small_overrides
              in
              let rl = expect_result "lp payload" lp in
              Alcotest.(check (float 1e-9)) "lp objective" 3.
                rl.Server.Protocol.r_objective;
              Alcotest.(check bool) "lp path bypasses the cache" false
                rl.Server.Protocol.r_cache_hit;
              match Server.Client.shutdown conn with
              | Ok (Server.Protocol.Pong _) -> ()
              | Ok _ -> Alcotest.fail "shutdown: expected a Pong ack"
              | Error e -> Alcotest.fail ("shutdown: " ^ e)));
      Thread.join dt;
      Alcotest.(check bool) "clean drain" true !clean;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

(* A 3 x 30 market-split feasibility model: equality rows with dense
   0..99 coefficients and half-sum right-hand sides give the LP
   relaxation nothing to prune with, so the tree is astronomically
   large — the solve reliably outlives the test and only returns
   because the drain raises its interrupt flag. *)
let market_split_model () =
  let m = Model.create () in
  let seed = ref 123456789 in
  let next () =
    seed := (1103515245 * !seed) + 12345 land 0x3FFFFFFF;
    abs (!seed / 65536) mod 100
  in
  let n = 30 in
  let xs = Array.init n (fun i -> Model.add_binary m (Printf.sprintf "x%d" i)) in
  for _row = 0 to 2 do
    let coefs = Array.init n (fun _ -> float_of_int (next ())) in
    let total = Array.fold_left ( +. ) 0. coefs in
    let rhs = Float.of_int (int_of_float total / 2) in
    Model.add_constr m
      (Lin.of_list (Array.to_list (Array.mapi (fun i c -> (c, xs.(i))) coefs)))
      Model.Eq rhs
  done;
  Model.set_objective m Model.Minimize
    (Lin.of_list (Array.to_list (Array.map (fun v -> (1., v)) xs)));
  m

let test_daemon_busy_and_interrupted_drain () =
  (* One admission slot, no waiting room: while a deliberately
     intractable solve holds the lane, a second request bounces with
     [Rejected]; [request_shutdown] (the SIGINT/SIGTERM path) must
     then interrupt the long solve into an [Interrupted] frame and
     still drain cleanly. *)
  let sock = tmp_sock "drain" in
  let config =
    {
      Server.Daemon.c_socket = sock;
      c_workers = 1;
      c_max_active = 1;
      c_max_waiting = 0;
      c_cache_capacity = 2;
      c_time_limit = 300.;
      c_drain_timeout = 60.;
      c_verbose = false;
    }
  in
  match Server.Daemon.create config with
  | Error e -> Alcotest.fail e
  | Ok d ->
      let clean = ref false in
      let dt = Thread.create (fun () -> clean := Server.Daemon.run d) () in
      let long_result = ref (Error "never ran") in
      let text = Lp_format.to_string (market_split_model ()) in
      let lt =
        Thread.create
          (fun () ->
            match Server.Client.connect sock with
            | Error e -> long_result := Error ("connect: " ^ e)
            | Ok conn ->
                Fun.protect
                  ~finally:(fun () -> Server.Client.disconnect conn)
                  (fun () ->
                    long_result :=
                      Server.Client.solve conn (Server.Protocol.Lp text)
                        Server.Protocol.no_overrides))
          ()
      in
      (match Server.Client.connect sock with
      | Error e -> Alcotest.fail ("second connect: " ^ e)
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Server.Client.disconnect conn)
            (fun () ->
              (* Give the long solve time to take the only lane, then
                 overflow the admission gate. *)
              Thread.delay 0.5;
              match
                Server.Client.solve conn
                  (Server.Protocol.Workload { name = "dc-small-dollar"; kstar = 4 })
                  small_overrides
              with
              | Ok (Server.Protocol.Rejected _) -> ()
              | Ok (Server.Protocol.Result _) ->
                  Alcotest.fail
                    "second request was served while the lane should be full"
              | Ok _ -> Alcotest.fail "second request: unexpected frame"
              | Error e -> Alcotest.fail ("second request: " ^ e)));
      Server.Daemon.request_shutdown d;
      Thread.join dt;
      Thread.join lt;
      (match !long_result with
      | Ok (Server.Protocol.Interrupted _) -> ()
      | Ok (Server.Protocol.Result r) ->
          Alcotest.fail
            (Printf.sprintf "intractable solve finished (%s, %d nodes)?"
               r.Server.Protocol.r_status r.Server.Protocol.r_nodes)
      | Ok _ -> Alcotest.fail "long solve: unexpected terminal frame"
      | Error e -> Alcotest.fail ("long solve: " ^ e));
      Alcotest.(check bool) "drain stayed clean" true !clean;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          qt prop_request_roundtrip;
          qt prop_response_roundtrip;
          qt prop_truncated_rejected;
          Alcotest.test_case "unknown tags rejected" `Quick test_protocol_unknown_tag;
        ] );
      ( "admission",
        [
          Alcotest.test_case "lane limits and close" `Quick test_admission_gate;
          Alcotest.test_case "waiting room blocks then admits" `Quick
            test_admission_waiting_room;
          Alcotest.test_case "close flushes waiters" `Quick
            test_admission_close_flushes_waiters;
        ] );
      ( "session_cache",
        [
          Alcotest.test_case "lru eviction order" `Quick test_cache_lru_eviction;
          Alcotest.test_case "capacity 0 bypasses" `Quick
            test_cache_capacity_zero_bypasses;
          Alcotest.test_case "exclusive checkout" `Quick test_cache_exclusive_checkout;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "push/await/drained" `Quick test_sched_basic;
          Alcotest.test_case "two solves stay isolated" `Quick
            test_sched_two_solves_isolated;
          Alcotest.test_case "weighted fair victim selection" `Quick
            test_sched_weighted_fairness;
          Alcotest.test_case "task exception re-raised at await" `Quick
            test_sched_task_exception_propagates;
          Alcotest.test_case "idle worker steals an infinite key" `Quick
            test_sched_steals_infinite_key;
          Alcotest.test_case "stop discards queued nodes" `Quick
            test_sched_stop_discards_queued;
          Alcotest.test_case "successive pools reuse parked domains" `Quick
            test_sched_pools_reuse_domains;
          Alcotest.test_case "parked workers serve the next job" `Quick test_parking_reuses_workers;
        ] );
      ( "bb_scheduler",
        [
          Alcotest.test_case "sequential replay is bit-identical" `Slow
            test_bb_sequential_via_scheduler_replay;
          Alcotest.test_case "streamed bounds never pass the optimum" `Slow
            test_bb_streamed_bound_honest;
          Alcotest.test_case "parallel parity through shared pool" `Slow
            test_bb_parallel_via_shared_scheduler;
          Alcotest.test_case "concurrent solves share the pool" `Slow
            test_bb_concurrent_solves_share_pool;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end over a socket" `Slow test_daemon_end_to_end;
          Alcotest.test_case "busy backpressure and interrupted drain" `Slow
            test_daemon_busy_and_interrupted_drain;
        ] );
    ]
