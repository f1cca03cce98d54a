(* archexd server core.

   Concurrency model: handler systhreads never do tree work themselves
   — every solve request's config carries the daemon's shared
   {!Milp.Scheduler}, so node processing runs on the pool's worker
   domains (the scheduler multiplexes concurrent searches with
   weighted fair victim selection) while the handler thread blocks in
   [Scheduler.await].  Handler threads all share the runtime's domain
   0, which is fine because they only parse frames, touch the session
   cache and sleep. *)

module Clock = Milp.Clock
module Solver_config = Archex.Solver_config
module Session = Archex.Session
module Outcome = Archex.Outcome

let version = "archexd/0.8"

type config = {
  c_socket : string;
  c_workers : int;
  c_max_active : int;
  c_max_waiting : int;
  c_cache_capacity : int;
  c_time_limit : float;
  c_drain_timeout : float;
  c_verbose : bool;
}

let default_config =
  {
    c_socket = "archexd.sock";
    c_workers = 1;
    c_max_active = 2;
    c_max_waiting = 4;
    c_cache_capacity = 4;
    c_time_limit = 60.;
    c_drain_timeout = 30.;
    c_verbose = false;
  }

(* A cached warm session plus the largest K* it has grown to: requests
   at a smaller K* reuse the grown pools as-is (the encoding is a
   superset, carry incumbent included), larger ones extend them. *)
type warm = { w_session : Session.t; mutable w_kstar : int }

type conn = { c_fd : Unix.file_descr; c_wlock : Mutex.t }

type t = {
  d_config : config;
  d_workers : int;  (* resolved: d_config.c_workers with 0 auto-detected *)
  d_sched : Milp.Scheduler.t;
  d_adm : Admission.t;
  d_cache : (string, warm) Session_cache.t;
  d_stop : bool Atomic.t;
  d_sock : Unix.file_descr;
  d_lock : Mutex.t;  (* guards d_inflight, d_open, d_nconns *)
  mutable d_inflight : bool Atomic.t list;
  mutable d_open : conn list;
  mutable d_nconns : int;
}

let logf t fmt =
  Printf.ksprintf
    (fun s -> if t.d_config.c_verbose then Printf.eprintf "[archexd] %s\n%!" s)
    fmt

let workers t = t.d_workers

let request_shutdown t = Atomic.set t.d_stop true

let create config =
  if config.c_max_active < 1 then Error "max_active must be >= 1"
  else if config.c_workers < 0 then Error "workers must be >= 0"
  else begin
    (* EPIPE as an exception, not a process kill, when a client hangs
       up mid-stream. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let nworkers =
      if config.c_workers = 0 then Domain.recommended_domain_count ()
      else config.c_workers
    in
    match
      (try Unix.unlink config.c_socket with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind sock (Unix.ADDR_UNIX config.c_socket);
        Unix.listen sock 16;
        Ok sock
      with Unix.Unix_error (e, fn, _) ->
        Unix.close sock;
        Error (Printf.sprintf "%s %s: %s" fn config.c_socket (Unix.error_message e))
    with
    | Error e -> Error e
    | Ok sock ->
        let t =
          {
            d_config = config;
            d_workers = nworkers;
            d_sched = Milp.Scheduler.create ~nworkers;
            d_adm =
              Admission.create ~max_active:config.c_max_active
                ~max_waiting:config.c_max_waiting;
            d_cache = Session_cache.create ~capacity:config.c_cache_capacity;
            d_stop = Atomic.make false;
            d_sock = sock;
            d_lock = Mutex.create ();
            d_inflight = [];
            d_open = [];
            d_nconns = 0;
          }
        in
        logf t "%s listening on %s: %d worker domain%s%s, %d active / %d waiting, %d cached sessions"
          version config.c_socket nworkers
          (if nworkers = 1 then "" else "s")
          (if config.c_workers = 0 then " (auto-detected)" else "")
          config.c_max_active config.c_max_waiting config.c_cache_capacity;
        Ok t
  end

(* ------------------------------------------------------------------ *)
(* Responses *)

let send_resp conn resp =
  Mutex.lock conn.c_wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.c_wlock)
    (fun () -> Protocol.send conn.c_fd (Protocol.encode_response resp))

let pong t = Protocol.Pong
    { version; workers = t.d_workers; sessions = Session_cache.length t.d_cache }

(* ------------------------------------------------------------------ *)
(* Solve handling *)

let register_inflight t a =
  Mutex.lock t.d_lock;
  t.d_inflight <- a :: t.d_inflight;
  (* The drain sweep may already have run: joining after it means no
     one will ever set this flag, so inherit the stop state. *)
  if Atomic.get t.d_stop then Atomic.set a true;
  Mutex.unlock t.d_lock

let unregister_inflight t a =
  Mutex.lock t.d_lock;
  t.d_inflight <- List.filter (fun x -> x != a) t.d_inflight;
  Mutex.unlock t.d_lock

(* Per-request solver config: daemon defaults + the request's sparse
   overrides, in one setter chain.  [budget] already folds the request
   deadline into the time limit.  [with_options] range-checks the cut
   knobs and the worker count: Invalid_argument surfaces as a "bad
   request" Error_msg frame. *)
let request_config t ~kstar:k ~budget ~(o : Protocol.overrides) ~interrupt
    ~on_incumbent =
  let open Solver_config in
  let ( |? ) v d = Option.value v ~default:d in
  let cut_families =
    Option.map
      (fun s ->
        match Milp.Cuts.families_of_string s with Ok fs -> fs | Error e -> invalid_arg e)
      o.Protocol.o_cuts
  in
  default |> with_approx ~kstar:k () |> with_time_limit budget
  |> with_options (fun (b : Milp.Branch_bound.options) ->
         {
           b with
           rel_gap = o.Protocol.o_rel_gap |? b.rel_gap;
           presolve = o.Protocol.o_presolve |? b.presolve;
           cut_families = cut_families |? b.cut_families;
           max_applied_cuts = o.Protocol.o_cut_max_applied |? b.max_applied_cuts;
           cut_max_age = o.Protocol.o_cut_max_age |? b.cut_max_age;
           cut_pool_size = o.Protocol.o_cut_pool_size |? b.cut_pool_size;
           cut_min_violation = o.Protocol.o_cut_min_violation |? b.cut_min_violation;
           nworkers =
             (match o.Protocol.o_workers with
             | None | Some 0 -> t.d_workers (* daemon's resolved pool size *)
             | Some n -> n);
           seed = o.Protocol.o_seed |? b.seed;
         })
  |> (if o.Protocol.o_heuristic = Some "tabu" then with_heuristic (tabu ()) else Fun.id)
  |> with_scheduler t.d_sched |> with_interrupt interrupt
  |> match on_incumbent with Some f -> with_on_incumbent f | None -> Fun.id

let result_frame ~(mip : Milp.Branch_bound.result) ~solve_time ~workers
    ~cache_hit ~interrupted =
  if interrupted then
    Protocol.Interrupted
      {
        i_objective = mip.Milp.Branch_bound.objective;
        i_bound = mip.Milp.Branch_bound.bound;
        i_has_incumbent = mip.Milp.Branch_bound.solution <> None;
      }
  else
    Protocol.Result
      {
        r_status = Milp.Status.mip_status_to_string mip.Milp.Branch_bound.status;
        r_objective = mip.Milp.Branch_bound.objective;
        r_bound = mip.Milp.Branch_bound.bound;
        r_nodes = mip.Milp.Branch_bound.nodes;
        r_lp_iterations = mip.Milp.Branch_bound.lp_iterations;
        r_solve_time_s = solve_time;
        r_workers = workers;
        r_cache_hit = cache_hit;
      }

(* Streaming hook: called from worker domains on incumbent
   improvements.  Send failures (client gone) silence the stream but
   never kill the solve. *)
let make_streamer conn ~t_recv =
  let broken = Atomic.make false in
  fun obj bound ->
    if not (Atomic.get broken) then
      try
        send_resp conn
          (Protocol.Update
             {
               u_objective = obj;
               u_bound = bound;
               u_elapsed_s = Clock.now () -. t_recv;
             })
      with Protocol.Bad _ | Unix.Unix_error _ -> Atomic.set broken true

let solve_lp t ~text ~(o : Protocol.overrides) ~budget ~interrupt
    ~on_incumbent =
  match Milp.Lp_reader.parse text with
  | Error e -> Protocol.Error_msg ("LP parse error: " ^ e)
  | Ok model ->
      let cfg =
        request_config t ~kstar:1 ~budget ~o ~interrupt ~on_incumbent
      in
      let options = Solver_config.bb_options cfg in
      let t0 = Clock.now () in
      let mip =
        Milp.Branch_bound.solve ~options ~interrupt ~scheduler:t.d_sched
          ?on_incumbent model
      in
      result_frame ~mip ~solve_time:(Clock.now () -. t0)
        ~workers:options.Milp.Branch_bound.nworkers ~cache_hit:false
        ~interrupted:(Atomic.get interrupt)

let solve_workload t ~name ~kstar ~(o : Protocol.overrides) ~budget ~interrupt
    ~on_incumbent =
  match Workload.find name with
  | Error e -> Protocol.Error_msg e
  | Ok w -> (
      let kstar = max 1 kstar in
      let cfg = request_config t ~kstar ~budget ~o ~interrupt ~on_incumbent in
      let build () =
        match Workload.instance w with
        | Error e -> failwith ("scenario build failed: " ^ e)
        | Ok inst -> (
            match Session.create cfg inst with
            | Error e -> failwith ("encoding failed: " ^ e)
            | Ok s -> { w_session = s; w_kstar = kstar })
      in
      match (try Ok (Session_cache.checkout t.d_cache name ~create:build) with Failure e -> Error e) with
      | Error e -> Protocol.Error_msg e
      | Ok (warm, hit) ->
          let fate = ref `Checkin in
          Fun.protect
            ~finally:(fun () ->
              match !fate with
              | `Checkin -> Session_cache.checkin t.d_cache name warm
              | `Discard -> Session_cache.discard t.d_cache name)
            (fun () ->
              if hit then begin
                Session.reconfigure warm.w_session cfg;
                if kstar > warm.w_kstar then begin
                  match Session.grow warm.w_session ~kstar with
                  | Ok () -> warm.w_kstar <- kstar
                  | Error e -> failwith ("pool extension failed: " ^ e)
                end
              end;
              let outcome =
                try Session.solve warm.w_session
                with ex ->
                  fate := `Discard;
                  raise ex
              in
              result_frame ~mip:outcome.Outcome.mip
                ~solve_time:outcome.Outcome.stats.Outcome.solve_time_s
                ~workers:outcome.Outcome.stats.Outcome.workers ~cache_hit:hit
                ~interrupted:(Atomic.get interrupt)))

let handle_solve t conn payload (o : Protocol.overrides) =
  let t_recv = Clock.now () in
  match Admission.try_acquire t.d_adm with
  | `Busy ->
      send_resp conn
        (Protocol.Rejected "busy: active lane and waiting room are full")
  | `Closed -> send_resp conn (Protocol.Rejected "draining: daemon is shutting down")
  | `Go ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.d_adm)
        (fun () ->
          let interrupt = Atomic.make false in
          register_inflight t interrupt;
          Fun.protect
            ~finally:(fun () -> unregister_inflight t interrupt)
            (fun () ->
              (* The request's wall budget: its own limit (or the daemon
                 default), clipped by the deadline — which started at
                 receipt, so waiting-room time counts against it. *)
              let limit =
                match o.Protocol.o_time_limit with
                | Some s -> s
                | None -> t.d_config.c_time_limit
              in
              let budget =
                match o.Protocol.o_deadline_s with
                | None -> limit
                | Some d -> Float.max 0. (Float.min limit (d -. (Clock.now () -. t_recv)))
              in
              let on_incumbent =
                if o.Protocol.o_stream then Some (make_streamer conn ~t_recv)
                else None
              in
              let resp =
                try
                  match o.Protocol.o_heuristic with
                  | Some h when h <> "tabu" && h <> "off" ->
                      Protocol.Error_msg
                        (Printf.sprintf
                           "unknown heuristic %S (expected \"tabu\" or \"off\")" h)
                  | _ -> (
                  match payload with
                  | Protocol.Lp text ->
                      solve_lp t ~text ~o ~budget ~interrupt ~on_incumbent
                  | Protocol.Workload { name; kstar } ->
                      solve_workload t ~name ~kstar ~o ~budget ~interrupt
                        ~on_incumbent)
                with
                | Failure e -> Protocol.Error_msg e
                | Invalid_argument e -> Protocol.Error_msg ("bad request: " ^ e)
              in
              send_resp conn resp))

(* ------------------------------------------------------------------ *)
(* Connections *)

let rec serve t conn =
  match Protocol.recv conn.c_fd with
  | Ok None -> ()
  | Error e -> logf t "connection dropped: %s" e
  | Ok (Some payload) -> (
      match Protocol.decode_request payload with
      | Error e ->
          send_resp conn (Protocol.Error_msg e);
          serve t conn
      | Ok Protocol.Ping ->
          send_resp conn (pong t);
          serve t conn
      | Ok Protocol.Shutdown ->
          (* Ack, then stop reading: the accept loop notices the flag
             within its select timeout and starts the drain. *)
          send_resp conn (pong t);
          request_shutdown t
      | Ok (Protocol.Solve { payload; overrides }) ->
          handle_solve t conn payload overrides;
          if not (Atomic.get t.d_stop) then serve t conn)

let conn_main t conn =
  (try serve t conn with
  | Protocol.Bad e -> logf t "connection error: %s" e
  | Unix.Unix_error (e, fn, _) -> logf t "connection error: %s: %s" fn (Unix.error_message e));
  Mutex.lock t.d_lock;
  t.d_open <- List.filter (fun c -> c != conn) t.d_open;
  t.d_nconns <- t.d_nconns - 1;
  Mutex.unlock t.d_lock;
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

(* Connection handlers, parked between connections and kept across
   daemons in the process (see Milp.Parking). *)
let handlers = Milp.Parking.create ~spawn:(fun f -> ignore (Thread.create f ()))

let accept_loop t =
  while not (Atomic.get t.d_stop) do
    match Unix.select [ t.d_sock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true t.d_sock with
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _ ->
            let conn = { c_fd = fd; c_wlock = Mutex.create () } in
            Mutex.lock t.d_lock;
            t.d_open <- conn :: t.d_open;
            t.d_nconns <- t.d_nconns + 1;
            Mutex.unlock t.d_lock;
            Milp.Parking.run handlers
              (fun () -> conn_main t conn)
              ~after:
                (Option.iter (fun e ->
                     Printf.eprintf "[archexd] connection handler raised %s\n%!" (Printexc.to_string e))))
  done

let drain t =
  logf t "draining: %d connection(s), %d in-flight solve(s)" t.d_nconns
    (List.length t.d_inflight);
  Admission.close t.d_adm;
  Mutex.lock t.d_lock;
  (* Raise every in-flight search's interrupt: each returns its current
     incumbent and its handler answers with an [Interrupted] frame. *)
  List.iter (fun a -> Atomic.set a true) t.d_inflight;
  (* Then starve idle handlers: shutting down the read side makes their
     blocking [recv] see EOF without disturbing in-flight writes. *)
  List.iter
    (fun c ->
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.d_open;
  Mutex.unlock t.d_lock;
  let deadline = Clock.now () +. t.d_config.c_drain_timeout in
  let rec wait () =
    Mutex.lock t.d_lock;
    let n = t.d_nconns in
    Mutex.unlock t.d_lock;
    if n = 0 then true
    else if Clock.now () > deadline then false
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  let drained = wait () in
  if not drained then
    logf t "drain timeout: %d connection(s) still open" t.d_nconns;
  Milp.Scheduler.shutdown t.d_sched;
  (try Unix.close t.d_sock with Unix.Unix_error _ -> ());
  (try Unix.unlink t.d_config.c_socket with Unix.Unix_error _ -> ());
  let hits, misses = Session_cache.stats t.d_cache in
  logf t "stopped (cache: %d hits, %d misses)" hits misses;
  drained

let run t =
  accept_loop t;
  drain t
