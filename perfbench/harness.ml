(* perfbench: the repository's pinned benchmark.

   One workload per run:

     harness.exe --workload table1-tree|tactical-root|archexd-mix
                 [--seed N] [--seconds S] [--trace 0|1]
     harness.exe --selfcheck

   The untraced run ([--trace 0]) measures the end-to-end metrics; the
   traced run ([--trace 1]) records a span around each call into a
   layer's public function and reports the per-layer metrics.  The last
   line of standard output is one JSON object
   [{"correct", "attempted", "failed", "metrics"}]; a human-readable
   table goes to standard error and the full run record (instances,
   fingerprints, counts, spans, self times) to
   [.perfbench_run/<workload>-seed<N>-trace<T>.json].  See README.md. *)

module BB = Milp.Branch_bound
module P = Server.Protocol

let default_seed = 1
let held_out_seed = 7919
let now = Milp.Clock.now

(* Host-speed calibration of the untraced solve workloads (see
   calib.ml): sampled between operations, while the program is idle. *)
let calib = Calib.create ()
let calibrate_op () = Calib.sample calib ~calls:20

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type report = {
  attempted : int;
  errors : string list;  (** One per failed operation. *)
  guard : string list;  (** Determinism and drain violations. *)
  metrics : metric list;  (** The JSON metrics of this mode. *)
  raw : metric list;  (** The same, as measured, before any rescaling to the reference host speed. *)
  extra : metric list;  (** Further figures for the standard-error table only. *)
  record : (string * Json.t) list;
}

let ms s = 1000. *. s
let p50 = Stats.median
let p90 = Stats.quantile 0.9

(* Relative closeness of the incumbent to the best bound: bound /
   objective for a minimization (the reverse for a maximization), 1 at a
   closed gap. *)
let bound_ratio direction ~objective ~bound =
  if Float.abs objective < 1e-12 then 1.
  else match direction with Milp.Model.Minimize -> bound /. objective | Milp.Model.Maximize -> objective /. bound

let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (tot, cur) (a, b) ->
        match cur with
        | None -> (tot, Some (a, b))
        | Some (ca, cb) -> if a > cb then (tot +. (cb -. ca), Some (a, b)) else (tot, Some (ca, Float.max cb b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* The spans of the layers the benchmark names: the operation's own
   calls, and the probes' extra calls on the same instance.  The
   harness's own work ([certify], [lp_format.fingerprint]) is neither. *)
let operation_spans = [ "scenario.build"; "session.create"; "session.solve"; "client.solve" ]

let probe_spans =
  [
    "path_gen.generate"; "encode.encode"; "presolve.reduce"; "simplex.root_lp"; "branch_bound.root";
    "branch_bound.root_nocuts"; "solution.extract"; "session.grow"; "session.resolve";
  ]

type coverage = { operation : float; probes : float; layers : float }

(* Shares of [wall], the traced time since [since], covered by
   operation spans, by probe spans, and by either. *)
let coverage ~since ~wall =
  let spans = List.filter (fun s -> s.Span.t0 >= since) (Span.all ()) in
  let share names =
    Stats.ratio
      (union_length (List.filter_map (fun s -> if List.mem s.Span.name names then Some (s.Span.t0, s.Span.t1) else None) spans))
      wall
  in
  { operation = share operation_spans; probes = share probe_spans; layers = share (operation_spans @ probe_spans) }

(* ---------- per-layer metrics ---------- *)

type probed = { req : int; solved : Pipeline.solved; probe : Pipeline.probe }

let server_metrics replies =
  let frames =
    List.filter_map
      (fun (r : Daemon_run.reply) -> match r.response with Ok (P.Result i) -> Some (r, i) | _ -> None)
      replies
  in
  [
    m "server.overhead_ms.p50" "ms"
      (p50 (List.map (fun ((r : Daemon_run.reply), i) -> ms (r.latency_s -. i.P.r_solve_time_s)) frames));
    m "server.cache_hit_rate" "ratio"
      (Stats.ratio
         (float_of_int (List.length (List.filter (fun (_, i) -> i.P.r_cache_hit) frames)))
         (float_of_int (List.length frames)));
  ]

let layer_metrics (ps : probed list) ~server ~coverage ~overhead =
  let of_span name = p50 (Span.durations name) in
  let med f = p50 (List.map f ps) in
  let mip p = match p.solved.Pipeline.result with Ok (o, _) -> Some o.Archex.Outcome.mip | Error _ -> None in
  let med_mip f = p50 (List.filter_map (fun p -> Option.map f (mip p)) ps) in
  let solve_s p = Option.value ~default:nan (Span.find ~req:p.req "session.solve") in
  let tree = List.map (fun p -> solve_s p -. p.probe.Pipeline.p_root_s) ps in
  let per_iter x p = Stats.ratio x (float_of_int p.probe.Pipeline.p_root_lp_iters) in
  let lu p = p.probe.Pipeline.p_lu in
  let gap_closed (r : BB.result) =
    let d = r.BB.objective -. r.BB.root_lp_bound in
    if Float.is_nan r.BB.root_cut_bound || Float.abs d < 1e-12 then 0.
    else (r.BB.root_cut_bound -. r.BB.root_lp_bound) /. d
  in
  let grows = List.filter_map (fun p -> p.probe.Pipeline.p_grow_s) ps in
  [
    m "scenario.build_s" "s" (of_span "scenario.build");
    m "path_gen.generate_s" "s" (of_span "path_gen.generate");
    m "path_gen.paths" "count" (med (fun p -> float_of_int p.probe.Pipeline.p_paths));
    m "encode.encode_s" "s" (of_span "encode.encode");
    m "encode.nvars" "count" (med (fun p -> float_of_int p.probe.Pipeline.p_nvars));
    m "encode.nconstrs" "count" (med (fun p -> float_of_int p.probe.Pipeline.p_nconstrs));
    m "presolve.reduce_s" "s" (of_span "presolve.reduce");
    m "presolve.rows_removed" "count" (med (fun p -> float_of_int p.probe.Pipeline.p_rows_removed));
    m "presolve.cols_removed" "count" (med (fun p -> float_of_int p.probe.Pipeline.p_cols_removed));
    m "simplex.root_lp_s" "s" (med (fun p -> p.probe.Pipeline.p_root_lp_s));
    m "simplex.root_lp_iters" "count" (med (fun p -> float_of_int p.probe.Pipeline.p_root_lp_iters));
    m "simplex.us_per_iter" "us" (med (fun p -> per_iter (1e6 *. p.probe.Pipeline.p_root_lp_s) p));
    m "simplex.alloc_words_per_iter" "words" (med (fun p -> per_iter p.probe.Pipeline.p_alloc_words p));
    m "lu.ftran_nnz_per_call" "count"
      (med (fun p -> Stats.ratio (float_of_int (lu p).Milp.Lu.s_ftran_nnz) (float_of_int (lu p).Milp.Lu.s_ftran_calls)));
    m "lu.btran_nnz_per_call" "count"
      (med (fun p -> Stats.ratio (float_of_int (lu p).Milp.Lu.s_btran_nnz) (float_of_int (lu p).Milp.Lu.s_btran_calls)));
    m "lu.factorizations" "count" (med (fun p -> float_of_int (lu p).Milp.Lu.s_factorizations));
    m "branch_bound.root_s" "s" (med (fun p -> p.probe.Pipeline.p_root_s));
    m "cuts.loop_s" "s" (med (fun p -> p.probe.Pipeline.p_root_s -. p.probe.Pipeline.p_root_nocuts_s));
    m "cuts.separated" "count" (med_mip (fun r -> float_of_int r.BB.cuts_separated));
    m "cuts.applied" "count" (med_mip (fun r -> float_of_int r.BB.cuts_applied));
    m "cuts.root_gap_closed" "ratio" (med_mip gap_closed);
    m "branch_bound.tree_s" "s" (p50 tree);
    m "branch_bound.nodes" "count" (med_mip (fun r -> float_of_int r.BB.nodes));
    m "branch_bound.nodes_per_s" "1/s"
      (med (fun p -> match mip p with Some r -> float_of_int r.BB.nodes /. solve_s p | None -> 0.));
    m "branch_bound.lp_iters_per_node" "count"
      (med_mip (fun r -> Stats.ratio (float_of_int r.BB.lp_iterations) (float_of_int (max 1 r.BB.nodes))));
    m "branch_bound.warm_hit_rate" "ratio"
      (med_mip (fun r ->
           Stats.ratio (float_of_int r.BB.lp_warm) (float_of_int (r.BB.lp_warm + r.BB.lp_cold + r.BB.lp_fallback))));
    m "branch_bound.fallback_rate" "ratio"
      (med_mip (fun r -> Stats.ratio (float_of_int r.BB.lp_fallback) (float_of_int (r.BB.lp_warm + r.BB.lp_fallback))));
    m "branch_bound.bound_pruned_frac" "ratio"
      (med_mip (fun r -> Stats.ratio (float_of_int r.BB.bound_pruned) (float_of_int (max 1 r.BB.nodes))));
    m "solution.extract_s" "s" (of_span "solution.extract");
    m "certify.max_violation" "abs"
      (Stats.max_of (List.filter_map (fun p -> match p.solved.Pipeline.result with Ok (_, v) -> Some v | Error _ -> None) ps));
    m "session.grow_s" "s" (if grows = [] then nan else p50 grows);
    m "session.presolve_reapplied_frac" "ratio"
      (Stats.ratio
         (float_of_int (List.length (List.filter (fun p -> p.probe.Pipeline.p_reapplied) ps)))
         (float_of_int (List.length grows)));
    m "session.cuts_seeded" "count" (med (fun p -> float_of_int p.probe.Pipeline.p_seeded));
  ]
  @ server
  @ [
      m "trace.coverage" "ratio" coverage.layers;
      m "trace.operation_frac" "ratio" coverage.operation;
      m "trace.probe_frac" "ratio" coverage.probes;
      m "trace.overhead_frac" "ratio" overhead;
    ]

let span_record () =
  let spans = Span.all () in
  [
    ( "spans",
      Json.List
        (List.map
           (fun s ->
             Json.Obj
               [
                 ("id", Json.Int s.Span.id); ("parent", Json.Int s.Span.parent); ("req", Json.Int s.Span.req);
                 ("name", Json.String s.Span.name); ("start", Json.Float s.Span.t0); ("end", Json.Float s.Span.t1);
               ])
           spans) );
    ( "layer_time",
      Json.List
        (List.map
           (fun (name, n, tot, self) ->
             Json.Obj
               [ ("name", Json.String name); ("count", Json.Int n); ("total_s", Json.Float tot); ("self_s", Json.Float self) ])
           (Span.summary spans)) );
  ]

(* ---------- solve workloads: table1-tree, tactical-root ---------- *)

let instance_record (it : Pipeline.item) fp (s : Pipeline.solved) =
  let base = [ ("id", Json.String it.Pipeline.id); ("kstar", Json.Int it.Pipeline.kstar); ("seed", Json.Int it.Pipeline.seed) ] in
  let fp = match fp with Some f -> [ ("model", Check.fingerprint_json f) ] | None -> [] in
  let res =
    match s.Pipeline.result with
    | Ok (o, viol) ->
        let r = o.Archex.Outcome.mip in
        [
          ("status", Json.String (Milp.Status.mip_status_to_string r.BB.status));
          ("objective", Json.Float r.BB.objective); ("bound", Json.Float r.BB.bound);
          ("nodes", Json.Int r.BB.nodes); ("lp_iterations", Json.Int r.BB.lp_iterations);
          ("max_violation", Json.Float viol); ("latency_s", Json.Float s.Pipeline.latency_s);
        ]
    | Error e -> [ ("error", Json.String e) ]
  in
  Json.Obj (base @ fp @ res)

let solved_errors (it : Pipeline.item) (s : Pipeline.solved) =
  match s.Pipeline.result with Ok _ -> [] | Error e -> [ it.Pipeline.id ^ ": " ^ e ]

(* Each instance is built [setup_reps] times, right before its first
   solve, so the builds sample the host over the same window as the
   calibration bursts.  [setup_s] is the median over the reps of the
   batch's total build time. *)
let setup_reps = 3

let counts_of items solved =
  Array.to_list (Array.map2 (fun (it : Pipeline.item) s -> let n, i = Pipeline.counts s in (it.Pipeline.id, n, i)) items solved)

let guard_errors ~workload ~seed counts =
  List.map (fun e -> "determinism: " ^ e) (Check.counts_guard ~workload ~seed counts)

let solve_untraced ~workload ~seed ~seconds (items : Pipeline.item array) =
  let builds = Array.make setup_reps 0. and insts = Array.make (Array.length items) None in
  let instance i =
    match insts.(i) with
    | Some inst -> inst
    | None ->
        let inst = ref None in
        for r = 0 to setup_reps - 1 do
          let t0 = now () in
          inst := Some (Pipeline.build_instance items.(i));
          builds.(r) <- builds.(r) +. (now () -. t0)
        done;
        insts.(i) <- !inst;
        Option.get !inst
  in
  let t_start = now () in
  let passes = ref [] in
  let rec loop () =
    let t0 = now () in
    let book = ref 0. in
    let solved =
      Array.mapi
        (fun i it ->
          let tb = now () in
          let inst = instance i in
          book := !book +. (now () -. tb);
          let s = Pipeline.solve ~req:(i + 1) it inst in
          let tb = now () in
          calibrate_op ();
          let fp =
            match (!passes, s.Pipeline.result) with
            | [], Ok (o, _) -> Some (Check.fingerprint o.Archex.Outcome.model)
            | _ -> None
          in
          book := !book +. (now () -. tb);
          ({ s with Pipeline.session = None }, fp))
        items
    in
    let wall = now () -. t0 -. !book in
    passes := (solved, wall) :: !passes;
    if now () -. t_start +. wall <= seconds then loop ()
  in
  loop ();
  let passes = List.rev !passes in
  let first = fst (List.hd passes) in
  let all = List.concat_map (fun (s, _) -> Array.to_list (Array.map fst s)) passes in
  let setup_s = p50 (Array.to_list builds) in
  (* Times are rescaled by the host speed measured between the
     operations. *)
  let op_factor = Calib.factor calib in
  let errors =
    List.concat_map (fun (s, _) -> List.concat (Array.to_list (Array.map2 (fun it (x, _) -> solved_errors it x) items s))) passes
  in
  (* Determinism: every pass, and a re-solve of the first instances
     after the timed passes, must reproduce the first pass's counts. *)
  let counts0 = counts_of items (Array.map fst first) in
  let mismatch =
    List.concat_map
      (fun (s, _) ->
        List.filter_map
          (fun ((id, n, i), (_, n', i')) ->
            if n <> n' || i <> i' then Some (Printf.sprintf "determinism: %s: %d/%d nodes/iterations, then %d/%d" id n i n' i')
            else None)
          (List.combine counts0 (counts_of items (Array.map fst s))))
      (List.tl passes)
  in
  let recheck =
    List.filter_map
      (fun i ->
        if i >= Array.length items then None
        else
          let s = Pipeline.solve ~req:0 items.(i) (instance i) in
          let id, n, it = List.nth counts0 i in
          let n', it' = Pipeline.counts s in
          if n <> n' || it <> it' then
            Some (Printf.sprintf "determinism: %s: %d/%d nodes/iterations, re-solve %d/%d" id n it n' it')
          else None)
      [ 0; 1 ]
  in
  let guard = guard_errors ~workload ~seed counts0 in
  let ok =
    List.filter_map
      (fun (s : Pipeline.solved) -> match s.Pipeline.result with Ok (o, _) -> Some (s, o) | Error _ -> None)
      all
  in
  let ratio (o : Archex.Outcome.t) =
    bound_ratio (fst (Milp.Model.objective o.Archex.Outcome.model)) ~objective:o.Archex.Outcome.mip.BB.objective
      ~bound:o.Archex.Outcome.mip.BB.bound
  in
  let batch_s = p50 (List.map snd passes) in
  let rss = Check.peak_rss_mb () in
  let metrics ~op =
    let lat = List.map (fun s -> op *. s.Pipeline.latency_s) all in
    [
      m "setup_s" "s" (op *. setup_s);
      m "batch_s" "s" (op *. batch_s);
      m "latency_ms.p50" "ms" (ms (p50 lat));
      m "latency_ms.p90" "ms" (ms (p90 lat));
      m "first_incumbent_s.p50" "s" (p50 (List.map (fun (s, _) -> op *. s.Pipeline.first_incumbent_s) ok));
      m "bound_ratio.p50" "ratio" (p50 (List.map (fun (_, o) -> ratio o) ok));
      m "peak_rss_mb" "MB" rss;
    ]
  in
  {
    attempted = List.length all;
    errors;
    guard = mismatch @ recheck @ guard;
    metrics = metrics ~op:op_factor;
    raw = metrics ~op:1.;
    extra =
      [
        m "solve_s.p50" "s" (op_factor *. p50 (List.map (fun s -> s.Pipeline.latency_s) all));
        m "final_gap.p50" "ratio" (p50 (List.map (fun (_, o) -> BB.gap o.Archex.Outcome.mip) ok));
        m "req_per_s" "1/s" (Stats.ratio (float_of_int (Array.length items)) (op_factor *. batch_s));
        m "passes" "count" (float_of_int (List.length passes));
        m "instances" "count" (float_of_int (Array.length items));
        m "nodes.p50" "count" (p50 (List.map (fun (_, o) -> float_of_int o.Archex.Outcome.mip.BB.nodes) ok));
      ];
    record =
      [
        ( "instances",
          Json.List (Array.to_list (Array.map2 (fun it (s, fp) -> instance_record it fp s) items first)) );
      ];
  }

(* ---------- daemon passes (archexd-mix and the server probe) ---------- *)

let reply_record ((r : Daemon_run.reply), outcome) =
  let q = r.Daemon_run.request in
  Json.Obj
    ([
       ("name", Json.String q.Workloads.q_name); ("kstar", Json.Int q.Workloads.q_kstar);
       ("kind", Json.String (Workloads.kind_name q.Workloads.q_kind)); ("latency_s", Json.Float r.Daemon_run.latency_s);
     ]
    @
    match (r.Daemon_run.response, outcome) with
    | Ok (P.Result i), Ok _ ->
        [
          ("status", Json.String i.P.r_status); ("objective", Json.Float i.P.r_objective);
          ("bound", Json.Float i.P.r_bound); ("nodes", Json.Int i.P.r_nodes);
          ("lp_iterations", Json.Int i.P.r_lp_iterations); ("cache_hit", Json.Bool i.P.r_cache_hit);
        ]
    | _, Error e -> [ ("error", Json.String e) ]
    | _ -> [])

let reply_errors checked =
  List.filter_map
    (fun ((r : Daemon_run.reply), o) ->
      match o with
      | Error e ->
          Some (Printf.sprintf "request %d (%s K*=%d): %s" r.Daemon_run.index r.Daemon_run.request.Workloads.q_name
                  r.Daemon_run.request.Workloads.q_kstar e)
      | Ok _ -> None)
    checked

(* One pass: a fresh daemon serving the whole stream. *)
type pass = {
  checked : (Daemon_run.reply * (P.result_info, string) result) list;
  wall : float;  (** Serving wall time. *)
  stalls : string list;  (** Requests the daemon never answered. *)
  leak : string list;  (** A drain that did not finish. *)
}

let daemon_pass sweeps =
  let d, _ = Daemon_run.start () in
  let replies, wall, stalled = Daemon_run.serve d sweeps in
  let flat = Array.concat (Array.to_list sweeps) in
  let stalls =
    List.map
      (fun i ->
        let q = flat.(i) in
        Printf.sprintf "request %d (%s K*=%d, %s): no reply within %.0f s, daemon stalled" i q.Workloads.q_name
          q.Workloads.q_kstar (Workloads.kind_name q.Workloads.q_kind) Daemon_run.stall_s)
      stalled
  in
  (* A stalled daemon cannot drain; it is abandoned to process exit. *)
  let leak = if stalled <> [] || Daemon_run.stop d then [] else [ "daemon drain leaked" ] in
  { checked = Daemon_run.check replies; wall; stalls; leak }

(* Set by the self-check to shrink the server probe. *)
let server_probe_requests = ref 12

(* The catalogue, registered, and seeded sweeps of at least [n] requests over it. *)
let mix_requests ~seed n =
  let entries = Workloads.catalogue in
  Workloads.register entries;
  (entries, Workloads.stream ~seed ~capacity:Daemon_run.capacity entries n)

(* A short archexd-mix stream, so every traced run measures the serving
   layers too. *)
let server_probe ~seed =
  let _, sweeps = mix_requests ~seed !server_probe_requests in
  let p = daemon_pass sweeps in
  let errors = List.map (fun e -> "server probe: " ^ e) (reply_errors p.checked @ p.stalls @ p.leak) in
  (List.map fst p.checked, errors)

(* One traced operation plus its layer probes. *)
let traced_op ~req (it : Pipeline.item) =
  Span.record ~req "op" (fun op ->
      let inst = Span.record ~parent:op ~req "scenario.build" (fun _ -> Pipeline.build_instance it) in
      let s = Pipeline.solve ~parent:op ~req it inst in
      let probe = Pipeline.probe ~parent:op ~req it inst s in
      (s, probe))

type op = {
  req : int;
  item : Pipeline.item;
  solved : Pipeline.solved;
  fp : Check.fingerprint option;
  probe : (Pipeline.probe, string) result;
  twin : Pipeline.solved option;  (** The same operation, solved untraced next to it. *)
}

(* Run [f] with span recording off. *)
let untraced f =
  Span.enabled := false;
  Fun.protect ~finally:(fun () -> Span.enabled := true) f

(* Traced operations with their probes, until [budget] is spent (at
   least two), then their model fingerprints, untraced.  Operations
   listed in [twins] are also solved untraced right next to the traced
   one, alternating which goes first: the tracing-overhead baseline and
   the traced/untraced determinism check.  The returned wall time
   excludes the twins and the fingerprints.  Operation ids start at
   [first_req], above any request id of the same run. *)
let traced_ops ?(first_req = 1) ?(twins = []) ~budget items =
  let t0 = now () in
  let twin_time = ref 0. in
  let twin it =
    let t = now () in
    let s = untraced (fun () -> Pipeline.solve ~req:0 it (Pipeline.build_instance it)) in
    twin_time := !twin_time +. (now () -. t);
    Some s
  in
  let rec go i acc =
    if i >= Array.length items || (i >= 2 && now () -. t0 -. !twin_time >= budget) then List.rev acc
    else
      let req = first_req + i and item = items.(i) in
      let paired = List.mem i twins in
      let before = if paired && i mod 2 = 0 then twin item else None in
      let solved, probe = traced_op ~req item in
      let twin = if paired && i mod 2 = 1 then twin item else before in
      go (i + 1) ({ req; item; solved; fp = None; probe; twin } :: acc)
  in
  let ops = go 0 [] in
  let wall = now () -. t0 -. !twin_time in
  let fingerprint o =
    match o.solved.Pipeline.result with
    | Ok (out, _) -> { o with fp = Some (Check.fingerprint out.Archex.Outcome.model) }
    | Error _ -> o
  in
  (untraced (fun () -> List.map fingerprint ops), t0, wall)

let probe_errors ops =
  List.concat_map
    (fun o ->
      solved_errors o.item o.solved @ match o.probe with Error e -> [ o.item.Pipeline.id ^ ": " ^ e ] | Ok _ -> [])
    ops

let probed ops =
  List.filter_map
    (fun o -> match o.probe with Ok probe -> Some { req = o.req; solved = o.solved; probe } | Error _ -> None)
    ops

let twin_ops = [ 1; 2; 3; 4 ]

let solve_traced ~workload ~seed ~seconds (items : Pipeline.item array) =
  Span.reset ();
  Span.enabled := true;
  let ops, since, wall = traced_ops ~twins:twin_ops ~budget:seconds items in
  let cover = coverage ~since ~wall in
  let replies, server_errors = server_probe ~seed in
  Span.enabled := false;
  let pairs = List.filter_map (fun o -> Option.map (fun u -> (o, u)) o.twin) ops in
  let overhead =
    Stats.ratio
      (Stats.sum (List.map (fun (o, _) -> o.solved.Pipeline.latency_s) pairs))
      (Stats.sum (List.map (fun (_, (u : Pipeline.solved)) -> u.Pipeline.latency_s) pairs))
    -. 1.
  in
  let mismatch =
    List.filter_map
      (fun (o, u) ->
        if Pipeline.counts o.solved <> Pipeline.counts u then
          Some (Printf.sprintf "determinism: %s: traced and untraced counts differ" o.item.Pipeline.id)
        else None)
      pairs
  in
  let counts = List.map (fun o -> let n, i = Pipeline.counts o.solved in (o.item.Pipeline.id, n, i)) ops in
  let guard = guard_errors ~workload ~seed counts in
  let ps = probed ops in
  {
    attempted = List.length ops + List.length replies;
    errors = probe_errors ops @ server_errors;
    guard = mismatch @ guard;
    metrics = layer_metrics ps ~server:(server_metrics replies) ~coverage:cover ~overhead;
    raw = [];
    extra = [ m "traced_ops" "count" (float_of_int (List.length ops)); m "traced_wall_s" "s" wall ];
    record =
      ("instances", Json.List (List.map (fun o -> instance_record o.item o.fp o.solved) ops)) :: span_record ();
  }

(* ---------- archexd-mix ---------- *)

let stream_length = ref 2400

(* Daemon starts timed before the passes, and as many after them. *)
let daemon_setup_reps = 8

let daemon_setup () =
  List.init daemon_setup_reps (fun _ ->
      let d, setup = Daemon_run.start () in
      ignore (Daemon_run.stop d);
      setup)

let daemon_untraced ~seed ~seconds =
  let _, sweeps = mix_requests ~seed !stream_length in
  let setups = daemon_setup () in
  let t_start = now () in
  let rec loop acc =
    let p = daemon_pass sweeps in
    let acc = p :: acc in
    if p.stalls = [] && now () -. t_start +. p.wall <= seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  let setup_s = p50 (setups @ daemon_setup ()) in
  let checked = List.concat_map (fun p -> p.checked) passes in
  let frames =
    List.filter_map (fun (_, o) -> match o with Ok i -> Some i | Error _ -> None) checked
  in
  let batch_s = p50 (List.map (fun p -> p.wall) passes) in
  let each f = List.map (fun ((r : Daemon_run.reply), _) -> f r) checked in
  let requests = Workloads.requests sweeps in
  (* Per request kind, so a change can be attributed to one. *)
  let by_kind =
    List.concat_map
      (fun kind ->
        let lat =
          List.filter_map
            (fun ((r : Daemon_run.reply), _) ->
              if r.Daemon_run.request.Workloads.q_kind = kind then Some (ms r.Daemon_run.latency_s) else None)
            (match passes with p :: _ -> p.checked | [] -> [])
        in
        let name = Workloads.kind_name kind in
        [ m ("requests." ^ name) "count" (float_of_int (List.length lat)); m ("latency_ms." ^ name ^ ".p50") "ms" (p50 lat) ])
      Workloads.[ Cold; Grow; Read ]
  in
  (* Not rescaled: the daemon's two pool domains and handler threads
     track the single-threaded calibration kernel poorly (over ten runs
     with kernel bursts before and after the passes, log-log slopes of
     0.12-0.61 at correlations of 0.12-0.63). *)
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "batch_s" "s" batch_s;
      m "latency_ms.p50" "ms" (ms (p50 (each (fun r -> r.Daemon_run.latency_s))));
      m "latency_ms.p90" "ms" (ms (p90 (each (fun r -> r.Daemon_run.latency_s))));
      m "first_incumbent_s.p50" "s" (p50 (each (fun r -> r.Daemon_run.first_frame_s)));
      m "bound_ratio.p50" "ratio"
        (p50 (List.map (fun i -> bound_ratio Milp.Model.Minimize ~objective:i.P.r_objective ~bound:i.P.r_bound) frames));
      m "peak_rss_mb" "MB" (Check.peak_rss_mb ());
    ]
  in
  {
    attempted = List.length checked + List.length (List.concat_map (fun p -> p.stalls) passes);
    errors = reply_errors checked @ List.concat_map (fun p -> p.stalls) passes;
    guard = List.concat_map (fun p -> p.leak) passes;
    metrics;
    raw = metrics;
    extra =
      [
        m "req_per_s" "1/s" (Stats.ratio (float_of_int requests) batch_s);
        m "requests" "count" (float_of_int requests);
        m "sweeps" "count" (float_of_int (Array.length sweeps));
        m "passes" "count" (float_of_int (List.length passes));
        m "cache_hit_rate" "ratio"
          (Stats.ratio (float_of_int (List.length (List.filter (fun i -> i.P.r_cache_hit) frames)))
             (float_of_int (List.length frames)));
      ]
      @ by_kind;
    record =
      [ ("requests", Json.List (List.map reply_record (match passes with p :: _ -> p.checked | [] -> []))) ];
  }

(* The overhead baseline: the stream's first sweeps (at least this many
   requests) served untraced on a fresh daemon, once before and once
   after the traced pass. *)
let twin_requests = 200

let daemon_traced ~seed ~seconds =
  let entries, sweeps = mix_requests ~seed !stream_length in
  let prefix = Workloads.prefix sweeps twin_requests in
  let prefix_n = Workloads.requests prefix in
  let before = daemon_pass prefix in
  Span.reset ();
  Span.enabled := true;
  let since = now () in
  let traced = daemon_pass sweeps in
  (* Layer probes on one Table-1 and one tactical catalogue entry. *)
  let probe_items =
    List.filteri (fun i _ -> i = 0 || i = List.length entries - 1) entries
    |> List.map (fun e -> e.Workloads.e_item)
    |> Array.of_list
  in
  let ops, t0, wall = traced_ops ~first_req:(Workloads.requests sweeps + 1) ~budget:seconds probe_items in
  let cover = coverage ~since ~wall:(t0 +. wall -. since) in
  Span.enabled := false;
  let after = daemon_pass prefix in
  let prefix_latency (p : pass) =
    Stats.sum
      (List.filter_map
         (fun ((r : Daemon_run.reply), _) ->
           if r.Daemon_run.index < prefix_n then Some r.Daemon_run.latency_s else None)
         p.checked)
  in
  let overhead =
    Stats.ratio (prefix_latency traced) ((prefix_latency before +. prefix_latency after) /. 2.) -. 1.
  in
  let passes = [ before; traced; after ] in
  {
    attempted =
      List.length ops + List.fold_left (fun n p -> n + List.length p.checked + List.length p.stalls) 0 passes;
    errors = List.concat_map (fun p -> reply_errors p.checked @ p.stalls) passes @ probe_errors ops;
    guard = List.concat_map (fun p -> p.leak) passes;
    metrics =
      layer_metrics (probed ops) ~server:(server_metrics (List.map fst traced.checked)) ~coverage:cover ~overhead;
    raw = [];
    extra = [ m "requests" "count" (float_of_int (Workloads.requests sweeps)); m "traced_wall_s" "s" traced.wall ];
    record = ("requests", Json.List (List.map reply_record traced.checked)) :: span_record ();
  }

(* ---------- workloads, output, entry point ---------- *)

(* Instances per table1-tree / tactical-root batch and requests per
   archexd-mix stream: one pass fills most of a 30 s run on a 2-thread
   x86-64 host. *)
let table1_batch = 120
let table1_pool = 132
let tactical_batch = 36
let tactical_pool = 40

let workloads = [ "table1-tree"; "tactical-root"; "archexd-mix" ]

let run ~workload ~seed ~seconds ~trace =
  let solve items =
    if trace then solve_traced ~workload ~seed ~seconds items else solve_untraced ~workload ~seed ~seconds items
  in
  match workload with
  | "table1-tree" ->
      solve
        (Array.map
           (Workloads.table1_item ~kstar:Workloads.table1_kstar)
           (Workloads.draw ~seed ~salt:1 ~pool:table1_pool table1_batch))
  | "tactical-root" ->
      solve
        (Array.map
           (Workloads.tactical_item ~sensors:Workloads.tactical_sensors ~grid:Workloads.tactical_grid
              ~nodes:Workloads.tactical_nodes)
           (Workloads.draw ~seed ~salt:2 ~pool:tactical_pool tactical_batch))
  | "archexd-mix" -> if trace then daemon_traced ~seed ~seconds else daemon_untraced ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w ^ " (expected " ^ String.concat ", " workloads ^ ")")

let with_calibration r =
  let calibrated =
    if calib.Calib.calls = 0 then []
    else [ m "host_speed_factor" "ratio" (Calib.factor calib); m "calibration_calls" "count" (float_of_int calib.Calib.calls) ]
  in
  {
    r with
    extra = r.extra @ calibrated;
    record = ("raw_metrics", Json.Obj (List.map (fun x -> (x.m_name, Json.Float x.m_value)) r.raw)) :: r.record;
  }

let nonfinite r =
  List.filter_map
    (fun x -> if Float.is_finite x.m_value then None else Some ("metric " ^ x.m_name ^ " is not finite"))
    r.metrics

let result_json r =
  let problems = r.errors @ r.guard @ nonfinite r in
  Json.Obj
    [
      ("correct", Json.Bool (problems = []));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int (List.length r.errors));
      ( "metrics",
        Json.Obj
          (List.map
             (fun x -> (x.m_name, Json.Obj [ ("value", Json.Float (if Float.is_finite x.m_value then x.m_value else 0.)); ("unit", Json.String x.m_unit) ]))
             r.metrics) );
    ]

let print_table ~title r =
  Printf.eprintf "%s\n" title;
  List.iter (fun x -> Printf.eprintf "  %-34s %16.6g %s\n" x.m_name x.m_value x.m_unit) (r.metrics @ r.extra);
  Printf.eprintf "  %-34s %16.6g ratio\n" "failed_frac"
    (Stats.ratio (float_of_int (List.length r.errors)) (float_of_int r.attempted));
  List.iter (fun e -> Printf.eprintf "  FAIL %s\n" e) (r.errors @ r.guard @ nonfinite r);
  flush stderr

let write_record ~workload ~seed ~seconds ~trace r =
  Check.ensure_run_dir ();
  let file =
    Filename.concat Check.run_dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0))
  in
  let oc = open_out file in
  output_string oc
    (Json.to_string
       (Json.Obj
          ([
             ("workload", Json.String workload); ("seed", Json.Int seed); ("seconds", Json.Float seconds);
             ("trace", Json.Bool trace); ("result", result_json r);
             ("extra", Json.Obj (List.map (fun x -> (x.m_name, Json.Float x.m_value)) r.extra));
             ("failures", Json.List (List.map (fun e -> Json.String e) (r.errors @ r.guard)));
           ]
          @ r.record)));
  close_out oc

(* ---------- self-check: every workload at tiny sizes ---------- *)

(* The metric names [file] (BENCHMARK.json) lists for one mode, in order. *)
let bench_names ~file ~trace =
  let ic = open_in_bin file in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.member (if trace then "per_layer" else "end_to_end") (Json.parse text) with
  | Some (Json.List ms) ->
      List.map (fun x -> match Json.member "name" x with Some (Json.String n) -> n | _ -> failwith (file ^ ": unnamed metric")) ms
  | _ -> failwith (file ^ ": no metric list")

let selfcheck ~bench =
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.eprintf "selfcheck FAIL: %s\n%!" what
    end
  in
  let seed = 3 in
  server_probe_requests := 6;
  stream_length := 10;
  let table1 = Array.map (Workloads.table1_item ~kstar:2) (Workloads.draw ~seed ~salt:1 ~pool:8 2) in
  let tactical =
    Array.map (Workloads.tactical_item ~sensors:3 ~grid:(6, 3) ~nodes:20) (Workloads.draw ~seed ~salt:2 ~pool:8 2)
  in
  let e2e_names = bench_names ~file:bench ~trace:false and layer_names = bench_names ~file:bench ~trace:true in
  let runs =
    [
      ("table1 untraced", e2e_names, fun () -> solve_untraced ~workload:"selfcheck-table1" ~seed ~seconds:0. table1);
      ("table1 traced", layer_names, fun () -> solve_traced ~workload:"selfcheck-table1" ~seed ~seconds:0. table1);
      ("tactical untraced", e2e_names, fun () -> solve_untraced ~workload:"selfcheck-tactical" ~seed ~seconds:0. tactical);
      ("tactical traced", layer_names, fun () -> solve_traced ~workload:"selfcheck-tactical" ~seed ~seconds:0. tactical);
      ("daemon untraced", e2e_names, fun () -> daemon_untraced ~seed ~seconds:0.);
      ("daemon traced", layer_names, fun () -> daemon_traced ~seed ~seconds:0.);
    ]
  in
  List.iter
    (fun (title, names, f) ->
      let r = f () in
      if r.errors <> [] || r.guard <> [] then print_table ~title r;
      expect (title ^ ": failures") (r.errors = [] && r.guard = []);
      expect (title ^ ": metric names") (List.map (fun x -> x.m_name) r.metrics = names);
      expect (title ^ ": finite metrics") (nonfinite r = []);
      expect (title ^ ": attempted") (r.attempted > 0))
    runs;
  (* The certifier must reject doctored outcomes. *)
  let it = table1.(0) in
  let inst = Pipeline.build_instance it in
  (match (Pipeline.solve ~req:0 it inst).Pipeline.result with
  | Error e -> expect ("reference solve: " ^ e) false
  | Ok (o, _) ->
      let mip = o.Archex.Outcome.mip in
      let doctor f = { o with Archex.Outcome.mip = f mip } in
      let rejects what o' =
        expect what (Result.is_error (Check.outcome ~require_optimal:false ~options:BB.default_options inst o'))
      in
      rejects "wrong objective" (doctor (fun r -> { r with BB.objective = r.BB.objective +. 1. }));
      rejects "bound beating objective" (doctor (fun r -> { r with BB.bound = r.BB.objective +. 1. }));
      rejects "optimal with open gap" (doctor (fun r -> { r with BB.bound = r.BB.objective -. 1. }));
      rejects "infeasible incumbent"
        (doctor (fun r -> { r with BB.solution = Option.map (Array.map (fun _ -> 0.)) r.BB.solution })));
  let frame status objective bound =
    {
      P.r_status = status; r_objective = objective; r_bound = bound; r_nodes = 1; r_lp_iterations = 1;
      r_solve_time_s = 0.; r_workers = 1; r_cache_hit = false;
    }
  in
  expect "frame: closed optimal accepted" (Check.result_frame ~rel_gap:1e-6 (frame "optimal" 10. 10.) = Ok ());
  expect "frame: bound above objective" (Result.is_error (Check.result_frame ~rel_gap:1e-6 (frame "optimal" 10. 11.)));
  expect "frame: open optimal" (Result.is_error (Check.result_frame ~rel_gap:1e-6 (frame "optimal" 10. 9.)));
  expect "frame: not optimal" (Result.is_error (Check.result_frame ~rel_gap:1e-6 (frame "feasible" 10. 9.)));
  expect "quantile" (Stats.quantile 0.5 [ 4.; 1.; 3.; 2. ] = 2.5 && Stats.quantile 0.9 [ 1. ] = 1.);
  expect "stream: increasing K* sweeps holding every kind"
    (let sweeps = Workloads.stream ~seed ~capacity:4 Workloads.catalogue 100 in
     let all = Array.concat (Array.to_list sweeps) in
     let sweep_ok sw =
       Array.length sw >= 2
       && List.for_all
            (fun j ->
              sw.(j + 1).Workloads.q_name = sw.(j).Workloads.q_name
              && sw.(j + 1).Workloads.q_kstar = sw.(j).Workloads.q_kstar + 1)
            (List.init (Array.length sw - 1) Fun.id)
     in
     Array.length all >= 100
     && Array.for_all sweep_ok sweeps
     && List.for_all (fun k -> Array.exists (fun q -> q.Workloads.q_kind = k) all) Workloads.[ Cold; Grow; Read ]);
  if !failures = 0 then prerr_endline "selfcheck: OK" else exit 1

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30. and trace = ref 0 and self = ref false in
  let bench = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, Printf.sprintf " workload seed (default %d; held-out seed %d)" default_seed held_out_seed);
      ("--seconds", Arg.Set_float seconds, " measuring time per run (default 30)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics from the traced run");
      ("--selfcheck", Arg.Set self, " run every workload at tiny sizes and check the harness itself");
      ("--bench", Arg.Set_string bench, " BENCHMARK.json whose metric names --selfcheck expects (default ./BENCHMARK.json)");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "harness.exe [options]";
  if !self then selfcheck ~bench:!bench
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("--workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    let trace = !trace = 1 in
    let r = run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace in
    let r = with_calibration r in
    write_record ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace r;
    print_table ~title:(Printf.sprintf "%s seed %d (%s)" !workload !seed (if trace then "traced" else "untraced")) r;
    let j = result_json r in
    print_endline (Json.to_string j);
    if r.errors <> [] || r.guard <> [] || nonfinite r <> [] then exit 1
  end
