(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DAC'18, §4), plus the ablations called out in DESIGN.md
   and Bechamel micro-benchmarks of the hot kernels.

   Instance sizes are scaled relative to the paper (pure-OCaml B&B vs.
   CPLEX on a workstation; see DESIGN.md §2): the claims under test are
   the *shapes* — who wins, by what order of magnitude, where the
   K*-tradeoff bends — not absolute numbers.

   Run with:   dune exec bench/main.exe            (all sections)
               dune exec bench/main.exe -- table3  (one section)
   Sections: table1 table2 table3 table4 parallel kernel2 presolve
             figures ablations micro daemon scenarios cuts

   The sweep (BENCH_PR3.json) and kernel (BENCH_PR5.json) sections
   measured ablations that have since been retired; their JSON stays
   as an archive. *)

open Archex

(* Flags start with "--"; anything else selects a section.
   [--cold-start] forces every branch & bound LP to a cold two-phase
   solve (the warm-start ablation); [--no-rc-fixing] disables
   reduced-cost fixing.  Running
   the same sections with and without the flags measures each feature
   against identical scenarios.  [--workers=N] runs every table section
   with N worker domains ([parallel] always sweeps its own worker
   counts); [--seed=N] sets the diversification seed. *)
let flags, sections =
  List.partition
    (fun a -> String.length a >= 2 && String.sub a 0 2 = "--")
    (List.tl (Array.to_list Sys.argv))

let cold_start = List.mem "--cold-start" flags
let no_rc_fixing = List.mem "--no-rc-fixing" flags

let arg_str name default =
  List.fold_left
    (fun acc f ->
      match String.index_opt f '=' with
      | Some i when String.sub f 0 i = name ->
          String.sub f (i + 1) (String.length f - i - 1)
      | Some _ | None -> acc)
    default flags

(* [--cuts=gmi,cover,...] restricts separation to the listed families
   ("all"/"none" accepted; "none" turns cutting planes off).  The
   [cuts] section always sweeps each family. *)
let cut_families =
  match Milp.Cuts.families_of_string (arg_str "--cuts" "all") with
  | Ok fs -> fs
  | Error e -> (prerr_endline ("bench: " ^ e); exit 2)

let arg_int name default =
  List.fold_left
    (fun acc f ->
      match String.index_opt f '=' with
      | Some i when String.sub f 0 i = name -> (
          match int_of_string_opt (String.sub f (i + 1) (String.length f - i - 1)) with
          | Some v -> v
          | None -> acc)
      | Some _ | None -> acc)
    default flags

let nworkers = arg_int "--workers" 1
let seed = arg_int "--seed" 0

(* [--pricing=dantzig] runs every LP with the PR5 partial candidate-list
   Dantzig scan instead of devex (the [kernel2] section always sweeps
   both); [--no-harris] swaps the Harris/bound-flipping ratio tests for
   the classic smallest-ratio ones. *)
let pricing =
  if List.mem "--pricing=dantzig" flags then Milp.Simplex.Dantzig else Milp.Simplex.Devex

let no_harris = List.mem "--no-harris" flags

(* [--no-presolve] skips the PR7 presolve reduction stack and hands the
   solver the model verbatim (the [presolve] section always sweeps
   template / per-step / off). *)
let no_presolve = List.mem "--no-presolve" flags

let mode =
  String.concat "+"
    (List.filter
       (fun s -> s <> "")
       [
         (if cold_start then "cold-start" else "warm-start");
         (if cut_families = [] then "no-cuts"
          else if cut_families = Milp.Cuts.all_families then "cuts"
          else "cuts:" ^ Milp.Cuts.families_to_string cut_families);
         (if no_rc_fixing then "no-rc-fixing" else "rc-fixing");
         (if pricing = Milp.Simplex.Dantzig then "dantzig" else "");
         (if no_harris then "no-harris" else "");
         (if no_presolve then "no-presolve" else "");
         (if nworkers > 1 then Printf.sprintf "workers%d" nworkers else "");
       ])

let section_enabled name = match sections with [] -> true | l -> List.mem name l

(* Every table section funnels through this one constructor, so the
   ablation flags and worker count apply uniformly.  Each group of
   toggles is assembled as one record and installed with a single group
   setter, instead of chaining the deprecated flat aliases. *)
let config ?(workers = nworkers) ~time_limit ~rel_gap strategy =
  Solver_config.(
    default
    |> with_strategy strategy
    |> with_time_limit time_limit
    |> with_rel_gap rel_gap
    |> with_kernel
         {
           default.kernel with
           k_warm_start = not cold_start;
           k_cut_families = cut_families;
           k_rc_fixing = not no_rc_fixing;
           k_pricing = pricing;
           k_harris = not no_harris;
         }
    |> with_presolving { default.presolve with ps_enabled = not no_presolve }
    |> with_parallelism
         { default.parallel with par_workers = workers; par_seed = seed })

(* ------------------------------------------------------------------ *)
(* Machine-readable per-scenario log -> BENCH_PR2.json                  *)
(* ------------------------------------------------------------------ *)

type bench_entry = {
  be_scenario : string;
  be_wall_s : float;
  be_status : string;
  be_objective : float;
  be_nodes : int;
  be_lp_iterations : int;
  be_lp_warm : int;
  be_lp_cold : int;
  be_lp_fallback : int;
  be_cuts_separated : int;
  be_cuts_applied : int;
  be_cuts_evicted : int;
  be_rc_fixed : int;
  be_root_lp_bound : float;
  be_root_cut_bound : float;
}

let bench_log : bench_entry list ref = ref []

let record scenario (out : Outcome.t) wall =
  let mip = out.Outcome.mip in
  bench_log :=
    {
      be_scenario = scenario;
      be_wall_s = wall;
      be_status = Milp.Status.mip_status_to_string out.Outcome.status;
      be_objective = mip.Milp.Branch_bound.objective;
      be_nodes = mip.Milp.Branch_bound.nodes;
      be_lp_iterations = mip.Milp.Branch_bound.lp_iterations;
      be_lp_warm = mip.Milp.Branch_bound.lp_warm;
      be_lp_cold = mip.Milp.Branch_bound.lp_cold;
      be_lp_fallback = mip.Milp.Branch_bound.lp_fallback;
      be_cuts_separated = mip.Milp.Branch_bound.cuts_separated;
      be_cuts_applied = mip.Milp.Branch_bound.cuts_applied;
      be_cuts_evicted = mip.Milp.Branch_bound.cuts_evicted;
      be_rc_fixed = mip.Milp.Branch_bound.rc_fixed;
      be_root_lp_bound = mip.Milp.Branch_bound.root_lp_bound;
      be_root_cut_bound = mip.Milp.Branch_bound.root_cut_bound;
    }
    :: !bench_log

(* JSON has no literal for non-finite floats, and emitting the strings
   "inf"/"nan" (as this used to) type-confuses downstream tooling — a
   numeric field must be a number or null.  nan means "not measured"
   (e.g. a root bound when the root LP did not solve), and infinities only arise
   from unmeasured/degenerate quantities too, so all three map to
   null. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* Fraction of the root integrality gap closed by the cut loop:
   (cut bound - LP bound) / (final objective - LP bound), in the
   minimization sense regardless of the model's direction. *)
let root_gap_closed e =
  if
    Float.is_finite e.be_root_lp_bound
    && Float.is_finite e.be_root_cut_bound
    && Float.is_finite e.be_objective
  then begin
    let denom = Float.abs (e.be_objective -. e.be_root_lp_bound) in
    if denom < 1e-9 then 1.0
    else Float.abs (e.be_root_cut_bound -. e.be_root_lp_bound) /. denom
  end
  else nan

let write_bench_json path =
  let oc = open_out path in
  let entries = List.rev !bench_log in
  Printf.fprintf oc "{\n  \"mode\": %S,\n  \"scenarios\": [\n" mode;
  List.iteri
    (fun i e ->
      let lps = e.be_lp_warm + e.be_lp_cold + e.be_lp_fallback in
      Printf.fprintf oc
        "    {\"scenario\": %S, \"wall_s\": %s, \"status\": %S, \"objective\": %s,\n\
        \     \"nodes\": %d, \"lp_iterations\": %d, \"lp_solves\": %d,\n\
        \     \"lp_warm\": %d, \"lp_cold\": %d, \"lp_fallback\": %d, \"warm_hit_rate\": %s,\n\
        \     \"cuts_separated\": %d, \"cuts_applied\": %d, \"cuts_evicted\": %d,\n\
        \     \"rc_fixed\": %d, \"root_lp_bound\": %s, \"root_cut_bound\": %s,\n\
        \     \"root_gap_closed\": %s}%s\n"
        e.be_scenario (json_float e.be_wall_s) e.be_status (json_float e.be_objective)
        e.be_nodes e.be_lp_iterations lps e.be_lp_warm e.be_lp_cold e.be_lp_fallback
        (json_float (if lps = 0 then 0. else float_of_int e.be_lp_warm /. float_of_int lps))
        e.be_cuts_separated e.be_cuts_applied e.be_cuts_evicted e.be_rc_fixed
        (json_float e.be_root_lp_bound) (json_float e.be_root_cut_bound)
        (json_float (root_gap_closed e))
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf "wrote %s (%d scenarios, %s mode)@." path (List.length entries) mode

let hr () = Format.printf "@."

let header title =
  Format.printf "@.==== %s ====@.@." title

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let status_str (out : Outcome.t) = Milp.Status.mip_status_to_string out.Outcome.status

(* ------------------------------------------------------------------ *)
(* Table 1: data-collection WSN under three objectives                 *)
(* ------------------------------------------------------------------ *)

let dc_params = Scenarios.default_data_collection

let table1_kstar = 6

let dc_config = config ~time_limit:120. ~rel_gap:0.03 (Solver_config.approx ~kstar:table1_kstar ())

let table1 () =
  header "Table 1: data collection WSN, objective sweep";
  Format.printf
    "(template: %d sensors + 1 sink + %d relay candidates; 2 disjoint routes per sensor;@."
    dc_params.Scenarios.dc_sensors
    (fst dc_params.Scenarios.dc_relay_grid * snd dc_params.Scenarios.dc_relay_grid);
  Format.printf " SNR >= %g dB; lifetime >= %g y; K* = %d.  Paper: 136-node template, K* = 10.)@.@."
    dc_params.Scenarios.dc_min_snr_db dc_params.Scenarios.dc_min_lifetime_years table1_kstar;
  Format.printf "%-10s | %7s | %6s | %12s | %8s | %s@." "Objective" "# Nodes" "$ cost"
    "Lifetime (y)" "Time (s)" "status";
  Format.printf "-----------+---------+--------+--------------+----------+-------@.";
  let solved = ref [] in
  List.iter
    (fun (name, objective) ->
      match Scenarios.data_collection ~objective dc_params with
      | Error e -> Format.printf "%-10s | scenario error: %s@." name e
      | Ok inst -> (
          match time (fun () -> Solve.run dc_config inst) with
          | Ok out, dt -> (
              record ("table1/" ^ name) out dt;
              match out.Outcome.solution with
              | Some sol ->
                  Format.printf "%-10s | %7d | %6.0f | %12.2f | %8.1f | %s@." name
                    sol.Solution.node_count sol.Solution.dollar_cost
                    (Solution.avg_lifetime_years inst sol) dt (status_str out);
                  (match Solution.check inst sol with
                  | Ok () -> ()
                  | Error errs ->
                      List.iter (fun e -> Format.printf "  VALIDATION: %s@." e) errs);
                  solved := (name, inst, sol) :: !solved
              | None -> Format.printf "%-10s | no solution (%s)@." name (status_str out))
          | (Error e, _) -> Format.printf "%-10s | encode error: %s@." name e))
    [
      ("$ cost", Objective.dollar);
      ("Energy", Objective.energy);
      ("$+Energy", Objective.combine Objective.dollar Objective.energy);
    ];
  hr ();
  List.rev !solved

(* ------------------------------------------------------------------ *)
(* Table 2: localization network under three objectives                *)
(* ------------------------------------------------------------------ *)

let loc_params = Scenarios.default_localization

let loc_kstar = 8

let loc_config = config ~time_limit:60. ~rel_gap:0.02 (Solver_config.approx ~loc_kstar ())

(* Pure DSOD does not constrain node count; an epsilon of dollar cost
   breaks ties (see DESIGN.md). *)
let dsod_objective = [ (1., Objective.Dsod); (0.2, Objective.Dollar_cost) ]

let table2 () =
  header "Table 2: localization network, objective sweep";
  Format.printf
    "(%d anchor candidates, %d evaluation points; >= %d anchors per point at RSS >= %g dBm;@."
    (fst loc_params.Scenarios.loc_anchor_grid * snd loc_params.Scenarios.loc_anchor_grid)
    (fst loc_params.Scenarios.loc_eval_grid * snd loc_params.Scenarios.loc_eval_grid)
    loc_params.Scenarios.loc_min_anchors loc_params.Scenarios.loc_min_rss_dbm;
  Format.printf " localization pruning K* = %d.  Paper: 150 candidates, 135 points, K* = 20.)@.@."
    loc_kstar;
  Format.printf "%-8s | %7s | %6s | %9s | %8s | %s@." "Obj." "# Nodes" "$ cost" "Reachable"
    "Time (s)" "status";
  Format.printf "---------+---------+--------+-----------+----------+-------@.";
  let solved = ref [] in
  List.iter
    (fun (name, objective) ->
      match Scenarios.localization ~objective loc_params with
      | Error e -> Format.printf "%-8s | scenario error: %s@." name e
      | Ok inst -> (
          match time (fun () -> Solve.run loc_config inst) with
          | Ok out, dt -> (
              record ("table2/" ^ name) out dt;
              match out.Outcome.solution with
              | Some sol ->
                  Format.printf "%-8s | %7d | %6.0f | %9.2f | %8.1f | %s@." name
                    sol.Solution.node_count sol.Solution.dollar_cost (Solution.avg_reachable sol)
                    dt (status_str out);
                  (match Solution.check inst sol with
                  | Ok () -> ()
                  | Error errs ->
                      List.iter (fun e -> Format.printf "  VALIDATION: %s@." e) errs);
                  solved := (name, inst, sol) :: !solved
              | None -> Format.printf "%-8s | no solution (%s)@." name (status_str out))
          | (Error e, _) -> Format.printf "%-8s | encode error: %s@." name e))
    [ ("$ cost", Objective.dollar); ("DSOD", dsod_objective);
      ("$+DSOD", (1., Objective.Dollar_cost) :: dsod_objective) ];
  hr ();
  List.rev !solved

(* ------------------------------------------------------------------ *)
(* Table 3: scalability, full enumeration vs Algorithm 1               *)
(* ------------------------------------------------------------------ *)

(* Above this template size the full encoding is estimated analytically
   instead of being materialized (the paper does the same for its large
   rows, marked "~"). *)
let full_build_limit = 60

let estimate_full inst =
  (* Per path replica over |E| edge binaries: |E| vars; constraints:
     flow (n) + in/out degree (2n) + hop bounds; plus (1d) pairs |E| per
     replica pair, plus shared rows: LQ + 2 links per edge + sizing. *)
  let e = Netgraph.Digraph.nedges inst.Instance.graph in
  let n = Template.nnodes inst.Instance.template in
  let paths = Requirements.total_path_count inst.Instance.requirements in
  let disjoint_pairs =
    List.fold_left
      (fun acc (r : Requirements.route) ->
        acc + (r.Requirements.replicas * (r.Requirements.replicas - 1) / 2))
      0 inst.Instance.requirements.Requirements.routes
  in
  let sizing_vars =
    Array.to_list (Template.nodes inst.Instance.template)
    |> List.fold_left
         (fun acc (node : Template.node) ->
           acc
           + List.length
               (Components.Library.with_role inst.Instance.library node.Template.role))
         0
  in
  let vars = (paths * e) + e + n + sizing_vars in
  (* Rows: flow balance + degree caps per path; replica disjointness;
     per-edge usage linking (one row per path-variable term plus the
     upper bound, the dominant term); LQ + endpoint rows per edge;
     sizing/fixed rows. *)
  let cons =
    (paths * 3 * n) + (disjoint_pairs * e) + (e * (paths + 1)) + (e * 3) + (2 * n)
  in
  (vars, cons)

let table3_sizes =
  [
    (14, 4, true);
    (20, 6, true);
    (30, 10, true);
    (45, 15, false);
    (60, 20, false);
    (90, 30, false);
    (120, 40, false);
  ]

let table3 () =
  header "Table 3: problem size and time, full enumeration vs approximate encoding (K* = 6)";
  Format.printf
    "(single route per end device, SNR >= 20 dB, dollar objective; full encodings above %d@."
    full_build_limit;
  Format.printf " nodes are estimated analytically, as in the paper's '~' rows; full solves@.";
  Format.printf " are capped at 90 s -> TO.  Paper range: 50..500 nodes, 8-h timeout.)@.@.";
  Format.printf "%5s %7s | %17s | %17s | %12s | %12s@." "nodes" "routed" "full vars/cons"
    "approx vars/cons" "full time" "approx time";
  Format.printf "--------------+-------------------+-------------------+--------------+-------------@.";
  let full_config = config ~time_limit:90. ~rel_gap:0.03 Solver_config.Full_enum in
  let approx_config = config ~time_limit:120. ~rel_gap:0.02 (Solver_config.approx ~kstar:6 ()) in
  List.iter
    (fun (total, routed, solve_full) ->
      match Scenarios.scaled_data_collection ~total_nodes:total ~end_devices:routed () with
      | Error e -> Format.printf "%5d %7d | scenario error: %s@." total routed e
      | Ok inst ->
          let fv, fc, estimated =
            if total <= full_build_limit then begin
              match Solve.encode_size inst Solve.Full_enum with
              | Ok (v, c) -> (v, c, "")
              | Error _ -> (0, 0, "?")
            end
            else begin
              let v, c = estimate_full inst in
              (v, c, "~")
            end
          in
          let av, ac =
            match Solve.encode_size inst (Solve.approx ~kstar:6 ()) with
            | Ok (v, c) -> (v, c)
            | Error _ -> (0, 0)
          in
          let full_time =
            if not solve_full then "TO"
            else begin
              match time (fun () -> Solve.run full_config inst) with
              | Ok { Outcome.status = Milp.Status.Mip_optimal; _ }, dt ->
                  Printf.sprintf "%.1f s" dt
              | Ok { Outcome.solution = Some _; _ }, _ -> "TO*"
              | Ok _, _ -> "TO"
              | Error _, _ -> "gen-fail"
            end
          in
          let approx_time =
            match time (fun () -> Solve.run approx_config inst) with
            | Ok { Outcome.solution = Some _; _ }, dt -> Printf.sprintf "%.1f s" dt
            | Ok _, _ -> "TO"
            | Error e, _ -> "gen-fail: " ^ e
          in
          Format.printf "%5d %7d | %s%7d / %-8d | %7d / %-8d | %12s | %12s@." total routed
            estimated fv fc av ac full_time approx_time)
    table3_sizes;
  Format.printf "@.(TO* = timed out with an incumbent; ratios of the vars/cons columns are the@.";
  Format.printf " paper's headline orders-of-magnitude reduction.)@.";
  hr ()

(* ------------------------------------------------------------------ *)
(* Table 4: cost and time vs K*                                        *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header "Table 4: solution cost and solver time vs K*";
  Format.printf
    "(T1: small template; T2: larger template; 'opt' = exhaustive enumeration on T1 only,@.";
  Format.printf " as in the paper, where T2's exact solve timed out.  Each K* run inherits the@.";
  Format.printf " previous cost as a cutoff — sound because single-replica candidate pools nest.)@.@.";
  let t1 = Scenarios.scaled_data_collection ~total_nodes:18 ~end_devices:5 ~replicas:1 () in
  let t2 = Scenarios.scaled_data_collection ~total_nodes:28 ~end_devices:8 ~replicas:1 () in
  let schedule = Kstar.default_schedule in
  let base_config strategy cutoff =
    config ~time_limit:90. ~rel_gap:1e-4 strategy |> Solver_config.with_cutoff cutoff
  in
  let run_row name inst_result with_opt =
    match inst_result with
    | Error e -> Format.printf "%s: scenario error %s@." name e
    | Ok inst ->
        Format.printf "%-3s %-8s |" name "Cost ($)";
        let times = ref [] in
        let best = ref nan in
        List.iter
          (fun kstar ->
            let cfg = base_config (Solve.Approx { kstar; loc_kstar = kstar }) !best in
            match time (fun () -> Solve.run cfg inst) with
            | Ok { Outcome.solution = Some sol; _ }, dt ->
                best := sol.Solution.dollar_cost;
                Format.printf " %8.0f" !best;
                times := dt :: !times
            | Ok _, dt ->
                (* No improvement over the inherited cutoff. *)
                if Float.is_nan !best then Format.printf " %8s" "-"
                else Format.printf " %8.0f" !best;
                times := dt :: !times
            | Error _, dt ->
                Format.printf " %8s" "-";
                times := dt :: !times)
          schedule;
        (if with_opt then begin
           let cfg = base_config Solve.Full_enum !best in
           match time (fun () -> Solve.run cfg inst) with
           | Ok { Outcome.solution = Some sol; status = Milp.Status.Mip_optimal; _ }, dt ->
               Format.printf " | %8.0f" sol.Solution.dollar_cost;
               times := dt :: !times
           | Ok { Outcome.status = Milp.Status.Mip_unknown; _ }, dt
             when not (Float.is_nan !best) ->
               (* Exhausted under the cutoff: K*'s best is already optimal. *)
               Format.printf " | %8.0f" !best;
               times := dt :: !times
           | Ok _, dt ->
               Format.printf " | %8s" "TO";
               times := dt :: !times
           | Error _, dt ->
               Format.printf " | %8s" "-";
               times := dt :: !times
         end
         else Format.printf " | %8s" "TO");
        Format.printf "@.%-3s %-8s |" name "Time (s)";
        List.iter (fun dt -> Format.printf " %8.1f" dt) (List.rev !times);
        Format.printf "@."
  in
  Format.printf "%-12s |" "";
  List.iter (fun k -> Format.printf " %8s" (Printf.sprintf "K*=%d" k)) schedule;
  Format.printf " | %8s@." "opt";
  Format.printf "-------------+----------------------------------------------+---------@.";
  run_row "T1" t1 true;
  run_row "T2" t2 false;
  Format.printf
    "@.(Expected shape: cost non-increasing in K*, approaching 'opt'; time growing with K*.)@.";
  hr ()

(* ------------------------------------------------------------------ *)
(* Parallel tree search: workers sweep -> BENCH_PR4.json               *)
(* ------------------------------------------------------------------ *)

type par_run = {
  pr_scenario : string;
  pr_workers : int;
  pr_wall_s : float;
  pr_status : string;
  pr_objective : float option;
  pr_nodes : int;
  pr_lp_iterations : int;
}

let par_log : par_run list ref = ref []
let par_workers = [ 1; 4 ]
let par_kstar = 4
let par_rel_gap = 1e-6

(* The cap covers the slowest observed leg (energy at 4 workers on a
   single hardware thread, ~165 s) with headroom: a leg that times out
   would demote the parity check to timeout-incumbent comparison. *)
let par_time_limit = 300.

(* Table-1 family sized so every objective *proves* the 1e-6 gap
   inside the cap at every worker count — the parity claim compares
   proved optima, never timeout incumbents.  The energy objective is
   the binding constraint: its tree is ~19k nodes at this size (vs 1-9
   for $ and $+Energy) and blows past any reasonable cap one notch
   larger. *)
let par_params =
  {
    dc_params with
    Scenarios.dc_sensors = 4;
    dc_relay_grid = (3, 2);
    dc_width = 45.;
    dc_height = 28.;
  }

let parallel_bench () =
  header "Parallel tree search: worker-domain sweep (Table-1 scenarios)";
  Format.printf
    "(K* = %d, rel_gap = %g, %.0f s cap; workers in {%s}, seed %d.  workers=1 takes the@."
    par_kstar par_rel_gap par_time_limit
    (String.concat ", " (List.map string_of_int par_workers))
    seed;
  Format.printf
    " solver's sequential loop verbatim — its node/LP tallies are the pre-parallelism@.";
  Format.printf " baseline; every worker count must reproduce its objective to 1e-6.)@.";
  Format.printf "(host reports %d hardware thread(s): with only 1, worker domains@."
    (Domain.recommended_domain_count ());
  Format.printf
    " time-share one core and wall-clock speedup reflects search-order anomalies@.";
  Format.printf " plus runtime overhead, not real concurrency.)@.@.";
  if Domain.recommended_domain_count () = 1 then begin
    Format.printf
      "  WARNING: single hardware thread — the speedup column below measures@.";
    Format.printf
      "  time-sliced domains, NOT parallel execution.  Do not quote these numbers@.";
    Format.printf
      "  as parallel speedups (the JSON carries single_thread_warning: true).@.@."
  end;
  List.iter
    (fun (name, objective) ->
      match Scenarios.data_collection ~objective par_params with
      | Error e -> Format.printf "  %s: scenario error: %s@." name e
      | Ok inst ->
          List.iter
            (fun w ->
              let cfg =
                config ~workers:w ~time_limit:par_time_limit ~rel_gap:par_rel_gap
                  (Solver_config.approx ~kstar:par_kstar ())
              in
              (* Level the heap between legs: without this, the first
                 sub-second leg after a multi-minute one pays the
                 previous run's major-GC debt and the speedup column
                 reads heap noise instead of tree search. *)
              Gc.compact ();
              match time (fun () -> Solve.run cfg inst) with
              | Ok out, dt ->
                  let mip = out.Outcome.mip in
                  let obj =
                    Option.map
                      (fun _ -> mip.Milp.Branch_bound.objective)
                      out.Outcome.solution
                  in
                  par_log :=
                    !par_log
                    @ [
                        {
                          pr_scenario = "table1/" ^ name;
                          pr_workers = w;
                          pr_wall_s = dt;
                          pr_status = status_str out;
                          pr_objective = obj;
                          pr_nodes = mip.Milp.Branch_bound.nodes;
                          pr_lp_iterations = mip.Milp.Branch_bound.lp_iterations;
                        };
                      ];
                  Format.printf
                    "  %-10s workers=%d: %-13s obj=%-12s nodes=%-6d lp_iters=%-7d %.2f s@."
                    name w (status_str out)
                    (match obj with Some o -> Printf.sprintf "%.6g" o | None -> "-")
                    mip.Milp.Branch_bound.nodes mip.Milp.Branch_bound.lp_iterations dt
              | Error e, _ -> Format.printf "  %-10s workers=%d: encode error: %s@." name w e)
            par_workers;
          (* Seq-vs-parallel verdict for this scenario. *)
          let runs = List.filter (fun r -> r.pr_scenario = "table1/" ^ name) !par_log in
          (match
             ( List.find_opt (fun r -> r.pr_workers = 1) runs,
               List.filter (fun r -> r.pr_workers > 1) runs )
           with
          | Some sq, (_ :: _ as par) ->
              List.iter
                (fun p ->
                  let mtch =
                    match (sq.pr_objective, p.pr_objective) with
                    | Some a, Some b -> Float.abs (a -. b) <= 1e-6
                    | None, None -> true
                    | _ -> false
                  in
                  Format.printf "  => workers=%d objectives %s; speedup %.2fx@."
                    p.pr_workers
                    (if mtch then "MATCH" else "DIFFER")
                    (sq.pr_wall_s /. Float.max 1e-9 p.pr_wall_s))
                par
          | _ -> ());
          Format.printf "@.")
    [
      ("$ cost", Objective.dollar);
      ("Energy", Objective.energy);
      ("$+Energy", Objective.combine Objective.dollar Objective.energy);
    ];
  hr ()

let write_par_json path =
  let oc = open_out path in
  let runs = !par_log in
  let json_opt = function Some o -> json_float o | None -> "null" in
  Printf.fprintf oc
    "{\n  \"kstar\": %d,\n  \"rel_gap\": %s,\n  \"time_limit_s\": %s,\n  \"seed\": %d,\n\
    \  \"workers\": [%s],\n  \"host_hardware_threads\": %d,\n\
    \  \"single_thread_warning\": %b,\n  \"runs\": [\n"
    par_kstar (json_float par_rel_gap) (json_float par_time_limit) seed
    (String.concat ", " (List.map string_of_int par_workers))
    (Domain.recommended_domain_count ())
    (Domain.recommended_domain_count () = 1);
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"workers\": %d, \"wall_s\": %s, \"status\": %S,\n\
        \     \"objective\": %s, \"nodes\": %d, \"lp_iterations\": %d}%s\n"
        r.pr_scenario r.pr_workers (json_float r.pr_wall_s) r.pr_status
        (json_opt r.pr_objective) r.pr_nodes r.pr_lp_iterations
        (if i = List.length runs - 1 then "" else ","))
    runs;
  let comparisons =
    List.filter_map
      (fun r ->
        if r.pr_workers = 1 then None
        else
          match
            List.find_opt
              (fun s -> s.pr_workers = 1 && s.pr_scenario = r.pr_scenario)
              runs
          with
          | None -> None
          | Some sq ->
              Some
                (Printf.sprintf
                   "    {\"scenario\": %S, \"workers\": %d, \"objective_match\": %b,\n\
                   \     \"sequential_wall_s\": %s, \"parallel_wall_s\": %s, \"speedup\": %s,\n\
                   \     \"sequential_nodes\": %d, \"parallel_nodes\": %d}"
                   r.pr_scenario r.pr_workers
                   (match (sq.pr_objective, r.pr_objective) with
                   | Some a, Some b -> Float.abs (a -. b) <= 1e-6
                   | None, None -> true
                   | _ -> false)
                   (json_float sq.pr_wall_s) (json_float r.pr_wall_s)
                   (json_float (sq.pr_wall_s /. Float.max 1e-9 r.pr_wall_s))
                   sq.pr_nodes r.pr_nodes))
      runs
  in
  Printf.fprintf oc "  ],\n  \"comparisons\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" comparisons);
  close_out oc;
  Format.printf "wrote %s (%d parallel runs)@." path (List.length runs)

(* ------------------------------------------------------------------ *)
(* Simplex kernel round 2: pricing x ratio-test sweep -> BENCH_PR6.json *)
(* ------------------------------------------------------------------ *)

type k2_run = {
  k2_scenario : string;
  k2_combo : string;  (* "devex+harris" | "devex+classic" | ... *)
  k2_pricing : string;
  k2_harris : bool;
  k2_wall_s : float;
  k2_status : string;
  k2_objective : float option;
  k2_nodes : int;
  k2_lp_iterations : int;
  k2_factorizations : int;
  k2_alloc_words : float;
}

let k2_log : k2_run list ref = ref []

let k2_combos =
  [
    ("devex+harris", Milp.Simplex.Devex, true);
    ("devex+classic", Milp.Simplex.Devex, false);
    ("dantzig+harris", Milp.Simplex.Dantzig, true);
    ("dantzig+classic", Milp.Simplex.Dantzig, false);
  ]

(* Same sized-down Table-1 family, tight gap, sequential sparse kernel:
   the four pricing x ratio-test combinations must land on the same
   objective to 1e-6; dantzig+classic is the PR5 algorithmic baseline
   (same rules, now on the workspace/unboxed storage), so the
   iteration/wall deltas against it isolate the pricing and ratio-test
   effects from the memory work. *)
let kernel2_bench () =
  header "Simplex kernel round 2: pricing x ratio tests (Table-1 scenarios)";
  Format.printf
    "(K* = %d, rel_gap = %g, %.0f s cap, workers = 1, sparse kernel.  devex+harris is@."
    par_kstar par_rel_gap par_time_limit;
  Format.printf
    " the new default; dantzig+classic replays the PR5 rules on the new storage.)@.@.";
  List.iter
    (fun (name, objective) ->
      match Scenarios.data_collection ~objective par_params with
      | Error e -> Format.printf "  %s: scenario error: %s@." name e
      | Ok inst ->
          List.iter
            (fun (combo, pr, hr) ->
              let cfg =
                config ~workers:1 ~time_limit:par_time_limit ~rel_gap:par_rel_gap
                  (Solver_config.approx ~kstar:par_kstar ())
              in
              let cfg =
                Solver_config.with_kernel
                  { cfg.Solver_config.kernel with k_pricing = pr; k_harris = hr }
                  cfg
              in
              Gc.compact ();
              Milp.Lu.set_stats_enabled true;
              Milp.Lu.reset_stats ();
              let g0 = Gc.quick_stat () in
              match time (fun () -> Solve.run cfg inst) with
              | Ok out, dt ->
                  let g1 = Gc.quick_stat () in
                  Milp.Lu.set_stats_enabled false;
                  let alloc =
                    g1.Gc.minor_words -. g0.Gc.minor_words
                    +. (g1.Gc.major_words -. g0.Gc.major_words)
                    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
                  in
                  let st = Milp.Lu.stats () in
                  let mip = out.Outcome.mip in
                  let obj =
                    Option.map
                      (fun _ -> mip.Milp.Branch_bound.objective)
                      out.Outcome.solution
                  in
                  k2_log :=
                    !k2_log
                    @ [
                        {
                          k2_scenario = "table1/" ^ name;
                          k2_combo = combo;
                          k2_pricing =
                            (match pr with
                            | Milp.Simplex.Devex -> "devex"
                            | Milp.Simplex.Dantzig -> "dantzig");
                          k2_harris = hr;
                          k2_wall_s = dt;
                          k2_status = status_str out;
                          k2_objective = obj;
                          k2_nodes = mip.Milp.Branch_bound.nodes;
                          k2_lp_iterations = mip.Milp.Branch_bound.lp_iterations;
                          k2_factorizations = st.Milp.Lu.s_factorizations;
                          k2_alloc_words = alloc;
                        };
                      ];
                  Format.printf
                    "  %-10s %-16s: %-13s obj=%-12s nodes=%-6d lp_iters=%-7d \
                     refactor=%-4d alloc=%.3gMw %.2f s@."
                    name combo (status_str out)
                    (match obj with Some o -> Printf.sprintf "%.6g" o | None -> "-")
                    mip.Milp.Branch_bound.nodes mip.Milp.Branch_bound.lp_iterations
                    st.Milp.Lu.s_factorizations (alloc /. 1e6) dt
              | Error e, _ ->
                  Milp.Lu.set_stats_enabled false;
                  Format.printf "  %-10s %-16s: encode error: %s@." name combo e)
            k2_combos;
          (* Per-scenario verdict against the dantzig+classic baseline. *)
          let runs = List.filter (fun r -> r.k2_scenario = "table1/" ^ name) !k2_log in
          (match List.find_opt (fun r -> r.k2_combo = "dantzig+classic") runs with
          | Some base ->
              List.iter
                (fun r ->
                  if r.k2_combo <> "dantzig+classic" then begin
                    let mtch =
                      match (base.k2_objective, r.k2_objective) with
                      | Some a, Some b -> Float.abs (a -. b) <= 1e-6
                      | None, None -> true
                      | _ -> false
                    in
                    Format.printf
                      "  => %-16s objectives %s; iters %.2fx; alloc %.2fx; speedup %.2fx@."
                      r.k2_combo
                      (if mtch then "MATCH" else "DIFFER")
                      (float_of_int r.k2_lp_iterations
                      /. float_of_int (max 1 base.k2_lp_iterations))
                      (r.k2_alloc_words /. Float.max 1. base.k2_alloc_words)
                      (base.k2_wall_s /. Float.max 1e-9 r.k2_wall_s)
                  end)
                runs
          | None -> ());
          Format.printf "@.")
    [
      ("$ cost", Objective.dollar);
      ("Energy", Objective.energy);
      ("$+Energy", Objective.combine Objective.dollar Objective.energy);
    ];
  hr ()

let write_k2_json path =
  let oc = open_out path in
  let runs = !k2_log in
  let json_opt = function Some o -> json_float o | None -> "null" in
  Printf.fprintf oc
    "{\n  \"kstar\": %d,\n  \"rel_gap\": %s,\n  \"time_limit_s\": %s,\n  \"workers\": 1,\n\
    \  \"kernel\": \"sparse\",\n  \"runs\": [\n"
    par_kstar (json_float par_rel_gap) (json_float par_time_limit);
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"combo\": %S, \"pricing\": %S, \"harris\": %b,\n\
        \     \"wall_s\": %s, \"status\": %S, \"objective\": %s,\n\
        \     \"nodes\": %d, \"lp_iterations\": %d, \"refactorizations\": %d,\n\
        \     \"alloc_words\": %s}%s\n"
        r.k2_scenario r.k2_combo r.k2_pricing r.k2_harris (json_float r.k2_wall_s)
        r.k2_status (json_opt r.k2_objective) r.k2_nodes r.k2_lp_iterations
        r.k2_factorizations (json_float r.k2_alloc_words)
        (if i = List.length runs - 1 then "" else ","))
    runs;
  let comparisons =
    List.filter_map
      (fun r ->
        if r.k2_combo = "dantzig+classic" then None
        else
          match
            List.find_opt
              (fun s -> s.k2_combo = "dantzig+classic" && s.k2_scenario = r.k2_scenario)
              runs
          with
          | None -> None
          | Some base ->
              Some
                (Printf.sprintf
                   "    {\"scenario\": %S, \"combo\": %S, \"objective_match\": %b,\n\
                   \     \"iteration_ratio\": %s, \"alloc_ratio\": %s, \"speedup\": %s}"
                   r.k2_scenario r.k2_combo
                   (match (base.k2_objective, r.k2_objective) with
                   | Some a, Some b -> Float.abs (a -. b) <= 1e-6
                   | None, None -> true
                   | _ -> false)
                   (json_float
                      (float_of_int r.k2_lp_iterations
                      /. float_of_int (max 1 base.k2_lp_iterations)))
                   (json_float (r.k2_alloc_words /. Float.max 1. base.k2_alloc_words))
                   (json_float (base.k2_wall_s /. Float.max 1e-9 r.k2_wall_s))))
      runs
  in
  Printf.fprintf oc "  ],\n  \"comparisons\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" comparisons);
  close_out oc;
  Format.printf "wrote %s (%d kernel-round-2 runs)@." path (List.length runs)

(* ------------------------------------------------------------------ *)
(* Presolve reduction stack: template re-apply vs per-step vs off      *)
(* -> BENCH_PR7.json                                                   *)
(* ------------------------------------------------------------------ *)

type ps_step = {
  pss_kstar : int;
  pss_presolve_s : float;
  pss_reapplied : bool;
  pss_rows_removed : int;
  pss_cols_removed : int;
  pss_nvars : int;
  pss_nconstrs : int;
  pss_solve_s : float;
  pss_status : string;
  pss_objective : float option;
}

type ps_run = {
  psr_scenario : string;
  psr_mode : string;  (* "template" | "per-step" | "no-presolve" *)
  psr_total_s : float;
  psr_presolve_s : float;  (* summed over steps *)
  psr_final_objective : float option;
  psr_steps : ps_step list;
  psr_pass_stats : Milp.Presolve.pass_stats list;  (* last step's per-pass counts *)
}

let ps_log : ps_run list ref = ref []

(* Table-1 family, sized per objective with a 1e-3 gap: every scenario
   runs at the largest instance whose branch & bound reaches the gap
   inside the cap on every step of the schedule (a capped step turns
   the wall comparison into the cap itself for every mode and truncates
   incumbents nondeterministically).  $ cost and $+Energy take the
   [sweep]-section size; the Energy relaxation is weak enough that only
   the [parallel]-section size converges at every step.  Template and
   per-step presolve reach identical reductions (a tested invariant),
   so the solver does the same work in both modes and their
   wall/presolve-time deltas isolate the cost of presolving the
   template from scratch each step. *)
let ps_params_big = { dc_params with Scenarios.dc_sensors = 8; dc_relay_grid = (5, 3) }
let ps_params_small = { dc_params with Scenarios.dc_sensors = 4; dc_relay_grid = (3, 2) }

(* K* stops at 4: the Energy objective pins every mode to the time
   limit from K* = 6 even at the small size and this gap, and a capped
   step measures the cap, not the mode.  The schedule is deliberately
   fine-grained: K* steps that add no new candidate paths (1->2 and
   3->4 on these pools) are exactly where the template trace re-applies
   against an empty delta, while the big 2->3 growth exercises the
   large-delta fallback to a from-scratch reduction. *)
let ps_schedule = [ 1; 2; 3; 4 ]
let ps_rel_gap = 1e-3

let ps_config =
  let loc_kstar = List.fold_left Int.max 1 ps_schedule in
  config ~time_limit:120. ~rel_gap:ps_rel_gap (Solver_config.approx ~loc_kstar ())

let ps_modes : (string * (Solver_config.t -> Solver_config.t)) list =
  [
    ("template", fun c -> c);
    ( "per-step",
      fun c ->
        Solver_config.with_presolving { c.Solver_config.presolve with ps_template = false } c );
    ( "no-presolve",
      fun c ->
        Solver_config.with_presolving { c.Solver_config.presolve with ps_enabled = false } c );
  ]

(* Template and per-step modes solve the identical reduced problem, so
   their objectives must agree to 1e-6; no-presolve explores a
   different tree and may stop on any incumbent inside the relative
   gap, so it is compared to gap tolerance. *)
let ps_obj_match tmpl step off =
  match (tmpl, step, off) with
  | Some a, Some b, Some c ->
      Float.abs (a -. b) <= 1e-6
      && Float.abs (a -. c) <= (2. *. ps_rel_gap *. Float.max 1. (Float.abs a)) +. 1e-6
  | _, _, _ -> false

(* Each mode's sweep repeats [ps_reps] times and the fastest repeat is
   logged: the modes do deterministic work (template and per-step reach
   identical reductions, hence identical trees), so min-of-R wall time
   approximates that work with scheduler/GC noise suppressed. *)
let ps_reps = 7

let run_presolve_sweep_once inst ~tweak ~scenario ~mode =
  let cfg = ps_config |> tweak in
  let session = Session.start cfg inst in
  let direction = ref Milp.Model.Minimize in
  let last_stats = ref [] in
  let t0 = Unix.gettimeofday () in
  let steps =
    List.filter_map
      (fun kstar ->
        match Session.grow session ~kstar with
        | Error e ->
            Format.printf "  %s k*=%d: pool error: %s@." scenario kstar e;
            None
        | Ok () ->
            let s = Session.solve session in
            direction := Milp.Model.direction s.Outcome.model;
            let mip = s.Outcome.mip in
            let st = s.Outcome.stats in
            last_stats := mip.Milp.Branch_bound.presolve_stats;
            Some
              {
                pss_kstar = kstar;
                pss_presolve_s = mip.Milp.Branch_bound.presolve_time_s;
                pss_reapplied = mip.Milp.Branch_bound.presolve_reapplied;
                pss_rows_removed = mip.Milp.Branch_bound.presolve_rows_removed;
                pss_cols_removed = mip.Milp.Branch_bound.presolve_cols_removed;
                pss_nvars = st.Outcome.nvars;
                pss_nconstrs = st.Outcome.nconstrs;
                pss_solve_s = st.Outcome.solve_time_s;
                pss_status = Milp.Status.mip_status_to_string s.Outcome.status;
                pss_objective =
                  Option.map (fun _ -> mip.Milp.Branch_bound.objective) s.Outcome.solution;
              })
      ps_schedule
  in
  let total = Unix.gettimeofday () -. t0 in
  let final_objective =
    List.fold_left
      (fun acc st ->
        match (acc, st.pss_objective) with
        | None, o | o, None -> o
        | Some a, Some b -> (
            match !direction with
            | Milp.Model.Minimize -> Some (Float.min a b)
            | Milp.Model.Maximize -> Some (Float.max a b)))
      None steps
  in
  {
    psr_scenario = scenario;
    psr_mode = mode;
    psr_total_s = total;
    psr_presolve_s = List.fold_left (fun acc st -> acc +. st.pss_presolve_s) 0. steps;
    psr_final_objective = final_objective;
    psr_steps = steps;
    psr_pass_stats = !last_stats;
  }

(* Run every mode [ps_reps] times with the reps interleaved across
   modes (rep-major, not mode-major): template and per-step execute
   bit-identical search trees, so any wall difference beyond the
   presolve component is environmental drift (heap growth, CPU
   frequency), and batching a mode's reps together would let that
   drift bias whichever mode ran first.  Total wall and the presolve
   component are then minimized independently per mode — the rep that
   wins on total is not necessarily the one whose (much smaller)
   presolve sample is clean. *)
let run_presolve_sweeps scenario inst ~tweaks =
  let best = Hashtbl.create 4 in
  let pmin = Hashtbl.create 4 in
  let nmodes = List.length tweaks in
  for rep = 0 to ps_reps - 1 do
    (* Rotate the order every rep: the first sweep after a heavy
       neighbour (no-presolve's big trees bloat the heap) pays extra
       GC cost, so each mode must sample every slot. *)
    List.iteri
      (fun slot _ ->
        let mode, tweak = List.nth tweaks ((slot + rep) mod nmodes) in
        let r = run_presolve_sweep_once inst ~tweak ~scenario ~mode in
        (match Hashtbl.find_opt pmin mode with
        | Some p when p <= r.psr_presolve_s -> ()
        | _ -> Hashtbl.replace pmin mode r.psr_presolve_s);
        match Hashtbl.find_opt best mode with
        | Some b when b.psr_total_s <= r.psr_total_s -> ()
        | _ -> Hashtbl.replace best mode r)
      tweaks
  done;
  List.map
    (fun (mode, _) ->
      let run =
        { (Hashtbl.find best mode) with psr_presolve_s = Hashtbl.find pmin mode }
      in
      ps_log := !ps_log @ [ run ];
      run)
    tweaks

(* Direct microbenchmark of the reduction itself, free of branch & bound
   noise: the sweep totals are solver-dominated (the two presolve modes
   run bit-identical search trees — same node and LP-iteration counts),
   so the fraction of a millisecond the re-apply saves per step sits
   below wall-clock resolution there.  Timing [Presolve.reduce] alone on
   the scenario's fully grown model resolves it: from-scratch vs
   re-applying the just-recorded trace against an unchanged model — the
   exact shape of the no-growth schedule steps (1->2 and 3->4). *)
let ps_micro : (string * (int * int * float * float)) list ref = ref []

let ps_microbench scenario inst =
  let kstar = List.fold_left Int.max 1 ps_schedule in
  match Approx_encoding.encode ~kstar inst with
  | Error _ -> None
  | Ok enc -> (
      let lp = Encode_common.model enc.Approx_encoding.ctx in
      let prob = Milp.Simplex.of_model lp in
      let n = Milp.Model.nvars lp in
      let integer = Array.init n (Milp.Model.is_integer lp) in
      let lb = Array.init n (Milp.Model.var_lb lp) in
      let ub = Array.init n (Milp.Model.var_ub lp) in
      let time reduce =
        let best = ref infinity in
        for _ = 1 to 100 do
          let t0 = Unix.gettimeofday () in
          ignore (reduce ());
          best := Float.min !best (Unix.gettimeofday () -. t0)
        done;
        !best
      in
      match Milp.Presolve.reduce prob ~integer ~lb ~ub with
      | Milp.Presolve.Reduced r ->
          let tr = r.Milp.Presolve.red_trace in
          let fresh = time (fun () -> Milp.Presolve.reduce prob ~integer ~lb ~ub) in
          let reapply =
            time (fun () -> Milp.Presolve.reduce ~reuse:(tr, []) prob ~integer ~lb ~ub)
          in
          let rows = Array.length prob.Milp.Simplex.rows in
          ps_micro := !ps_micro @ [ (scenario, (rows, n, fresh, reapply)) ];
          Some (rows, n, fresh, reapply)
      | Milp.Presolve.Reduce_infeasible _ -> None)

(* Fraction of a step's model eliminated by the reduction.  The
   headline number is the first step — the one-time template presolve
   whose trace the rest of the sweep re-applies; the final-step
   fraction is reported alongside because grown pools are genuinely
   less reducible (fewer forced fixings once flows have alternatives). *)
let ps_step_fraction st =
  float_of_int (st.pss_rows_removed + st.pss_cols_removed)
  /. float_of_int (max 1 (st.pss_nconstrs + st.pss_nvars))

let ps_reduction_fraction r =
  match r.psr_steps with [] -> 0. | first :: _ -> ps_step_fraction first

let ps_final_fraction r =
  match List.rev r.psr_steps with [] -> 0. | last :: _ -> ps_step_fraction last

let presolve_bench () =
  header "Presolve reduction stack: template re-apply vs per-step vs --no-presolve";
  Format.printf
    "(incremental K* sweep, schedule %s, rel_gap = %g.  template presolves the first@."
    (String.concat ";" (List.map string_of_int ps_schedule))
    ps_rel_gap;
  Format.printf
    " step from scratch and re-applies the recorded trace to each delta; per-step@.";
  Format.printf
    " reduces every step from scratch; no-presolve solves the model verbatim.)@.@.";
  List.iter
    (fun (name, objective, ps_params) ->
      match Scenarios.data_collection ~objective ps_params with
      | Error e -> Format.printf "  %s: scenario error: %s@." name e
      | Ok inst ->
          let scenario = "table1/" ^ name in
          let runs = run_presolve_sweeps scenario inst ~tweaks:ps_modes in
          List.iter
            (fun r ->
              Format.printf "  %-10s %-12s: total %6.2f s  presolve %6.3f s  obj %s@." name
                r.psr_mode r.psr_total_s r.psr_presolve_s
                (match r.psr_final_objective with
                | Some o -> Printf.sprintf "%.6g" o
                | None -> "-");
              List.iter
                (fun st ->
                  Format.printf
                    "    k*=%d: %s presolve=%.4fs%s removed %d/%d rows %d/%d cols \
                     solve=%.2fs@."
                    st.pss_kstar st.pss_status st.pss_presolve_s
                    (if st.pss_reapplied then " (re-applied)" else "")
                    st.pss_rows_removed st.pss_nconstrs st.pss_cols_removed st.pss_nvars
                    st.pss_solve_s)
                r.psr_steps)
            runs;
          let micro = ps_microbench scenario inst in
          (match micro with
          | Some (rows, cols, fresh, reapply) ->
              Format.printf
                "  reduce microbench (k*=%d model, %d rows x %d cols): from-scratch \
                 %.2f ms, trace re-apply %.2f ms (%.2fx)@."
                (List.fold_left Int.max 1 ps_schedule)
                rows cols (1e3 *. fresh) (1e3 *. reapply)
                (fresh /. Float.max 1e-9 reapply)
          | None -> ());
          (match runs with
          | [ tmpl; step; off ] ->
              let objs =
                ps_obj_match tmpl.psr_final_objective step.psr_final_objective
                  off.psr_final_objective
              in
              let frac = ps_reduction_fraction tmpl in
              let ffrac = ps_final_fraction tmpl in
              (match List.rev tmpl.psr_pass_stats with
              | [] -> ()
              | stats ->
                  Format.printf "  per-pass (final step): %s@."
                    (String.concat ", "
                       (List.rev_map
                          (fun (s : Milp.Presolve.pass_stats) ->
                            Printf.sprintf "%s -%dr -%dc (%d)"
                              (Milp.Presolve.pass_name s.Milp.Presolve.ps_pass)
                              s.Milp.Presolve.ps_rows_removed s.Milp.Presolve.ps_cols_removed
                              s.Milp.Presolve.ps_changes)
                          stats)));
              Format.printf
                "  => objectives %s; template reduction %.1f%% (final step %.1f%%); \
                 presolve %.2fx vs per-step; wall %.2fx vs per-step, %.2fx vs \
                 no-presolve@.@."
                (if objs then "MATCH" else "DIFFER")
                (100. *. frac) (100. *. ffrac)
                (step.psr_presolve_s /. Float.max 1e-9 tmpl.psr_presolve_s)
                (step.psr_total_s /. Float.max 1e-9 tmpl.psr_total_s)
                (off.psr_total_s /. Float.max 1e-9 tmpl.psr_total_s)
          | _ -> ()))
    [
      ("$ cost", Objective.dollar, ps_params_big);
      ("Energy", Objective.energy, ps_params_small);
      ("$+Energy", Objective.combine Objective.dollar Objective.energy, ps_params_big);
    ];
  hr ()

let write_presolve_json path =
  let oc = open_out path in
  let runs = !ps_log in
  let json_opt = function Some o -> json_float o | None -> "null" in
  Printf.fprintf oc "{\n  \"schedule\": [%s],\n  \"rel_gap\": %s,\n  \"runs\": [\n"
    (String.concat ", " (List.map string_of_int ps_schedule))
    (json_float ps_rel_gap);
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"mode\": %S, \"total_s\": %s, \"presolve_s\": %s,\n\
        \     \"final_objective\": %s,\n\
        \     \"pass_stats\": [%s],\n\
        \     \"steps\": [\n"
        r.psr_scenario r.psr_mode (json_float r.psr_total_s) (json_float r.psr_presolve_s)
        (json_opt r.psr_final_objective)
        (String.concat ", "
           (List.map
              (fun (s : Milp.Presolve.pass_stats) ->
                Printf.sprintf
                  "{\"pass\": %S, \"rows_removed\": %d, \"cols_removed\": %d, \
                   \"changes\": %d}"
                  (Milp.Presolve.pass_name s.Milp.Presolve.ps_pass)
                  s.Milp.Presolve.ps_rows_removed s.Milp.Presolve.ps_cols_removed
                  s.Milp.Presolve.ps_changes)
              r.psr_pass_stats));
      List.iteri
        (fun j st ->
          Printf.fprintf oc
            "      {\"kstar\": %d, \"presolve_s\": %s, \"reapplied\": %b,\n\
            \       \"rows_removed\": %d, \"cols_removed\": %d, \"nvars\": %d, \
             \"nconstrs\": %d,\n\
            \       \"solve_s\": %s, \"status\": %S, \"objective\": %s}%s\n"
            st.pss_kstar (json_float st.pss_presolve_s) st.pss_reapplied st.pss_rows_removed
            st.pss_cols_removed st.pss_nvars st.pss_nconstrs (json_float st.pss_solve_s)
            st.pss_status (json_opt st.pss_objective)
            (if j = List.length r.psr_steps - 1 then "" else ","))
        r.psr_steps;
      Printf.fprintf oc "    ]}%s\n" (if i = List.length runs - 1 then "" else ","))
    runs;
  let find mode scen =
    List.find_opt (fun r -> r.psr_mode = mode && r.psr_scenario = scen) runs
  in
  let comparisons =
    List.filter_map
      (fun r ->
        if r.psr_mode <> "template" then None
        else
          match (find "per-step" r.psr_scenario, find "no-presolve" r.psr_scenario) with
          | Some step, Some off ->
              let all_match =
                ps_obj_match r.psr_final_objective step.psr_final_objective
                  off.psr_final_objective
              in
              let micro =
                match List.assoc_opt r.psr_scenario !ps_micro with
                | Some (rows, cols, fresh, reapply) ->
                    Printf.sprintf
                      ",\n\
                      \     \"reduce_micro_rows\": %d, \"reduce_micro_cols\": %d, \
                       \"reduce_micro_fresh_s\": %s,\n\
                      \     \"reduce_micro_reapply_s\": %s, \"reduce_micro_speedup\": %s"
                      rows cols (json_float fresh) (json_float reapply)
                      (json_float (fresh /. Float.max 1e-9 reapply))
                | None -> ""
              in
              Some
                (Printf.sprintf
                   "    {\"scenario\": %S, \"objective_match\": %b, \
                    \"template_reduction_fraction\": %s, \"final_step_reduction_fraction\": \
                    %s,\n\
                   \     \"template_presolve_s\": %s, \"per_step_presolve_s\": %s, \
                    \"presolve_speedup\": %s,\n\
                   \     \"template_total_s\": %s, \"per_step_total_s\": %s, \
                    \"no_presolve_total_s\": %s,\n\
                   \     \"wall_speedup_vs_per_step\": %s, \"wall_speedup_vs_off\": %s%s}"
                   r.psr_scenario all_match
                   (json_float (ps_reduction_fraction r))
                   (json_float (ps_final_fraction r))
                   (json_float r.psr_presolve_s) (json_float step.psr_presolve_s)
                   (json_float (step.psr_presolve_s /. Float.max 1e-9 r.psr_presolve_s))
                   (json_float r.psr_total_s) (json_float step.psr_total_s)
                   (json_float off.psr_total_s)
                   (json_float (step.psr_total_s /. Float.max 1e-9 r.psr_total_s))
                   (json_float (off.psr_total_s /. Float.max 1e-9 r.psr_total_s))
                   micro)
          | _ -> None)
      runs
  in
  Printf.fprintf oc "  ],\n  \"comparisons\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" comparisons);
  close_out oc;
  Format.printf "wrote %s (%d presolve runs)@." path (List.length runs)

(* ------------------------------------------------------------------ *)
(* Figures 1a-1c                                                       *)
(* ------------------------------------------------------------------ *)

let node_style (n : Template.node) used =
  match (n.Template.role, used) with
  | Components.Component.Sensor, _ ->
      { Geometry.Svg.default_style with fill = "#2a2"; stroke = "#161" }
  | Components.Component.Sink, _ ->
      { Geometry.Svg.default_style with fill = "#c22"; stroke = "#611" }
  | (Components.Component.Relay | Components.Component.Anchor), true ->
      { Geometry.Svg.default_style with fill = "#26c"; stroke = "#136" }
  | (Components.Component.Relay | Components.Component.Anchor), false ->
      { Geometry.Svg.default_style with fill = "none"; stroke = "#999" }

let plan_of inst =
  Radio.Channel.floorplan inst.Instance.channel

let scene_of inst =
  let w, h =
    match plan_of inst with
    | Some p -> (Geometry.Floorplan.width p, Geometry.Floorplan.height p)
    | None -> (100., 100.)
  in
  let sc = Geometry.Svg.scene ~width:w ~height:h in
  (match plan_of inst with Some p -> Geometry.Svg.add_floorplan sc p | None -> ());
  sc

let draw_nodes sc inst used_pred =
  Array.iteri
    (fun i n ->
      Geometry.Svg.add sc
        (Geometry.Svg.Circle (n.Template.loc, 0.5, node_style n (used_pred i))))
    (Template.nodes inst.Instance.template)

let figure1a inst =
  let sc = scene_of inst in
  draw_nodes sc inst (fun _ -> false);
  Geometry.Svg.write_file "fig1a.svg" sc;
  Format.printf "wrote fig1a.svg (template: sensors, sink, relay candidates)@."

let figure1b inst (sol : Solution.t) =
  let sc = scene_of inst in
  List.iter
    (fun (i, j) ->
      let a = (Template.node inst.Instance.template i).Template.loc in
      let b = (Template.node inst.Instance.template j).Template.loc in
      Geometry.Svg.add sc
        (Geometry.Svg.Line
           ( Geometry.Segment.make a b,
             { Geometry.Svg.default_style with stroke = "#2266cc"; stroke_width = 1.5 } )))
    sol.Solution.active_edges;
  draw_nodes sc inst (fun i -> List.mem i sol.Solution.used_nodes);
  Geometry.Svg.write_file "fig1b.svg" sc;
  Format.printf "wrote fig1b.svg (synthesized data-collection topology)@."

let figure1c inst (sol : Solution.t) =
  let sc = scene_of inst in
  (match inst.Instance.requirements.Requirements.localization with
  | Some loc ->
      Array.iter
        (fun pt ->
          Geometry.Svg.add sc
            (Geometry.Svg.Circle
               (pt, 0.25, { Geometry.Svg.default_style with stroke = "#888"; fill = "#ccc" })))
        loc.Requirements.eval_points
  | None -> ());
  draw_nodes sc inst (fun i -> List.mem i sol.Solution.used_nodes);
  Geometry.Svg.write_file "fig1c.svg" sc;
  Format.printf "wrote fig1c.svg (evaluation points + synthesized anchor placement)@."

let figures dc_solved loc_solved =
  header "Figures 1a-1c";
  (match dc_solved with
  | (_, inst, sol) :: _ ->
      figure1a inst;
      figure1b inst sol
  | [] -> Format.printf "no data-collection solution available for fig1a/b@.");
  (match loc_solved with
  | (_, inst, sol) :: _ -> figure1c inst sol
  | [] -> Format.printf "no localization solution available for fig1c@.");
  hr ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations";
  (* (a) presolve on/off. *)
  (match Scenarios.scaled_data_collection ~total_nodes:25 ~end_devices:8 ~replicas:2 () with
  | Error e -> Format.printf "presolve ablation: scenario error %s@." e
  | Ok inst ->
      Format.printf "presolve ablation (25 nodes, 8 sensors, 2 replicas):@.";
      List.iter
        (fun (name, presolve) ->
          let cfg =
            config ~time_limit:60. ~rel_gap:0.01 (Solver_config.approx ~kstar:6 ())
            |> Solver_config.with_options
                 { Milp.Branch_bound.default_options with
                   Milp.Branch_bound.time_limit = 60.; rel_gap = 0.01; presolve }
          in
          match time (fun () -> Solve.run cfg inst) with
          | Ok out, dt ->
              Format.printf "  %-12s %s in %.2f s, %d B&B nodes, %d LP iterations@." name
                (status_str out) dt out.Outcome.mip.Milp.Branch_bound.nodes
                out.Outcome.mip.Milp.Branch_bound.lp_iterations
          | Error e, _ -> Format.printf "  %-12s error: %s@." name e)
        [ ("with", true); ("without", false) ]);
  (* (b) diving heuristic on/off. *)
  (match Scenarios.localization Scenarios.default_localization with
  | Error e -> Format.printf "diving ablation: scenario error %s@." e
  | Ok inst ->
      Format.printf "@.diving-heuristic ablation (localization, $ objective, 30 s cap):@.";
      List.iter
        (fun (name, rounding_heuristic) ->
          let cfg =
            config ~time_limit:30. ~rel_gap:0.02 (Solver_config.approx ~loc_kstar:8 ())
            |> Solver_config.with_options
                 { Milp.Branch_bound.default_options with
                   Milp.Branch_bound.time_limit = 30.; rel_gap = 0.02; rounding_heuristic }
          in
          match time (fun () -> Solve.run cfg inst) with
          | Ok out, dt ->
              let inc =
                match out.Outcome.solution with
                | Some s -> Printf.sprintf "$%.0f" s.Solution.dollar_cost
                | None -> "none"
              in
              Format.printf "  %-12s incumbent %-6s (%s) in %.1f s@." name inc (status_str out) dt
          | Error e, _ -> Format.printf "  %-12s error: %s@." name e)
        [ ("with", true); ("without", false) ]);
  (* (c) Algorithm 1's disconnect loop: does the pool still contain the
     required number of disjoint replicas without it?  We measure the
     disjoint capacity of plain Yen pools vs Algorithm 1 pools. *)
  (match Scenarios.data_collection { dc_params with Scenarios.dc_replicas = 3 } with
  | Error e -> Format.printf "disconnect ablation: scenario error %s@." e
  | Ok inst ->
      Format.printf "@.disconnect-loop ablation (3 disjoint replicas required, K* = 6):@.";
      (match Path_gen.generate ~kstar:6 inst with
      | Error e -> Format.printf "  with disconnect: %s@." e
      | Ok { pools; _ } ->
          let capacity pool =
            let rec greedy chosen = function
              | [] -> List.length chosen
              | p :: rest ->
                  if List.for_all (Netgraph.Path.edge_disjoint p) chosen then
                    greedy (p :: chosen) rest
                  else greedy chosen rest
            in
            greedy [] pool
          in
          let ok =
            List.for_all (fun p -> capacity p.Path_gen.pool >= 3) pools
          in
          Format.printf "  with disconnect loop: all %d pools provide >= 3 disjoint paths: %b@."
            (List.length pools) ok);
      (* plain Yen: k_shortest without the disconnection rounds. *)
      let short = ref 0 and total = ref 0 in
      List.iter
        (fun (r : Requirements.route) ->
          incr total;
          let paths =
            List.map snd
              (Netgraph.Yen.k_shortest inst.Instance.graph ~src:r.Requirements.src
                 ~dst:r.Requirements.dst ~k:6)
          in
          let rec greedy chosen = function
            | [] -> List.length chosen
            | p :: rest ->
                if List.for_all (Netgraph.Path.edge_disjoint p) chosen then
                  greedy (p :: chosen) rest
                else greedy chosen rest
          in
          if greedy [] paths < 3 then incr short)
        inst.Instance.requirements.Requirements.routes;
      Format.printf "  plain Yen (no disconnect): %d/%d pools fall short of 3 disjoint paths@."
        !short !total);
  hr ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let inst =
    match Scenarios.scaled_data_collection ~total_nodes:40 ~end_devices:12 () with
    | Ok i -> i
    | Error e -> failwith e
  in
  let g = inst.Instance.graph in
  let yen_test =
    Test.make ~name:"yen-k10-40nodes"
      (Staged.stage (fun () ->
           ignore (Netgraph.Yen.k_shortest g ~src:0 ~dst:12 ~k:10)))
  in
  let plan = Geometry.Building.office ~width:60. ~height:35. ~rooms_x:4 ~rooms_y:3 () in
  let model = Radio.Channel.multi_wall_2_4ghz plan in
  let p1 = Geometry.Point.make 2. 2. and p2 = Geometry.Point.make 55. 30. in
  let pl_test =
    Test.make ~name:"multiwall-path-loss"
      (Staged.stage (fun () -> ignore (Radio.Channel.path_loss model p1 p2)))
  in
  let encode_test =
    Test.make ~name:"approx-encode-40nodes"
      (Staged.stage (fun () -> ignore (Solve.encode_size inst (Solve.approx ~kstar:6 ()))))
  in
  let lp =
    let enc = Result.get_ok (Approx_encoding.encode ~kstar:6 inst) in
    Encode_common.model enc.Approx_encoding.ctx
  in
  let prob = Milp.Simplex.of_model lp in
  let n = Milp.Model.nvars lp in
  let lb = Array.init n (Milp.Model.var_lb lp) and ub = Array.init n (Milp.Model.var_ub lp) in
  let simplex_test =
    Test.make ~name:"simplex-root-lp"
      (Staged.stage (fun () -> ignore (Milp.Simplex.solve prob ~lb ~ub)))
  in
  let benchmark test =
    let metric = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    let raw = Benchmark.all cfg [ metric ] test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) metric
        raw
    in
    Hashtbl.iter
      (fun name ols ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Format.printf "  %-24s %12.1f ns/run@." name est
        | Some _ | None -> Format.printf "  %-24s (no estimate)@." name)
      results
  in
  List.iter benchmark [ yen_test; pl_test; encode_test; simplex_test ];
  hr ()

(* ------------------------------------------------------------------ *)
(* Daemon throughput: warm session cache vs cold -> BENCH_PR8.json     *)
(* ------------------------------------------------------------------ *)

(* An in-process archexd core on a temp-dir Unix socket, hammered by
   concurrent client threads with a K*-perturbed stream over the mixed
   test-scale Table-1 workloads.  Two passes, identical stream: warm
   (session cache on — repeats reuse path pools, presolve trace, cut
   carry and incumbent) and cold (capacity 0 — every request encodes
   and solves from scratch).  Reported: sustained req/s and p50/p99
   latency per pass. *)

type daemon_run = {
  dr_mode : string;  (* "warm" | "cold" *)
  dr_total_s : float;
  dr_requests : int;
  dr_errors : int;
  dr_p50_ms : float;
  dr_p99_ms : float;
  dr_req_per_s : float;
  dr_cache_hits : int;
  dr_cache_misses : int;
}

let daemon_log : daemon_run list ref = ref []

let daemon_clients = 2
let daemon_reqs_per_client = 9
let daemon_workloads = [ "dc-small-dollar"; "dc-small-energy"; "dc-small-mixed" ]
let daemon_kstars = [| 3; 4; 5 |]

(* The resolved pool size the daemon will use (satellite of the
   [--workers 0] auto-detection: 0 resolves on the daemon side). *)
let daemon_workers_flag = nworkers

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Int.min (n - 1) (int_of_float (Float.of_int n *. p /. 100.)))

let daemon_pass ~mode ~capacity =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "archexd-bench-%d-%s.sock" (Unix.getpid ()) mode)
  in
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.c_socket = socket;
      c_workers = daemon_workers_flag;
      c_max_active = daemon_clients;
      c_max_waiting = 2 * daemon_clients;
      c_cache_capacity = capacity;
      c_time_limit = 120.;
    }
  in
  match Server.Daemon.create config with
  | Error e ->
      Format.printf "  %s: daemon start failed: %s@." mode e;
      None
  | Ok d ->
      let dthread = Thread.create (fun () -> ignore (Server.Daemon.run d)) () in
      let lock = Mutex.create () in
      let latencies = ref [] in
      let errors = ref 0 in
      let overrides =
        { Server.Protocol.no_overrides with Server.Protocol.o_rel_gap = Some 1e-4 }
      in
      let client c =
        match Server.Client.connect socket with
        | Error e ->
            Mutex.lock lock;
            errors := !errors + daemon_reqs_per_client;
            Mutex.unlock lock;
            Format.printf "  %s client %d: connect failed: %s@." mode c e
        | Ok conn ->
            Fun.protect
              ~finally:(fun () -> Server.Client.disconnect conn)
              (fun () ->
                for i = 0 to daemon_reqs_per_client - 1 do
                  (* Offset clients through the workload cycle so they
                     mostly touch different templates at any instant;
                     the K* perturbation cycles independently. *)
                  let j = c + i in
                  let name = List.nth daemon_workloads (j mod List.length daemon_workloads) in
                  let kstar = daemon_kstars.(j mod Array.length daemon_kstars) in
                  let t0 = Unix.gettimeofday () in
                  let r =
                    Server.Client.solve conn
                      (Server.Protocol.Workload { name; kstar })
                      overrides
                  in
                  let dt = Unix.gettimeofday () -. t0 in
                  Mutex.lock lock;
                  (match r with
                  | Ok (Server.Protocol.Result _) -> latencies := dt :: !latencies
                  | Ok _ | Error _ -> incr errors);
                  Mutex.unlock lock
                done)
      in
      let t0 = Unix.gettimeofday () in
      let threads = List.init daemon_clients (fun c -> Thread.create client c) in
      List.iter Thread.join threads;
      let total = Unix.gettimeofday () -. t0 in
      let hits, misses = Server.Daemon.cache_stats d in
      Server.Daemon.request_shutdown d;
      Thread.join dthread;
      let sorted = Array.of_list !latencies in
      Array.sort compare sorted;
      let nreq = Array.length sorted in
      let run =
        {
          dr_mode = mode;
          dr_total_s = total;
          dr_requests = nreq;
          dr_errors = !errors;
          dr_p50_ms = 1000. *. percentile sorted 50.;
          dr_p99_ms = 1000. *. percentile sorted 99.;
          dr_req_per_s = float_of_int nreq /. Float.max 1e-9 total;
          dr_cache_hits = hits;
          dr_cache_misses = misses;
        }
      in
      daemon_log := !daemon_log @ [ run ];
      Format.printf
        "  %-4s: %d requests in %.2f s -> %.2f req/s; p50 %.0f ms, p99 %.0f ms; \
         cache %d hits / %d misses; %d error(s)@."
        mode nreq total run.dr_req_per_s run.dr_p50_ms run.dr_p99_ms hits misses
        !errors;
      Some run

let daemon_bench () =
  header "Daemon throughput: warm session cache vs cold (archexd core in-process)";
  Format.printf
    "(%d client threads x %d requests, workloads {%s} with K* cycling %s;@."
    daemon_clients daemon_reqs_per_client
    (String.concat ", " daemon_workloads)
    (String.concat "," (Array.to_list (Array.map string_of_int daemon_kstars)));
  Format.printf
    " shared scheduler pool of %d domain(s)%s.  warm keeps one session per workload;@."
    (if daemon_workers_flag = 0 then Domain.recommended_domain_count ()
     else daemon_workers_flag)
    (if daemon_workers_flag = 0 then " (auto-detected from --workers=0)" else "");
  Format.printf " cold re-encodes and re-solves every request from scratch.)@.@.";
  if Domain.recommended_domain_count () = 1 then
    Format.printf
      "  WARNING: single hardware thread — concurrency is time-sliced, not parallel.@.@.";
  let cold = daemon_pass ~mode:"cold" ~capacity:0 in
  let warm = daemon_pass ~mode:"warm" ~capacity:(List.length daemon_workloads) in
  (match (cold, warm) with
  | Some c, Some w ->
      Format.printf "  => warm throughput %.2fx cold (%s)@."
        (w.dr_req_per_s /. Float.max 1e-9 c.dr_req_per_s)
        (if w.dr_req_per_s > c.dr_req_per_s then "warm WINS" else "cold wins — UNEXPECTED")
  | _ -> ());
  hr ()

let write_daemon_json path =
  let oc = open_out path in
  let runs = !daemon_log in
  Printf.fprintf oc
    "{\n  \"clients\": %d,\n  \"requests_per_client\": %d,\n  \"workloads\": [%s],\n\
    \  \"kstars\": [%s],\n  \"workers_flag\": %d,\n  \"workers_resolved\": %d,\n\
    \  \"host_hardware_threads\": %d,\n  \"single_thread_warning\": %b,\n  \"runs\": [\n"
    daemon_clients daemon_reqs_per_client
    (String.concat ", " (List.map (Printf.sprintf "%S") daemon_workloads))
    (String.concat ", " (Array.to_list (Array.map string_of_int daemon_kstars)))
    daemon_workers_flag
    (if daemon_workers_flag = 0 then Domain.recommended_domain_count ()
     else daemon_workers_flag)
    (Domain.recommended_domain_count ())
    (Domain.recommended_domain_count () = 1);
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"mode\": %S, \"total_s\": %s, \"requests\": %d, \"errors\": %d,\n\
        \     \"req_per_s\": %s, \"p50_ms\": %s, \"p99_ms\": %s,\n\
        \     \"cache_hits\": %d, \"cache_misses\": %d}%s\n"
        r.dr_mode (json_float r.dr_total_s) r.dr_requests r.dr_errors
        (json_float r.dr_req_per_s) (json_float r.dr_p50_ms) (json_float r.dr_p99_ms)
        r.dr_cache_hits r.dr_cache_misses
        (if i = List.length runs - 1 then "" else ","))
    runs;
  let comparison =
    match
      ( List.find_opt (fun r -> r.dr_mode = "warm") runs,
        List.find_opt (fun r -> r.dr_mode = "cold") runs )
    with
    | Some w, Some c ->
        Printf.sprintf
          "    {\"warm_req_per_s\": %s, \"cold_req_per_s\": %s, \"warm_speedup\": %s, \
           \"warm_faster\": %b}"
          (json_float w.dr_req_per_s) (json_float c.dr_req_per_s)
          (json_float (w.dr_req_per_s /. Float.max 1e-9 c.dr_req_per_s))
          (w.dr_req_per_s > c.dr_req_per_s)
    | _ -> ""
  in
  Printf.fprintf oc "  ],\n  \"comparisons\": [\n%s\n  ]\n}\n" comparison;
  close_out oc;
  Format.printf "wrote %s (%d daemon runs)@." path (List.length runs)

(* ------------------------------------------------------------------ *)
(* Scenario matrix: tactical instances, plain B&B vs. the tabu         *)
(* matheuristic -> BENCH_PR9.json                                      *)
(* ------------------------------------------------------------------ *)

(* Deadline-bound tactical instances from the PR9 generator: energy
   objective plus a lifetime floor pushes the B&B root (LP + cut loop +
   dive) out to seconds before the first incumbent, which is where the
   tabu warm start pays.  Each runs twice — [--heuristic off] and
   [--heuristic tabu] — under the same 30 s deadline, recording
   time-to-first-feasible (streamed via [on_incumbent]) and the
   gap at timeout. *)

type mh_entry = {
  mh_scenario : string;
  mh_mode : string;  (* "bb" | "tabu+bb" *)
  mh_wall_s : float;
  mh_status : string;
  mh_objective : float;
  mh_bound : float;
  mh_gap : float;
  mh_first_feasible_s : float;
  mh_heuristic_s : float;
  mh_nodes : int;
}

let mh_log : mh_entry list ref = ref []
let mh_time_limit = 30.
let mh_tabu_budget_s = 1.5

let mh_specs =
  [
    ( "tac-city3-energy",
      Scenario_gen.city_block ~blocks_x:3 ~blocks_y:3 ~sensors:12
        ~relay_grid:(12, 10) ~objective:Scenario_gen.O_energy
        ~min_lifetime_years:2. (),
      6 );
    ( "tac-city4-energy",
      Scenario_gen.city_block ~blocks_x:4 ~blocks_y:4 ~sensors:16
        ~relay_grid:(16, 12) ~objective:Scenario_gen.O_energy
        ~min_lifetime_years:2. (),
      6 );
    ( "tac-mf3-energy",
      Scenario_gen.multi_floor ~floors:3 ~sensors:12 ~relay_grid:(14, 6)
        ~objective:Scenario_gen.O_energy ~min_lifetime_years:3.5 (),
      6 );
  ]

let scenarios_bench () =
  header "Scenario matrix: tactical instances, B&B vs. tabu matheuristic";
  Format.printf
    "(energy objective + lifetime floor, %g s deadline, tabu budget %g s;@."
    mh_time_limit mh_tabu_budget_s;
  Format.printf
    " 'first' = wall clock to first streamed incumbent, 'gap' = |obj-bound|/|obj| at exit.)@.@.";
  Format.printf "%-18s | %-7s | %7s | %9s | %8s | %7s | %7s | %6s@." "Scenario"
    "Mode" "wall(s)" "objective" "gap" "first" "heur(s)" "nodes";
  Format.printf
    "-------------------+---------+---------+-----------+----------+---------+---------+-------@.";
  List.iter
    (fun (name, spec, k) ->
      match Scenario_gen.build spec with
      | Error e -> Format.printf "%-18s | generator error: %s@." name e
      | Ok inst ->
          List.iter
            (fun heur ->
              let t0 = Unix.gettimeofday () in
              let first = ref nan in
              let cfg =
                config ~time_limit:mh_time_limit ~rel_gap:1e-6
                  (Solver_config.approx ~kstar:k ())
                |> Solver_config.with_on_incumbent (fun _ _ ->
                       if Float.is_nan !first then
                         first := Unix.gettimeofday () -. t0)
                |> Solver_config.with_heuristic
                     (if heur then Solver_config.tabu ~time_s:mh_tabu_budget_s ()
                      else Solver_config.no_heuristic)
              in
              let mode_name = if heur then "tabu+bb" else "bb" in
              match time (fun () -> Solve.run cfg inst) with
              | Error e, _ ->
                  Format.printf "%-18s | %-7s | solve error: %s@." name mode_name e
              | Ok out, wall ->
                  let m = out.Outcome.mip in
                  let obj = m.Milp.Branch_bound.objective in
                  let bound = m.Milp.Branch_bound.bound in
                  let gap =
                    if
                      Float.is_finite obj && Float.is_finite bound
                      && Float.abs obj > 1e-9
                    then Float.abs (obj -. bound) /. Float.abs obj
                    else nan
                  in
                  mh_log :=
                    !mh_log
                    @ [
                        {
                          mh_scenario = name;
                          mh_mode = mode_name;
                          mh_wall_s = wall;
                          mh_status = status_str out;
                          mh_objective = obj;
                          mh_bound = bound;
                          mh_gap = gap;
                          mh_first_feasible_s = !first;
                          mh_heuristic_s =
                            out.Outcome.stats.Outcome.heuristic_time_s;
                          mh_nodes = m.Milp.Branch_bound.nodes;
                        };
                      ];
                  Format.printf
                    "%-18s | %-7s | %7.1f | %9.4g | %8.4f | %7.2f | %7.2f | %6d@."
                    name mode_name wall obj gap !first
                    out.Outcome.stats.Outcome.heuristic_time_s
                    m.Milp.Branch_bound.nodes)
            [ false; true ])
    mh_specs;
  (* Per-scenario verdicts: the matheuristic should reach a first
     feasible well sooner and exit with a strictly smaller gap. *)
  List.iter
    (fun (name, _, _) ->
      match
        ( List.find_opt
            (fun e -> e.mh_scenario = name && e.mh_mode = "bb")
            !mh_log,
          List.find_opt
            (fun e -> e.mh_scenario = name && e.mh_mode = "tabu+bb")
            !mh_log )
      with
      | Some b, Some t
        when Float.is_finite b.mh_first_feasible_s
             && Float.is_finite t.mh_first_feasible_s ->
          Format.printf
            "  => %-18s first feasible %.2fx sooner, gap %.4f vs %.4f (%s)@."
            name
            (b.mh_first_feasible_s /. Float.max 1e-9 t.mh_first_feasible_s)
            t.mh_gap b.mh_gap
            (if t.mh_gap < b.mh_gap then "tabu+bb WINS" else "no gap win")
      | _ -> ())
    mh_specs;
  hr ()

let write_scenarios_json path =
  let oc = open_out path in
  let entries = !mh_log in
  Printf.fprintf oc
    "{\n  \"mode\": %S,\n  \"time_limit_s\": %s,\n  \"tabu_budget_s\": %s,\n\
    \  \"runs\": [\n"
    mode (json_float mh_time_limit) (json_float mh_tabu_budget_s);
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"mode\": %S, \"wall_s\": %s, \"status\": %S,\n\
        \     \"objective\": %s, \"bound\": %s, \"gap\": %s,\n\
        \     \"first_feasible_s\": %s, \"heuristic_s\": %s, \"nodes\": %d}%s\n"
        e.mh_scenario e.mh_mode (json_float e.mh_wall_s) e.mh_status
        (json_float e.mh_objective) (json_float e.mh_bound) (json_float e.mh_gap)
        (json_float e.mh_first_feasible_s) (json_float e.mh_heuristic_s)
        e.mh_nodes
        (if i = List.length entries - 1 then "" else ","))
    entries;
  let comparisons =
    List.filter_map
      (fun (name, _, _) ->
        match
          ( List.find_opt
              (fun e -> e.mh_scenario = name && e.mh_mode = "bb")
              entries,
            List.find_opt
              (fun e -> e.mh_scenario = name && e.mh_mode = "tabu+bb")
              entries )
        with
        | Some b, Some t ->
            Some
              (Printf.sprintf
                 "    {\"scenario\": %S, \"bb_first_s\": %s, \"tabu_first_s\": %s,\n\
                 \     \"first_feasible_speedup\": %s, \"bb_gap\": %s, \
                  \"tabu_gap\": %s,\n\
                 \     \"tabu_gap_strictly_smaller\": %b}"
                 name
                 (json_float b.mh_first_feasible_s)
                 (json_float t.mh_first_feasible_s)
                 (json_float
                    (b.mh_first_feasible_s
                    /. Float.max 1e-9 t.mh_first_feasible_s))
                 (json_float b.mh_gap) (json_float t.mh_gap)
                 (Float.is_finite b.mh_gap && Float.is_finite t.mh_gap
                 && t.mh_gap < b.mh_gap))
        | _ -> None)
      mh_specs
  in
  Printf.fprintf oc "  ],\n  \"comparisons\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" comparisons);
  close_out oc;
  Format.printf "wrote %s (%d matheuristic runs)@." path (List.length entries)

(* ------------------------------------------------------------------ *)
(* Problem-structured separation: per-family ablation                  *)
(* -> BENCH_PR10.json                                                  *)
(* ------------------------------------------------------------------ *)

type cut_run = {
  cr_scenario : string;
  cr_label : string;  (* "none" | one family | "generic" | "all" *)
  cr_families : string;
  cr_wall_s : float;
  cr_status : string;
  cr_objective : float;
  cr_bound : float;
  cr_gap : float;  (* remaining relative gap when the run stopped *)
  cr_nodes : int;
  cr_cuts_separated : int;
  cr_cuts_applied : int;
  cr_root_lp_bound : float;
  cr_root_cut_bound : float;
}

let cut_log : cut_run list ref = ref []

(* The ablation axis: every family alone, the generic pair the solver
   had before the structured separators existed, and the full stack. *)
let cut_family_sets =
  [
    ("none", "none");
    ("gmi", "gmi");
    ("cover", "cover");
    ("clique", "clique");
    ("power", "power");
    ("generic", "gmi,cover");
    ("all", "all");
  ]

let cut_gap_closed r =
  if
    Float.is_finite r.cr_root_lp_bound
    && Float.is_finite r.cr_root_cut_bound
    && Float.is_finite r.cr_objective
  then begin
    let denom = Float.abs (r.cr_objective -. r.cr_root_lp_bound) in
    if denom < 1e-9 then 1.0
    else Float.abs (r.cr_root_cut_bound -. r.cr_root_lp_bound) /. denom
  end
  else nan

let cuts_bench () =
  header "Cut separation: per-family root-gap ablation";
  Format.printf
    "(Table-1 scenarios at the table1 budget; one generated tactical scenario at the@.";
  Format.printf
    " scenarios-section budget.  'gap closed' = share of the root integrality gap@.";
  Format.printf
    " closed by the cut loop; 'generic' = gmi+cover, the pre-structured stack.)@.@.";
  let tac_name = "tac-city3-energy" in
  let specs =
    List.filter_map
      (fun (name, objective) ->
        match Scenarios.data_collection ~objective dc_params with
        | Error e ->
            Format.printf "%-18s | scenario error: %s@." name e;
            None
        | Ok inst -> Some (name, inst, dc_config))
      [
        ("table1-dollar", Objective.dollar);
        ("table1-energy", Objective.energy);
        ("table1-mixed", Objective.combine Objective.dollar Objective.energy);
      ]
    @ (match
         Scenario_gen.build
           (Scenario_gen.city_block ~blocks_x:3 ~blocks_y:3 ~sensors:12
              ~relay_grid:(12, 10) ~objective:Scenario_gen.O_energy
              ~min_lifetime_years:2. ())
       with
      | Error e ->
          Format.printf "%-18s | generator error: %s@." tac_name e;
          []
      | Ok inst ->
          [
            ( tac_name,
              inst,
              config ~time_limit:mh_time_limit ~rel_gap:1e-6
                (Solver_config.approx ~kstar:6 ()) );
          ])
  in
  List.iter
    (fun (sname, inst, base_cfg) ->
      Format.printf "%-18s | %-8s | %7s | %9s | %8s | %6s | %5s/%-5s | %10s@."
        sname "Families" "wall(s)" "objective" "gap" "nodes" "sep" "app"
        "gap closed";
      Format.printf
        "-------------------+----------+---------+-----------+----------+--------+-------------+-----------@.";
      List.iter
        (fun (label, spec) ->
          let fams =
            match Milp.Cuts.families_of_string spec with
            | Ok fs -> fs
            | Error e -> failwith e
          in
          let cfg =
            Solver_config.with_kernel
              { base_cfg.Solver_config.kernel with k_cut_families = fams }
              base_cfg
          in
          match time (fun () -> Solve.run cfg inst) with
          | Error e, _ -> Format.printf "%-18s | %-8s | solve error: %s@." sname label e
          | Ok out, wall ->
              let m = out.Outcome.mip in
              let r =
                {
                  cr_scenario = sname;
                  cr_label = label;
                  cr_families = spec;
                  cr_wall_s = wall;
                  cr_status = status_str out;
                  cr_objective = m.Milp.Branch_bound.objective;
                  cr_bound = m.Milp.Branch_bound.bound;
                  cr_gap = Milp.Branch_bound.gap m;
                  cr_nodes = m.Milp.Branch_bound.nodes;
                  cr_cuts_separated = m.Milp.Branch_bound.cuts_separated;
                  cr_cuts_applied = m.Milp.Branch_bound.cuts_applied;
                  cr_root_lp_bound = m.Milp.Branch_bound.root_lp_bound;
                  cr_root_cut_bound = m.Milp.Branch_bound.root_cut_bound;
                }
              in
              cut_log := !cut_log @ [ r ];
              Format.printf
                "%-18s | %-8s | %7.1f | %9.4g | %8.4g | %6d | %5d/%-5d | %10.3f@."
                sname label wall r.cr_objective r.cr_gap r.cr_nodes
                r.cr_cuts_separated r.cr_cuts_applied (cut_gap_closed r))
        cut_family_sets;
      hr ())
    specs;
  (* Per-scenario verdicts, wins and non-wins alike.  Node counts are
     tree sizes only when both runs completed; at a deadline they are
     throughput (nodes processed in the budget), so the honest search-
     efficiency comparison there is the remaining gap instead. *)
  List.iter
    (fun (sname, _, _) ->
      let find label =
        List.find_opt
          (fun r -> r.cr_scenario = sname && r.cr_label = label)
          !cut_log
      in
      match (find "none", find "generic", find "all") with
      | Some n, Some g, Some a ->
          let complete r = r.cr_status = "optimal" in
          let no_worse, metric =
            if complete n && complete a then
              (a.cr_nodes <= n.cr_nodes, "nodes")
            else (a.cr_gap <= n.cr_gap +. 1e-9, "deadline gap")
          in
          Format.printf
            "  => %-18s gap closed %.3f (generic %.3f), nodes %d -> %d, gap %.4g -> %.4g (%s on %s), wall %.1fs -> %.1fs@."
            sname (cut_gap_closed a) (cut_gap_closed g) n.cr_nodes a.cr_nodes
            n.cr_gap a.cr_gap
            (if no_worse then "no worse" else "WORSE")
            metric n.cr_wall_s a.cr_wall_s
      | _ -> ())
    specs;
  hr ()

let write_cuts_json path =
  let oc = open_out path in
  let entries = !cut_log in
  Printf.fprintf oc "{\n  \"mode\": %S,\n  \"runs\": [\n" mode;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"config\": %S, \"families\": %S, \"wall_s\": %s,\n\
        \     \"status\": %S, \"objective\": %s, \"bound\": %s, \"gap\": %s, \"nodes\": %d,\n\
        \     \"cuts_separated\": %d, \"cuts_applied\": %d,\n\
        \     \"root_lp_bound\": %s, \"root_cut_bound\": %s, \"root_gap_closed\": %s}%s\n"
        r.cr_scenario r.cr_label r.cr_families (json_float r.cr_wall_s) r.cr_status
        (json_float r.cr_objective) (json_float r.cr_bound) (json_float r.cr_gap)
        r.cr_nodes r.cr_cuts_separated r.cr_cuts_applied
        (json_float r.cr_root_lp_bound) (json_float r.cr_root_cut_bound)
        (json_float (cut_gap_closed r))
        (if i = List.length entries - 1 then "" else ","))
    entries;
  let scenario_names =
    List.filter
      (fun n -> List.exists (fun r -> r.cr_scenario = n) entries)
      (List.sort_uniq compare (List.map (fun r -> r.cr_scenario) entries))
  in
  let summaries =
    List.filter_map
      (fun sname ->
        let find label =
          List.find_opt
            (fun r -> r.cr_scenario = sname && r.cr_label = label)
            entries
        in
        match (find "none", find "generic", find "all") with
        | Some n, Some g, Some a ->
            (* Node counts compare tree sizes only when both runs ran to
               completion; under a deadline they measure throughput, so
               the search-efficiency verdict falls back to the remaining
               gap at the deadline. *)
            let complete r = r.cr_status = "optimal" in
            let no_worse, metric =
              if complete n && complete a then
                (a.cr_nodes <= n.cr_nodes, "nodes")
              else (a.cr_gap <= n.cr_gap +. 1e-9, "deadline_gap")
            in
            Some
              (Printf.sprintf
                 "    {\"scenario\": %S, \"root_gap_closed_generic\": %s, \
                  \"root_gap_closed_all\": %s,\n\
                 \     \"nodes_none\": %d, \"nodes_all\": %d,\n\
                 \     \"gap_none\": %s, \"gap_all\": %s,\n\
                 \     \"no_worse\": %b, \"no_worse_metric\": %S,\n\
                 \     \"wall_none_s\": %s, \"wall_all_s\": %s, \"wall_win\": %b}"
                 sname
                 (json_float (cut_gap_closed g))
                 (json_float (cut_gap_closed a))
                 n.cr_nodes a.cr_nodes
                 (json_float n.cr_gap) (json_float a.cr_gap)
                 no_worse metric
                 (json_float n.cr_wall_s) (json_float a.cr_wall_s)
                 (a.cr_wall_s < n.cr_wall_s))
        | _ -> None)
      scenario_names
  in
  Printf.fprintf oc "  ],\n  \"summary\": [\n%s\n  ]\n}\n" (String.concat ",\n" summaries);
  close_out oc;
  Format.printf "wrote %s (%d ablation runs)@." path (List.length entries)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  Format.printf "ArchEx reproduction bench harness (paper: Kirov et al., DAC 2018)@.";
  let dc_solved = if section_enabled "table1" then table1 () else [] in
  let loc_solved = if section_enabled "table2" then table2 () else [] in
  if section_enabled "table3" then table3 ();
  if section_enabled "table4" then table4 ();
  if section_enabled "parallel" then parallel_bench ();
  if section_enabled "kernel2" then kernel2_bench ();
  if section_enabled "presolve" then presolve_bench ();
  if section_enabled "figures" then figures dc_solved loc_solved;
  if section_enabled "ablations" then ablations ();
  if section_enabled "micro" then micro ();
  if section_enabled "daemon" then daemon_bench ();
  if section_enabled "scenarios" then scenarios_bench ();
  if section_enabled "cuts" then cuts_bench ();
  if !bench_log <> [] then write_bench_json "BENCH_PR2.json";
  if !par_log <> [] then write_par_json "BENCH_PR4.json";
  if !k2_log <> [] then write_k2_json "BENCH_PR6.json";
  if !ps_log <> [] then write_presolve_json "BENCH_PR7.json";
  if !daemon_log <> [] then write_daemon_json "BENCH_PR8.json";
  if !mh_log <> [] then write_scenarios_json "BENCH_PR9.json";
  if !cut_log <> [] then write_cuts_json "BENCH_PR10.json";
  Format.printf "done.@."
