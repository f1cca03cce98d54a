(* Benchmark harness: regenerates the tables and figures of the paper's
   evaluation (DAC'18, §4) — the objective sweeps of Tables 1 and 2,
   full enumeration vs Algorithm 1 in Table 3, the K* sweep of Table 4
   and Figures 1a-1c.

   Instance sizes are scaled relative to the paper (pure-OCaml B&B vs.
   CPLEX on a workstation; see DESIGN.md §2): the claims under test are
   the *shapes* — who wins, by what order of magnitude, where the
   K*-tradeoff bends — not absolute numbers.

   Run with:   dune exec bench/main.exe            (all sections)
               dune exec bench/main.exe -- table3  (one section)
   Sections: table1 table2 table3 table4 figures.  [figures] draws the
   solutions found by [table1] and [table2], so it needs them in the
   same run.

   The harness prints its tables and writes fig1a-c.svg, nothing else.
   The BENCH_PR*.json files at the repo root are a read-only archive of
   sections since retired (EXPERIMENTS.md names the commit that last
   had each); solver-speed numbers come from perfbench/. *)

open Archex

let all_sections = [ "table1"; "table2"; "table3"; "table4"; "figures" ]

(* Flags ([--cuts=gmi,cover], [--workers=4], ...) choose only solver
   axes that are still open questions; the warm-start and reduced-cost
   fixing ablations live in bench/smoke.exe and the archex CLI.  Any
   other argument names a section.  Running the same sections with and
   without a flag measures that choice against identical scenarios.
   [Arg.parse] exits 2 on a bad argument, before anything is solved. *)
let cut_families = ref Milp.Cuts.all_families
let pricing = ref Milp.Simplex.Devex
let harris = ref true
let presolve = ref true
let nworkers = ref 1
let seed = ref 0
let sections = ref []

let () =
  let set_cuts s =
    match Milp.Cuts.families_of_string s with
    | Ok fs -> cut_families := fs
    | Error e -> raise (Arg.Bad e)
  in
  let set_workers n =
    if n < 0 then raise (Arg.Bad "--workers needs N >= 0 (0 = auto-detect)");
    nworkers := n
  in
  let add_section s =
    if not (List.mem s all_sections) then
      raise (Arg.Bad (Printf.sprintf "unknown section %S" s));
    sections := s :: !sections
  in
  Arg.parse
    (Arg.align
       [
         ("--cuts", Arg.String set_cuts, "FAMILIES cut families: all, none or a comma list");
         ( "--pricing",
           Arg.Symbol ([ "dantzig" ], fun _ -> pricing := Milp.Simplex.Dantzig),
           " partial candidate-list Dantzig pricing instead of devex" );
         ("--no-harris", Arg.Clear harris, " classic smallest-ratio tests");
         ("--no-presolve", Arg.Clear presolve, " skip the presolve reduction stack");
         ("--workers", Arg.Int set_workers, "N worker domains per solve (default 1, 0 = auto)");
         ("--seed", Arg.Set_int seed, "N diversification seed (default 0)");
       ])
    add_section
    ("usage: main.exe [SECTION...] [FLAG...]\nsections: " ^ String.concat " " all_sections
   ^ " (default: all)\nflags:")

let section_enabled name = !sections = [] || List.mem name !sections

(* Every table section funnels through this one constructor, so the
   flags and worker count apply uniformly. *)
let config ~time_limit ~rel_gap strategy =
  Solver_config.(
    default
    |> with_strategy strategy
    |> with_time_limit time_limit
    |> with_rel_gap rel_gap
    |> with_options (fun o ->
           {
             o with
             cut_families = !cut_families;
             pricing = !pricing;
             harris = !harris;
             presolve = !presolve;
             nworkers = !nworkers;
             seed = !seed;
           }))

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
  Array.iter
    (fun (i, j) ->
      let a = (Template.node inst.Instance.template i).Template.loc in
      let b = (Template.node inst.Instance.template j).Template.loc in
      Geometry.Svg.add sc
        (Geometry.Svg.Line
           ( Geometry.Segment.make a b,
             { Geometry.Svg.default_style with stroke = "#2266cc"; stroke_width = 1.5 } )))
    sol.Solution.active_edges;
  draw_nodes sc inst (fun i -> Array.mem i sol.Solution.used_nodes);
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
  draw_nodes sc inst (fun i -> Array.mem i sol.Solution.used_nodes);
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
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  Format.printf "ArchEx reproduction bench harness (paper: Kirov et al., DAC 2018)@.";
  let dc_solved = if section_enabled "table1" then table1 () else [] in
  let loc_solved = if section_enabled "table2" then table2 () else [] in
  if section_enabled "table3" then table3 ();
  if section_enabled "table4" then table4 ();
  if section_enabled "figures" then figures dc_solved loc_solved;
  Format.printf "done.@."
