(* Post-synthesis analysis: fault resiliency and Monte-Carlo validation.

   Synthesizes a small data-collection network with two disjoint routes
   per sensor, then (1) enumerates single-node and single-link failures
   to confirm the disjoint replicas actually buy fault tolerance, and
   (2) replays 2000 reporting periods against the stochastic link model
   to check the optimizer's analytical guarantees (ETX bound, lifetime)
   hold empirically.

   Run with:  dune exec examples/analysis.exe *)

let () =
  let params =
    {
      Archex.Scenarios.default_data_collection with
      Archex.Scenarios.dc_sensors = 6;
      dc_relay_grid = (4, 3);
      dc_width = 45.;
      dc_height = 28.;
    }
  in
  let inst =
    match Archex.Scenarios.data_collection params with Ok i -> i | Error e -> failwith e
  in
  let config =
    Archex.Solver_config.(
      default |> with_approx ~kstar:6 () |> with_time_limit 90. |> with_rel_gap 0.02)
  in
  let sol =
    match Archex.Solve.run config inst with
    | Ok { Archex.Outcome.solution = Some s; _ } -> s
    | Ok _ -> failwith "no solution"
    | Error e -> failwith e
  in
  Format.printf "Synthesized: %d nodes, $%.0f, %d routes@.@." sol.Archex.Solution.node_count
    sol.Archex.Solution.dollar_cost
    (Array.length sol.Archex.Solution.routes);

  (* --- Fault resiliency --------------------------------------------- *)
  Format.printf "Single-link failures:@.";
  let link_reports = Archex.Resilience.single_link_faults inst sol in
  let vulnerable =
    List.filter
      (fun (r : Archex.Resilience.report) ->
        r.Archex.Resilience.surviving_routes < r.Archex.Resilience.total_routes)
      link_reports
  in
  if vulnerable = [] then
    Format.printf "  every route survives every single-link failure (disjoint replicas work)@."
  else
    List.iter (fun r -> Format.printf "  %a@." Archex.Resilience.pp_report r) vulnerable;
  Format.printf "Single-node (relay) failures:@.";
  let node_reports = Archex.Resilience.single_node_faults inst sol in
  List.iter (fun r -> Format.printf "  %a@." Archex.Resilience.pp_report r) node_reports;
  Format.printf "worst-case route survival: %.0f%%@.@."
    (100. *. Archex.Resilience.worst_case_survival (link_reports @ node_reports));

  (* --- Monte-Carlo validation --------------------------------------- *)
  let sim =
    Archex.Simulate.run
      ~params:{ Archex.Simulate.default_params with Archex.Simulate.periods = 2000 }
      inst sol
  in
  Format.printf "Monte-Carlo (%d packets):@." sim.Archex.Simulate.generated;
  Format.printf "  delivery ratio      %.4f@." sim.Archex.Simulate.delivery_ratio;
  Format.printf "  empirical ETX       %.3f (encoder bound %.3f)@."
    sim.Archex.Simulate.mean_attempts_per_hop
    (Archex.Instance.etx_bound inst);
  Format.printf "  min battery life    %.1f y (requirement %.1f y)@."
    sim.Archex.Simulate.min_lifetime_years params.Archex.Scenarios.dc_min_lifetime_years;
  match Archex.Simulate.check_against_guarantees inst sol sim with
  | Ok () -> Format.printf "@.Analytical guarantees hold empirically.@."
  | Error es ->
      Format.printf "@.GUARANTEE VIOLATIONS:@.";
      List.iter (Format.printf "  %s@.") es;
      exit 1
