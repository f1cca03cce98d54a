(* The paper's §4.1 design example: an indoor WSN for periodic data
   collection, optimized for three different objectives (dollar cost,
   energy, and their combination), with two disjoint routes per sensor,
   SNR >= 20 dB on every link and a 5-year lifetime requirement.

   Produces a Table-1-style report and writes fig_data_collection.svg
   with the synthesized topology.

   Run with:  dune exec examples/data_collection.exe [-- --small] *)

let small = Array.exists (fun a -> a = "--small") Sys.argv

let params =
  if small then
    {
      Archex.Scenarios.default_data_collection with
      Archex.Scenarios.dc_sensors = 6;
      dc_relay_grid = (4, 3);
      dc_width = 45.;
      dc_height = 28.;
    }
  else Archex.Scenarios.default_data_collection

let solve_for name objective =
  match Archex.Scenarios.data_collection ~objective params with
  | Error e -> failwith e
  | Ok inst ->
      let config =
        Archex.Solver_config.(
          default |> with_approx ~kstar:6 () |> with_time_limit 120. |> with_rel_gap 5e-3)
      in
      let t0 = Unix.gettimeofday () in
      (match Archex.Solve.run config inst with
      | Error e -> failwith e
      | Ok out ->
          let dt = Unix.gettimeofday () -. t0 in
          (match out.Archex.Outcome.solution with
          | None ->
              Format.printf "%-10s | no solution (%s)@." name
                (Milp.Status.mip_status_to_string out.Archex.Outcome.status);
              None
          | Some sol ->
              Format.printf "%-10s | %7d | %6.0f | %11.2f | %8.1f@." name
                sol.Archex.Solution.node_count sol.Archex.Solution.dollar_cost
                (Archex.Solution.avg_lifetime_years inst sol)
                dt;
              (match Archex.Solution.check inst sol with
              | Ok () -> ()
              | Error errs ->
                  Format.printf "  WARNING: validation failures:@.";
                  List.iter (Format.printf "    %s@.") errs);
              Some (inst, sol)))

let draw inst (sol : Archex.Solution.t) =
  let template = inst.Archex.Instance.template in
  let plan =
    Radio.Channel.floorplan inst.Archex.Instance.channel
  in
  let w = Archex.Scenarios.(params.dc_width) and h = Archex.Scenarios.(params.dc_height) in
  let sc = Geometry.Svg.scene ~width:w ~height:h in
  Option.iter (Geometry.Svg.add_floorplan sc) plan;
  (* Active links. *)
  Array.iter
    (fun (i, j) ->
      let a = (Archex.Template.node template i).Archex.Template.loc in
      let b = (Archex.Template.node template j).Archex.Template.loc in
      Geometry.Svg.add sc
        (Geometry.Svg.Line
           ( Geometry.Segment.make a b,
             { Geometry.Svg.default_style with stroke = "#2266cc"; stroke_width = 1.5 } )))
    sol.Archex.Solution.active_edges;
  (* Nodes: sensors green, sink red, deployed relays blue, unused
     candidates hollow grey. *)
  Array.iteri
    (fun i (n : Archex.Template.node) ->
      let used = Array.mem i sol.Archex.Solution.used_nodes in
      let style =
        match n.Archex.Template.role with
        | Components.Component.Sensor ->
            { Geometry.Svg.default_style with fill = "#2a2"; stroke = "#161" }
        | Components.Component.Sink ->
            { Geometry.Svg.default_style with fill = "#c22"; stroke = "#611" }
        | Components.Component.Relay | Components.Component.Anchor ->
            if used then { Geometry.Svg.default_style with fill = "#26c"; stroke = "#136" }
            else { Geometry.Svg.default_style with fill = "none"; stroke = "#999" }
      in
      Geometry.Svg.add sc (Geometry.Svg.Circle (n.Archex.Template.loc, 0.5, style)))
    (Archex.Template.nodes template);
  Geometry.Svg.write_file "fig_data_collection.svg" sc;
  Format.printf "@.Topology written to fig_data_collection.svg@."

let () =
  Format.printf "Data collection WSN (%d sensors, %d template nodes)@.@."
    Archex.Scenarios.(params.dc_sensors)
    (match Archex.Scenarios.data_collection params with
    | Ok i -> Archex.Template.nnodes i.Archex.Instance.template
    | Error _ -> 0);
  Format.printf "%-10s | %7s | %6s | %11s | %8s@." "Objective" "# Nodes" "$ cost"
    "Lifetime(y)" "Time (s)";
  Format.printf "-----------+---------+--------+-------------+---------@.";
  let dollar = solve_for "$ cost" Archex.Objective.dollar in
  let _ = solve_for "Energy" Archex.Objective.energy in
  let _ =
    solve_for "$+Energy" (Archex.Objective.combine Archex.Objective.dollar Archex.Objective.energy)
  in
  match dollar with Some (inst, sol) -> draw inst sol | None -> ()
