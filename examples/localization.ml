(* The paper's §4.2 design example: anchor placement for an RSS-based
   indoor localization system with a star topology.  Every evaluation
   point (possible mobile-node position) must receive signal from at
   least 3 deployed anchors at >= -80 dBm; we optimize dollar cost,
   the DSOD accuracy surrogate, and their combination (Table 2).

   Writes fig_localization.svg with evaluation points and the
   synthesized anchor placement.

   Run with:  dune exec examples/localization.exe *)

let params = Archex.Scenarios.default_localization

(* Pure DSOD leaves node count unconstrained; a small cost epsilon
   breaks ties towards economical placements (see DESIGN.md). *)
let dsod_objective = (1., Archex.Objective.Dsod) :: [ (0.2, Archex.Objective.Dollar_cost) ]

let solve_for name objective =
  match Archex.Scenarios.localization ~objective params with
  | Error e -> failwith e
  | Ok inst ->
      let config =
        Archex.Solver_config.(
          default
          |> with_approx ~loc_kstar:8 ()
          |> with_time_limit 90. |> with_rel_gap 0.02)
      in
      let t0 = Unix.gettimeofday () in
      (match Archex.Solve.run config inst with
      | Error e -> failwith e
      | Ok out -> (
          let dt = Unix.gettimeofday () -. t0 in
          match out.Archex.Outcome.solution with
          | None ->
              Format.printf "%-8s | no solution (%s)@." name
                (Milp.Status.mip_status_to_string out.Archex.Outcome.status);
              None
          | Some sol ->
              Format.printf "%-8s | %7d | %6.0f | %9.2f | %8.1f@." name
                sol.Archex.Solution.node_count sol.Archex.Solution.dollar_cost
                (Archex.Solution.avg_reachable sol) dt;
              (match Archex.Solution.check inst sol with
              | Ok () -> ()
              | Error errs -> List.iter (Format.printf "  WARNING: %s@.") errs);
              Some (inst, sol)))

let draw inst (sol : Archex.Solution.t) =
  let template = inst.Archex.Instance.template in
  let sc =
    Geometry.Svg.scene ~width:Archex.Scenarios.(params.loc_width)
      ~height:Archex.Scenarios.(params.loc_height)
  in
  (match Radio.Channel.floorplan inst.Archex.Instance.channel with
  | Some plan -> Geometry.Svg.add_floorplan sc plan
  | None -> ());
  (* Evaluation points as small crosses (grey), anchors as circles. *)
  (match inst.Archex.Instance.requirements.Archex.Requirements.localization with
  | Some loc ->
      Array.iter
        (fun pt ->
          Geometry.Svg.add sc
            (Geometry.Svg.Circle
               (pt, 0.25, { Geometry.Svg.default_style with stroke = "#888"; fill = "#ccc" })))
        loc.Archex.Requirements.eval_points
  | None -> ());
  Array.iteri
    (fun i (n : Archex.Template.node) ->
      let used = Array.mem i sol.Archex.Solution.used_nodes in
      let style =
        if used then { Geometry.Svg.default_style with fill = "#26c"; stroke = "#136" }
        else { Geometry.Svg.default_style with fill = "none"; stroke = "#bbb" }
      in
      Geometry.Svg.add sc (Geometry.Svg.Circle (n.Archex.Template.loc, 0.6, style)))
    (Archex.Template.nodes template);
  Geometry.Svg.write_file "fig_localization.svg" sc;
  Format.printf "@.Placement written to fig_localization.svg@."

let () =
  Format.printf "Localization network (%d anchor candidates, %d evaluation points)@.@."
    (fst params.Archex.Scenarios.loc_anchor_grid * snd params.Archex.Scenarios.loc_anchor_grid)
    (fst params.Archex.Scenarios.loc_eval_grid * snd params.Archex.Scenarios.loc_eval_grid);
  Format.printf "%-8s | %7s | %6s | %9s | %8s@." "Obj." "# Nodes" "$ cost" "Reachable"
    "Time (s)";
  Format.printf "---------+---------+--------+-----------+---------@.";
  let dollar = solve_for "$ cost" Archex.Objective.dollar in
  let _ = solve_for "DSOD" dsod_objective in
  let _ = solve_for "$+DSOD" ((1., Archex.Objective.Dollar_cost) :: dsod_objective) in
  match dollar with Some (inst, sol) -> draw inst sol | None -> ()
