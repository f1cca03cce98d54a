(* Quickstart: a six-node wireless network designed end-to-end.

   Two fixed sensors report to a fixed base station; three candidate
   relay positions are available.  The tool jointly picks which relays
   to deploy, which device realizes every node, and the actual routes,
   minimizing dollar cost under an SNR floor and a lifetime bound.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A floor plan: one 30 x 12 m hall with a single dividing wall. *)
  let wall =
    {
      Geometry.Floorplan.seg = Geometry.Segment.of_coords 15. 0. 15. 9.;
      material = Geometry.Floorplan.Brick;
    }
  in
  let plan = Geometry.Floorplan.create ~width:30. ~height:12. [ wall ] in

  (* 2. The template: fixed sensors + sink, candidate relays. *)
  let p = Geometry.Point.make in
  let node name role loc fixed = { Archex.Template.name; role; loc; fixed } in
  let template =
    Archex.Template.create
      [
        node "s0" Components.Component.Sensor (p 2. 2.) true;
        node "s1" Components.Component.Sensor (p 2. 10.) true;
        node "sink" Components.Component.Sink (p 28. 6.) true;
        node "r0" Components.Component.Relay (p 10. 6.) false;
        node "r1" Components.Component.Relay (p 16. 3.) false;
        node "r2" Components.Component.Relay (p 22. 6.) false;
      ]
  in

  (* 3. Requirements: every sensor routed to the sink, SNR >= 15 dB,
        batteries must last 4 years. *)
  let sink = Option.get (Archex.Template.index_of template "sink") in
  let requirements =
    let r = Archex.Requirements.empty in
    let r = Archex.Requirements.add_route r ~src:0 ~dst:sink in
    let r = Archex.Requirements.add_route r ~src:1 ~dst:sink in
    { r with Archex.Requirements.min_snr_db = Some 15.; min_lifetime_years = Some 4. }
  in

  (* 4. Assemble the instance: built-in component library, multi-wall
        channel model over the plan, default TDMA protocol. *)
  let inst =
    Archex.Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:(Radio.Channel.multi_wall_2_4ghz plan)
      ~requirements ~objective:Archex.Objective.dollar ()
  in

  (* 5. Solve with the approximate path encoding (Algorithm 1, K* = 4). *)
  let config = Archex.Solver_config.(default |> with_approx ~kstar:4 ()) in
  let sol = Archex.Solve.run_exn config inst in

  (* 6. Inspect the result. *)
  Format.printf "%a@.@." (Archex.Solution.pp_summary inst) sol;
  Array.iter
    (fun (i, c) ->
      Format.printf "  %-5s -> %s@."
        (Archex.Template.node template i).Archex.Template.name
        c.Components.Component.name)
    sol.Archex.Solution.devices;
  Array.iter
    (fun rr ->
      Format.printf "  route %d: %a@." rr.Archex.Solution.rr_req Netgraph.Path.pp
        rr.Archex.Solution.rr_path)
    sol.Archex.Solution.routes;
  match Archex.Solution.check inst sol with
  | Ok () -> Format.printf "@.All requirements verified against the physical models.@."
  | Error errs ->
      Format.printf "@.VALIDATION FAILED:@.";
      List.iter (Format.printf "  %s@.") errs;
      exit 1
