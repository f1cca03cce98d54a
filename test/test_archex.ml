(* Tests for the core library: templates, requirements, instances,
   Algorithm 1 (path generation), the two MILP encodings, end-to-end
   solving, and solution extraction/validation.  Integration tests use
   tiny instances so the whole suite stays fast. *)

open Archex

let qt = QCheck_alcotest.to_alcotest

let p = Geometry.Point.make

let node ?(fixed = false) name role loc = { Template.name; role; loc; fixed }

let sensor = Components.Component.Sensor

let relay = Components.Component.Relay

let sink = Components.Component.Sink

let anchor = Components.Component.Anchor

(* A small open-space template: 2 sensors, 3 relay candidates, 1 sink. *)
let small_template () =
  Template.create
    [
      node ~fixed:true "s0" sensor (p 0. 0.);
      node ~fixed:true "s1" sensor (p 0. 10.);
      node ~fixed:true "sink" sink (p 30. 5.);
      node "r0" relay (p 10. 5.);
      node "r1" relay (p 16. 2.);
      node "r2" relay (p 22. 5.);
    ]

let small_requirements ?(replicas = 1) ?(snr = 10.) ?(lifetime = None) () =
  let r = Requirements.empty in
  let r = Requirements.add_route ~replicas r ~src:0 ~dst:2 in
  let r = Requirements.add_route ~replicas r ~src:1 ~dst:2 in
  { r with Requirements.min_snr_db = Some snr; min_lifetime_years = lifetime }

let small_instance ?replicas ?snr ?lifetime ?(objective = Objective.dollar) () =
  Instance.create_exn
    ~template:(small_template ())
    ~library:Components.Library.builtin ~channel:Radio.Channel.log_distance_2_4ghz
    ~requirements:(small_requirements ?replicas ?snr ?lifetime ())
    ~objective ()

(* ------------------------------------------------------------------ *)
(* Template                                                            *)
(* ------------------------------------------------------------------ *)

let test_template_basics () =
  let t = small_template () in
  Alcotest.(check int) "nodes" 6 (Template.nnodes t);
  Alcotest.(check (option int)) "index" (Some 2) (Template.index_of t "sink");
  Alcotest.(check (option int)) "missing" None (Template.index_of t "zzz");
  Alcotest.(check (list int)) "sensors" [ 0; 1 ] (Template.find_role t sensor);
  Alcotest.(check (list int)) "fixed" [ 0; 1; 2 ] (Template.fixed_indices t)

let test_template_rejects_duplicates () =
  Alcotest.(check bool) "duplicate name" true
    (try
       ignore (Template.create [ node "x" relay (p 0. 0.); node "x" relay (p 1. 1.) ]);
       false
     with Invalid_argument _ -> true)

let test_template_link_roles () =
  let t = small_template () in
  let pl = Radio.Channel.path_loss_matrix Radio.Channel.log_distance_2_4ghz (Template.locations t) in
  let g = Template.candidate_links t ~pl in
  (* No edges into sensors, none out of the sink. *)
  Alcotest.(check int) "sensor in-degree" 0 (Netgraph.Digraph.in_degree g 0);
  Alcotest.(check int) "sink out-degree" 0 (Netgraph.Digraph.out_degree g 2);
  Alcotest.(check bool) "relay-relay exists" true (Netgraph.Digraph.mem_edge g 3 4)

let test_template_max_path_loss_prunes () =
  let t = small_template () in
  let pl = Radio.Channel.path_loss_matrix Radio.Channel.log_distance_2_4ghz (Template.locations t) in
  let loose = Template.candidate_links ~max_path_loss:200. t ~pl in
  let tight = Template.candidate_links ~max_path_loss:70. t ~pl in
  Alcotest.(check bool) "pruning reduces edges" true
    (Netgraph.Digraph.nedges tight < Netgraph.Digraph.nedges loose)

(* ------------------------------------------------------------------ *)
(* Requirements                                                        *)
(* ------------------------------------------------------------------ *)

let test_requirements_validate () =
  let ok r = Alcotest.(check bool) "valid" true (Result.is_ok (Requirements.validate r ~nnodes:6)) in
  let bad r = Alcotest.(check bool) "invalid" true (Result.is_error (Requirements.validate r ~nnodes:6)) in
  ok (small_requirements ());
  bad (Requirements.add_route Requirements.empty ~src:0 ~dst:9);
  bad (Requirements.add_route Requirements.empty ~src:3 ~dst:3);
  bad (Requirements.add_route ~replicas:0 Requirements.empty ~src:0 ~dst:2);
  bad { Requirements.empty with Requirements.max_ber = Some 0.9 };
  bad { Requirements.empty with Requirements.min_lifetime_years = Some (-1.) };
  bad
    {
      Requirements.empty with
      Requirements.localization =
        Some { Requirements.min_anchors = 3; loc_min_rss_dbm = -80.; eval_points = [||] };
    }

let test_requirements_total_paths () =
  Alcotest.(check int) "2 + 2" 4 (Requirements.total_path_count (small_requirements ~replicas:2 ()))

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let test_instance_validates_library () =
  let lib = Components.Library.of_list_exn
      [ Components.Component.make ~name:"only-relay" ~role:relay ~cost:1. () ] in
  match
    Instance.create ~template:(small_template ()) ~library:lib
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:(small_requirements ())
      ~objective:Objective.dollar ()
  with
  | Error e -> Alcotest.(check bool) "mentions missing role" true
      (Astring.String.is_infix ~affix:"no device" e)
  | Ok _ -> Alcotest.fail "expected missing-role error"

let test_instance_min_snr_combination () =
  (* max of explicit SNR, RSS-derived and BER-derived floors. *)
  let template = small_template () in
  let reqs =
    { (small_requirements ~snr:5. ()) with Requirements.min_rss_dbm = Some (-85.) }
  in
  let inst =
    Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  (* RSS -85 over noise -100 gives 15 dB > explicit 5 dB. *)
  Alcotest.(check (float 1e-9)) "snr floor" 15. (Instance.min_snr_db inst)

let test_instance_etx_bound () =
  let inst = small_instance ~snr:20. () in
  let e = Instance.etx_bound inst in
  Alcotest.(check bool) "clean threshold ~1" true (e >= 1. && e < 1.01);
  let inst2 = small_instance ~snr:1. () in
  Alcotest.(check bool) "dirty threshold larger" true (Instance.etx_bound inst2 > e)

let test_instance_devices_for () =
  let inst = small_instance () in
  let devs = Instance.devices_for inst 0 in
  Alcotest.(check bool) "sensor devices only" true
    (devs <> []
    && List.for_all (fun (_, c) -> c.Components.Component.role = sensor) devs)

let test_instance_latency_hop_bound () =
  (* Superframe = 16 ms; 50 ms deadline -> at most 3 hops. *)
  let reqs =
    { (Requirements.add_route ~max_latency_s:0.05 Requirements.empty ~src:0 ~dst:2) with
      Requirements.min_snr_db = Some 5. }
  in
  let inst =
    Instance.create_exn ~template:(small_template ()) ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  match inst.Instance.requirements.Requirements.routes with
  | [ r ] -> (
      match Instance.effective_hop_bounds inst r with
      | [ { Requirements.hop_sense = `Le; hops } ] -> Alcotest.(check int) "3 hops" 3 hops
      | _ -> Alcotest.fail "expected one derived bound")
  | _ -> Alcotest.fail "expected one route"

(* ------------------------------------------------------------------ *)
(* Path generation (Algorithm 1)                                       *)
(* ------------------------------------------------------------------ *)

let test_pathgen_produces_pools () =
  let inst = small_instance ~replicas:2 () in
  match Path_gen.generate ~kstar:4 inst with
  | Error e -> Alcotest.fail e
  | Ok { pools; _ } ->
      Alcotest.(check int) "one pool per route" 2 (List.length pools);
      List.iter
        (fun pool ->
          Alcotest.(check bool) "pool non-empty" true (pool.Path_gen.pool <> []);
          List.iter
            (fun path ->
              Alcotest.(check bool) "valid path" true
                (Netgraph.Path.is_valid inst.Instance.graph path);
              Alcotest.(check (option int)) "right source" (Some pool.Path_gen.src)
                (Netgraph.Path.source path);
              Alcotest.(check (option int)) "right destination" (Some pool.Path_gen.dst)
                (Netgraph.Path.destination path))
            pool.Path_gen.pool)
        pools

let test_pathgen_disjoint_capacity () =
  let inst = small_instance ~replicas:2 () in
  match Path_gen.generate ~kstar:4 inst with
  | Error e -> Alcotest.fail e
  | Ok { pools; _ } ->
      List.iter
        (fun pool ->
          (* The pool must contain at least 2 mutually edge-disjoint
             paths (the replica requirement). *)
          let rec greedy chosen = function
            | [] -> List.length chosen
            | q :: rest ->
                if List.for_all (fun c -> Netgraph.Path.edge_disjoint q c) chosen then
                  greedy (q :: chosen) rest
                else greedy chosen rest
          in
          Alcotest.(check bool) "2 disjoint available" true (greedy [] pool.Path_gen.pool >= 2))
        pools

let test_pathgen_pool_distinct () =
  let inst = small_instance () in
  match Path_gen.generate ~kstar:6 inst with
  | Error e -> Alcotest.fail e
  | Ok { pools; _ } ->
      List.iter
        (fun pool ->
          let n = List.length pool.Path_gen.pool in
          let d = List.length (List.sort_uniq compare pool.Path_gen.pool) in
          Alcotest.(check int) "no duplicate candidates" n d)
        pools

let test_pathgen_hop_bound_filter () =
  let reqs =
    {
      (Requirements.add_route
         ~hop_bounds:[ { Requirements.hop_sense = `Le; hops = 1 } ]
         Requirements.empty ~src:0 ~dst:2)
      with
      Requirements.min_snr_db = Some (-20.) (* allow the long direct hop *);
    }
  in
  let inst =
    Instance.create_exn ~template:(small_template ()) ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  match Path_gen.generate ~kstar:8 inst with
  | Error e -> Alcotest.fail e
  | Ok { pools; _ } ->
      List.iter
        (fun pool ->
          List.iter
            (fun path ->
              Alcotest.(check bool) "1 hop max" true (Netgraph.Path.length path <= 1))
            pool.Path_gen.pool)
        pools

let test_pathgen_lq_filter_drops () =
  (* With a brutal SNR requirement nothing is reachable. *)
  let inst = small_instance ~snr:80. () in
  match Path_gen.generate ~kstar:4 inst with
  | Error e ->
      Alcotest.(check bool) "explains missing candidates" true
        (Astring.String.is_infix ~affix:"no feasible candidate" e)
  | Ok _ -> Alcotest.fail "expected failure under 80 dB SNR requirement"

let test_pathgen_best_case_rss () =
  let inst = small_instance () in
  (* best case includes the strongest sensor option (4.5 dBm + 3 dBi)
     and the best receiver gain at a relay (3 dBi). *)
  let rss = Path_gen.best_case_rss inst 0 3 in
  let pl = inst.Instance.pl.(0).(3) in
  Alcotest.(check (float 1e-9)) "budget arithmetic" (-.pl +. 7.5 +. 3.) rss

let test_pathgen_localization_candidates () =
  let template =
    Template.create
      [ node "a0" anchor (p 0. 0.); node "a1" anchor (p 5. 0.); node "a2" anchor (p 20. 0.) ]
  in
  let reqs =
    {
      Requirements.empty with
      Requirements.localization =
        Some
          {
            Requirements.min_anchors = 1;
            loc_min_rss_dbm = -90.;
            eval_points = [| p 1. 0. |];
          };
    }
  in
  let inst =
    Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  match Path_gen.localization_candidates inst ~kstar:2 with
  | [ (0, cands) ] ->
      Alcotest.(check int) "two nearest" 2 (List.length cands);
      Alcotest.(check bool) "farthest excluded" true (not (List.mem 2 cands))
  | _ -> Alcotest.fail "expected one eval point"

(* ------------------------------------------------------------------ *)
(* Encodings                                                           *)
(* ------------------------------------------------------------------ *)

let test_encoding_sizes () =
  let inst = small_instance ~replicas:2 () in
  match (Solve.encode_size inst Solve.Full_enum, Solve.encode_size inst (Solve.approx ~kstar:3 ())) with
  | Ok (fv, fc), Ok (av, ac) ->
      Alcotest.(check bool) "approx much smaller (vars)" true (av * 2 < fv);
      Alcotest.(check bool) "approx much smaller (cons)" true (ac * 2 < fc)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_encoding_kstar_grows () =
  let inst = small_instance ~replicas:2 () in
  match
    (Solve.encode_size inst (Solve.approx ~kstar:2 ()), Solve.encode_size inst (Solve.approx ~kstar:6 ()))
  with
  | Ok (v2, _), Ok (v6, _) -> Alcotest.(check bool) "larger K* -> more vars" true (v6 >= v2)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* End-to-end solving                                                  *)
(* ------------------------------------------------------------------ *)

(* One config per strategy; everything else at defaults + a test cap. *)
let config strategy =
  Solver_config.(default |> with_strategy strategy |> with_time_limit 60.)

let run_ok inst strategy =
  match Solve.run (config strategy) inst with
  | Ok ({ Outcome.solution = Some sol; _ } as out) -> (out, sol)
  | Ok { Outcome.status; _ } ->
      Alcotest.fail ("no solution: " ^ Milp.Status.mip_status_to_string status)
  | Error e -> Alcotest.fail e

let test_solve_approx_small () =
  let inst = small_instance () in
  let _, sol = run_ok inst (Solve.approx ~kstar:3 ()) in
  (match Solution.check inst sol with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  Alcotest.(check int) "both routes extracted" 2 (Array.length sol.Solution.routes);
  Alcotest.(check bool) "cost positive" true (sol.Solution.dollar_cost > 0.)

let test_solve_full_matches_or_beats_approx () =
  (* The approximate encoding restricts routing choices, so its optimum
     can never beat the exhaustive one. *)
  let inst = small_instance () in
  let outf, solf = run_ok inst Solve.Full_enum in
  let outa, sola = run_ok inst (Solve.approx ~kstar:3 ()) in
  Alcotest.(check bool) "full solved" true (outf.Outcome.status = Milp.Status.Mip_optimal);
  Alcotest.(check bool) "approx solved" true (outa.Outcome.status = Milp.Status.Mip_optimal);
  Alcotest.(check bool)
    (Printf.sprintf "full (%.1f) <= approx (%.1f)" solf.Solution.dollar_cost sola.Solution.dollar_cost)
    true
    (solf.Solution.dollar_cost <= sola.Solution.dollar_cost +. 1e-6);
  match Solution.check inst solf with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_solve_disjoint_replicas () =
  let inst = small_instance ~replicas:2 () in
  let _, sol = run_ok inst (Solve.approx ~kstar:6 ()) in
  (match Solution.check inst sol with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  Alcotest.(check int) "four paths" 4 (Array.length sol.Solution.routes);
  (* Check disjointness directly too. *)
  List.iter
    (fun req ->
      let paths =
        List.filter_map
          (fun rr -> if rr.Solution.rr_req = req then Some rr.Solution.rr_path else None)
          (Array.to_list sol.Solution.routes)
      in
      match paths with
      | [ a; b ] ->
          Alcotest.(check bool) "replicas disjoint" true (Netgraph.Path.edge_disjoint a b)
      | _ -> Alcotest.fail "expected two replicas")
    [ 0; 1 ]

let test_solve_lifetime_constraint_bites () =
  (* An aggressive lifetime bound forces low-power components or fails;
     with frequent reporting the cheap relay's TX current can be too
     hungry.  We mainly check that the returned solution truly honours
     the bound according to the physics model. *)
  let proto = Energy.Tdma.make ~report_period_s:1. () in
  let inst =
    Instance.create_exn ~protocol:proto
      ~template:(small_template ())
      ~library:Components.Library.builtin ~channel:Radio.Channel.log_distance_2_4ghz
      ~requirements:(small_requirements ~lifetime:(Some 2.) ())
      ~objective:Objective.dollar ()
  in
  match Solve.run (config (Solve.approx ~kstar:4 ())) inst with
  | Ok { Outcome.solution = Some sol; _ } -> (
      match Solution.check inst sol with
      | Ok () -> ()
      | Error errs -> Alcotest.fail (String.concat "; " errs))
  | Ok _ -> () (* genuinely infeasible is acceptable for this bound *)
  | Error e -> Alcotest.fail e

let test_solve_energy_objective () =
  let inst_cost = small_instance ~objective:Objective.dollar () in
  let inst_energy = small_instance ~objective:Objective.energy () in
  let _, sol_cost = run_ok inst_cost (Solve.approx ~kstar:4 ()) in
  let _, sol_energy = run_ok inst_energy (Solve.approx ~kstar:4 ()) in
  let current sol = Solution.total_avg_current_ma sol in
  Alcotest.(check bool)
    (Printf.sprintf "energy objective saves current (%.4f <= %.4f)" (current sol_energy)
       (current sol_cost))
    true
    (current sol_energy <= current sol_cost +. 1e-9)

let test_solve_localization_end_to_end () =
  let template =
    Template.create
      (List.init 6 (fun i -> node (Printf.sprintf "a%d" i) anchor (p (float_of_int i *. 8.) 0.)))
  in
  let evals = Array.init 5 (fun i -> p (4. +. (float_of_int i *. 8.)) 1.) in
  let reqs =
    {
      Requirements.empty with
      Requirements.localization =
        Some { Requirements.min_anchors = 2; loc_min_rss_dbm = -75.; eval_points = evals };
    }
  in
  let inst =
    Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  let _, sol = run_ok inst (Solve.approx ~loc_kstar:4 ()) in
  (match Solution.check inst sol with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  Alcotest.(check bool) "coverage at least 2 everywhere" true
    (Array.for_all (fun c -> c >= 2) sol.Solution.reachable_counts)

let test_solution_check_catches_bad_device () =
  let inst = small_instance () in
  let _, sol = run_ok inst (Solve.approx ~kstar:3 ()) in
  (* Corrupt the solution: claim a relay device on a sensor node. *)
  let bad_dev = Components.Library.find_exn Components.Library.builtin "relay-basic" in
  let bad =
    { sol with Solution.devices = Array.map (fun (i, c) -> (i, if i = 0 then bad_dev else c)) sol.Solution.devices }
  in
  Alcotest.(check bool) "role mismatch detected" true (Result.is_error (Solution.check inst bad))

let test_solution_check_catches_missing_fixed () =
  let inst = small_instance () in
  let _, sol = run_ok inst (Solve.approx ~kstar:3 ()) in
  let bad =
    { sol with Solution.used_nodes = Array.of_list (List.filter (fun i -> i <> 0) (Array.to_list sol.Solution.used_nodes)) }
  in
  Alcotest.(check bool) "unused fixed node detected" true (Result.is_error (Solution.check inst bad))

let test_solve_infeasible_reported () =
  (* Demand 3 disjoint paths from a sensor that can reach at most 2
     first hops within the SNR budget: should fail cleanly, either at
     generation or in the MILP. *)
  let template =
    Template.create
      [
        node ~fixed:true "s0" sensor (p 0. 0.);
        node ~fixed:true "sink" sink (p 20. 0.);
        node "r0" relay (p 10. 0.);
      ]
  in
  let reqs =
    { (Requirements.add_route ~replicas:3 Requirements.empty ~src:0 ~dst:1) with
      Requirements.min_snr_db = Some 10. }
  in
  let inst =
    Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  match Solve.run (config (Solve.approx ~kstar:6 ())) inst with
  | Error _ -> () (* Algorithm 1 could not build 3 disjoint candidates *)
  | Ok { Outcome.solution = None; _ } -> ()
  | Ok { Outcome.solution = Some _; _ } -> Alcotest.fail "expected infeasibility"

(* Property: on random small templates, whenever both encodings solve
   to optimality, full <= approx, and both solutions validate. *)
let random_template_gen =
  QCheck2.Gen.(
    let* nrelays = int_range 2 4 in
    let* seed = int_range 0 1000 in
    return (nrelays, seed))

let prop_full_no_worse_than_approx =
  QCheck2.Test.make ~name:"solve: full enumeration never loses to Algorithm 1" ~count:12
    random_template_gen (fun (nrelays, seed) ->
      let rng = Random.State.make [| seed |] in
      let relays =
        List.init nrelays (fun i ->
            node
              (Printf.sprintf "r%d" i)
              relay
              (p (5. +. Random.State.float rng 20.) (Random.State.float rng 10.)))
      in
      let template =
        Template.create
          ([ node ~fixed:true "s0" sensor (p 0. 5.); node ~fixed:true "sink" sink (p 30. 5.) ]
          @ relays)
      in
      let reqs =
        { (Requirements.add_route Requirements.empty ~src:0 ~dst:1) with
          Requirements.min_snr_db = Some 8. }
      in
      let inst =
        Instance.create_exn ~template ~library:Components.Library.builtin
          ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs
          ~objective:Objective.dollar ()
      in
      match
        ( Solve.run (config Solve.Full_enum) inst,
          Solve.run (config (Solve.approx ~kstar:3 ())) inst )
      with
      | Ok { Outcome.solution = Some f; status = Milp.Status.Mip_optimal; _ },
        Ok { Outcome.solution = Some a; status = Milp.Status.Mip_optimal; _ } ->
          Result.is_ok (Solution.check inst f)
          && Result.is_ok (Solution.check inst a)
          && f.Solution.dollar_cost <= a.Solution.dollar_cost +. 1e-6
      | Ok { Outcome.solution = None; _ }, Ok { Outcome.solution = None; _ } -> true
      | Error _, Error _ -> true
      | _ -> true (* mixed timeouts are not failures *))


(* ------------------------------------------------------------------ *)
(* Scenarios and K* search                                             *)
(* ------------------------------------------------------------------ *)

let test_scenarios_data_collection_builds () =
  match Scenarios.data_collection Scenarios.default_data_collection with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let t = inst.Instance.template in
      Alcotest.(check int) "sensor count" Scenarios.default_data_collection.Scenarios.dc_sensors
        (List.length (Template.find_role t sensor));
      Alcotest.(check int) "one sink" 1 (List.length (Template.find_role t sink));
      Alcotest.(check int) "routes" Scenarios.default_data_collection.Scenarios.dc_sensors
        (List.length inst.Instance.requirements.Requirements.routes);
      Alcotest.(check bool) "graph connected enough" true
        (Netgraph.Digraph.nedges inst.Instance.graph > 0)

let test_scenarios_deterministic () =
  match
    ( Scenarios.data_collection Scenarios.default_data_collection,
      Scenarios.data_collection Scenarios.default_data_collection )
  with
  | Ok a, Ok b ->
      let locs t = Array.map (fun (n : Template.node) -> n.Template.loc) (Template.nodes t) in
      Alcotest.(check bool) "same node locations" true
        (locs a.Instance.template = locs b.Instance.template)
  | _ -> Alcotest.fail "scenario failed"

let test_scenarios_localization_builds () =
  match Scenarios.localization Scenarios.default_localization with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      Alcotest.(check int) "anchors only"
        (Template.nnodes inst.Instance.template)
        (List.length (Template.find_role inst.Instance.template anchor));
      match inst.Instance.requirements.Requirements.localization with
      | Some l ->
          Alcotest.(check int) "eval points" 30 (Array.length l.Requirements.eval_points)
      | None -> Alcotest.fail "no localization requirement")

let test_scenarios_scaled_sizes () =
  match Scenarios.scaled_data_collection ~total_nodes:25 ~end_devices:8 () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      (* total = sensors + sink + relay grid (grid rounds up). *)
      Alcotest.(check bool) "node count near target" true
        (abs (Template.nnodes inst.Instance.template - 25) <= 4);
      Alcotest.(check int) "end devices" 8
        (List.length (Template.find_role inst.Instance.template sensor))

let test_scenarios_scaled_rejects_bad () =
  Alcotest.(check bool) "too small" true
    (try
       ignore (Scenarios.scaled_data_collection ~total_nodes:3 ~end_devices:5 ());
       false
     with Invalid_argument _ -> true)

(* Kstar.search overrides the strategy's loc_kstar itself; the default
   strategy is fine here. *)
let kstar_config = Solver_config.(default |> with_time_limit 60.)

let test_kstar_search_improves () =
  let inst = small_instance () in
  let r = Kstar.search ~schedule:[ 1; 3 ] kstar_config inst in
  Alcotest.(check bool) "at least one step" true (r.Kstar.steps <> []);
  (match r.Kstar.best with
  | Some (_, sol) ->
      Alcotest.(check bool) "best validates" true (Result.is_ok (Solution.check inst sol))
  | None -> Alcotest.fail "no best solution");
  (* Costs along the schedule are recorded in order. *)
  List.iter
    (fun st ->
      Alcotest.(check bool) "objective present for solved steps" true
        (st.Kstar.objective <> None || st.Kstar.outcome.Outcome.solution = None))
    r.Kstar.steps

let test_kstar_respects_time_threshold () =
  let inst = small_instance () in
  let r = Kstar.search ~schedule:[ 1; 2; 3; 4; 5 ] ~time_threshold_s:0. kstar_config inst in
  (* The first solve exceeds a 0-second threshold, so the search stops
     after one step. *)
  Alcotest.(check int) "stopped after first step" 1 (List.length r.Kstar.steps);
  Alcotest.(check bool) "reason is time" true (r.Kstar.stopped_because = `Time_threshold)

let test_kstar_stops_on_no_improvement () =
  let inst = small_instance () in
  (* A repeated K* extends the pool by nothing, so the second step's
     objective is identical and the stall detector must fire before the
     remaining schedule runs. *)
  let r = Kstar.search ~schedule:[ 3; 3; 6 ] kstar_config inst in
  Alcotest.(check int) "stopped after the repeat" 2 (List.length r.Kstar.steps);
  Alcotest.(check bool) "reason is stall" true (r.Kstar.stopped_because = `No_improvement)

let test_kstar_schedule_exhausted () =
  let inst = small_instance () in
  let r = Kstar.search ~schedule:[ 2 ] kstar_config inst in
  Alcotest.(check int) "one step" 1 (List.length r.Kstar.steps);
  Alcotest.(check bool) "reason is exhaustion" true
    (r.Kstar.stopped_because = `Schedule_exhausted);
  Alcotest.(check bool) "best found" true (r.Kstar.best <> None)

let test_kstar_infeasible_steps_neutral () =
  (* A lifetime bound no component can meet: pools build fine but every
     MILP is infeasible.  Steps without an incumbent must count neither
     as improvement nor as stall, so the whole schedule is walked. *)
  let inst = small_instance ~lifetime:(Some 1000.) () in
  let r = Kstar.search ~schedule:[ 1; 2; 3 ] kstar_config inst in
  Alcotest.(check int) "all steps walked" 3 (List.length r.Kstar.steps);
  Alcotest.(check bool) "reason is exhaustion" true
    (r.Kstar.stopped_because = `Schedule_exhausted);
  Alcotest.(check bool) "no best" true (r.Kstar.best = None);
  List.iter
    (fun st -> Alcotest.(check bool) "no incumbent" true (st.Kstar.objective = None))
    r.Kstar.steps

let test_session_grow_monotone () =
  let inst = small_instance () in
  let session =
    Session.start Solver_config.(default |> with_approx ~loc_kstar:6 () |> with_time_limit 60.) inst
  in
  (match Session.grow session ~kstar:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let o1 = Session.solve session in
  (match Session.grow session ~kstar:4 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let o4 = Session.solve session in
  let s1 = o1.Outcome.stats and s4 = o4.Outcome.stats in
  Alcotest.(check bool) "first step solves" true (o1.Outcome.solution <> None);
  Alcotest.(check bool) "vars grow" true (s4.Outcome.nvars >= s1.Outcome.nvars);
  Alcotest.(check bool) "constraints grow" true (s4.Outcome.nconstrs >= s1.Outcome.nconstrs);
  Alcotest.(check bool) "pool grows" true (s4.Outcome.pool_size >= s1.Outcome.pool_size);
  Alcotest.(check bool) "delta counted" true
    (s4.Outcome.delta_paths = s4.Outcome.pool_size - s1.Outcome.pool_size);
  match (o1.Outcome.solution, o4.Outcome.solution) with
  | Some s1, Some s4 ->
      (* Nested pools: the wider step cannot be worse under a carried
         incumbent. *)
      Alcotest.(check bool) "no regression" true
        (s4.Solution.dollar_cost <= s1.Solution.dollar_cost +. 1e-6)
  | _ -> Alcotest.fail "both steps should solve"

let table1_energy dc_seed =
  match
    Scenarios.data_collection ~objective:Objective.energy
      { Scenario.test_data_collection_params with Scenarios.dc_seed }
  with
  | Ok inst -> inst
  | Error e -> Alcotest.fail e

let sequential_at k = Solver_config.(default |> with_approx ~kstar:k () |> with_workers 1)

(* A kept outcome is what [Kstar.search], the daemon's session cache and
   any caller holding results pay for: the packed model and no carried
   cut pool. *)
let test_session_outcome_is_small () =
  let inst = table1_energy 5 in
  match Session.create (sequential_at 4) inst with
  | Error e -> Alcotest.fail e
  | Ok session ->
      let o = Session.solve session in
      let words x = Obj.reachable_words (Obj.repr x) in
      let net = words (o, inst) - words inst in
      Alcotest.(check bool) (Printf.sprintf "outcome holds %d words net of its instance" net) true
        (net <= 10_000)

(* The session keeps the carry-out cuts for its next solve even though
   no outcome returns them. *)
let test_session_carries_cuts () =
  match Session.create (sequential_at 3) (table1_energy 1) with
  | Error e -> Alcotest.fail e
  | Ok session ->
      let o3 = Session.solve session in
      (match Session.grow session ~kstar:4 with Ok () -> () | Error e -> Alcotest.fail e);
      let o4 = Session.solve session in
      List.iter
        (fun (o : Outcome.t) ->
          Alcotest.(check int) "outcome carries no cuts" 0
            (List.length o.Outcome.mip.Milp.Branch_bound.carry_cuts))
        [ o3; o4 ];
      Alcotest.(check int) "carried cuts seeded at K*=4" 5 o4.Outcome.mip.Milp.Branch_bound.cuts_seeded

(* ------------------------------------------------------------------ *)
(* Encoding internals                                                  *)
(* ------------------------------------------------------------------ *)

let test_rss_expr_arithmetic () =
  let inst = small_instance () in
  let ctx = Encode_common.create inst in
  (* RSS expression of link (0, 3): constant part must be -PL. *)
  let e = Encode_common.rss_expr ctx 0 3 in
  Alcotest.(check (float 1e-9)) "constant is -PL" (-.inst.Instance.pl.(0).(3))
    (Milp.Lin.constant e);
  (* Coefficients: each sensor device contributes tx+gain on node 0. *)
  List.iter
    (fun ((c : Components.Component.t), v) ->
      Alcotest.(check (float 1e-9))
        ("coef of " ^ c.Components.Component.name)
        (c.Components.Component.tx_power_dbm +. c.Components.Component.antenna_gain_dbi)
        (Milp.Lin.coeff e v))
    (Encode_common.sizing_vars ctx 0)

let test_edge_var_shared_and_validated () =
  let inst = small_instance () in
  let ctx = Encode_common.create inst in
  let v1 = Encode_common.edge_var ctx 0 3 in
  let v2 = Encode_common.edge_var ctx 0 3 in
  Alcotest.(check int) "same var on re-request" v1 v2;
  Alcotest.(check bool) "non-candidate link rejected" true
    (try
       ignore (Encode_common.edge_var ctx 3 0 (* relay -> sensor is not allowed *));
       false
     with Invalid_argument _ -> true)

let test_rss_floor_from_requirements () =
  let inst = small_instance ~snr:17. () in
  let ctx = Encode_common.create inst in
  Alcotest.(check (float 1e-9)) "floor = noise + snr" (-83.) (Encode_common.rss_floor_dbm ctx)



let test_solve_node_count_objective () =
  let inst = small_instance ~objective:[ (1., Objective.Node_count) ] () in
  let _, sol = run_ok inst (Solve.approx ~kstar:6 ()) in
  (* 3 fixed nodes are forced; the objective should avoid any relay it
     possibly can. *)
  Alcotest.(check bool)
    (Printf.sprintf "few nodes (%d)" sol.Solution.node_count)
    true
    (sol.Solution.node_count <= 4);
  match Solution.check inst sol with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_localization_approx_full_parity () =
  (* With loc_kstar >= #anchors the pruned encoding equals the full
     one, so both must reach the same optimal cost. *)
  let template =
    Template.create
      (List.init 5 (fun i -> node (Printf.sprintf "a%d" i) anchor (p (float_of_int i *. 7.) 0.)))
  in
  let evals = Array.init 4 (fun i -> p (3.5 +. (float_of_int i *. 7.)) 2.) in
  let reqs =
    {
      Requirements.empty with
      Requirements.localization =
        Some { Requirements.min_anchors = 2; loc_min_rss_dbm = -78.; eval_points = evals };
    }
  in
  let inst =
    Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  let _, sol_full = run_ok inst Solve.Full_enum in
  let _, sol_pruned = run_ok inst (Solve.approx ~loc_kstar:5 ()) in
  Alcotest.(check (float 1e-6)) "same optimal cost" sol_full.Solution.dollar_cost
    sol_pruned.Solution.dollar_cost

let test_full_extraction_follows_path () =
  let inst = small_instance () in
  let _, sol = run_ok inst Solve.Full_enum in
  Array.iter
    (fun rr ->
      let r = List.nth inst.Instance.requirements.Requirements.routes rr.Solution.rr_req in
      Alcotest.(check (option int)) "starts at src" (Some r.Requirements.src)
        (Netgraph.Path.source rr.Solution.rr_path);
      Alcotest.(check (option int)) "ends at dst" (Some r.Requirements.dst)
        (Netgraph.Path.destination rr.Solution.rr_path);
      Alcotest.(check bool) "simple" true (Netgraph.Path.is_simple rr.Solution.rr_path))
    sol.Solution.routes

let test_pathgen_latency_filters_pool () =
  (* A 33 ms deadline = 2 superframes -> only paths of <= 2 hops. *)
  let reqs =
    { (Requirements.add_route ~max_latency_s:0.033 Requirements.empty ~src:0 ~dst:2) with
      Requirements.min_snr_db = Some 5. }
  in
  let inst =
    Instance.create_exn ~template:(small_template ()) ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  match Path_gen.generate ~kstar:8 inst with
  | Error e -> Alcotest.fail e
  | Ok { pools; _ } ->
      List.iter
        (fun pool ->
          List.iter
            (fun path ->
              Alcotest.(check bool) "within latency hops" true (Netgraph.Path.length path <= 2))
            pool.Path_gen.pool)
        pools


let test_solve_three_replicas () =
  (* A template with three parallel relay corridors supports three
     mutually disjoint routes. *)
  let template =
    Template.create
      [
        node ~fixed:true "s0" sensor (p 0. 10.);
        node ~fixed:true "sink" sink (p 40. 10.);
        node "ra" relay (p 20. 2.);
        node "rb" relay (p 20. 10.);
        node "rc" relay (p 20. 18.);
      ]
  in
  let reqs =
    { (Requirements.add_route ~replicas:3 Requirements.empty ~src:0 ~dst:1) with
      Requirements.min_snr_db = Some 5. }
  in
  let inst =
    Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:Radio.Channel.log_distance_2_4ghz ~requirements:reqs ~objective:Objective.dollar ()
  in
  let _, sol = run_ok inst (Solve.approx ~kstar:9 ()) in
  Alcotest.(check int) "three replicas" 3 (Array.length sol.Solution.routes);
  (match Solution.check inst sol with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* Pairwise disjoint. *)
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool) "pairwise disjoint" true
              (Netgraph.Path.edge_disjoint a.Solution.rr_path b.Solution.rr_path))
        sol.Solution.routes)
    sol.Solution.routes

(* ------------------------------------------------------------------ *)
(* Resilience and simulation                                           *)
(* ------------------------------------------------------------------ *)

let solved_small ?replicas () =
  let inst = small_instance ?replicas () in
  let _, sol = run_ok inst (Solve.approx ~kstar:6 ()) in
  (inst, sol)

let test_resilience_replicated_routes_survive () =
  let inst, sol = solved_small ~replicas:2 () in
  let reports = Resilience.single_link_faults inst sol in
  (* With two disjoint replicas per route, any single-link failure
     leaves at least one replica intact. *)
  List.iter
    (fun (r : Resilience.report) ->
      Alcotest.(check int)
        (Format.asprintf "%a" Resilience.pp_report r)
        r.Resilience.total_routes r.Resilience.surviving_routes)
    reports;
  Alcotest.(check (float 1e-9)) "worst case survival" 1.0
    (Resilience.worst_case_survival reports)

let test_resilience_single_route_vulnerable () =
  let inst, sol = solved_small ~replicas:1 () in
  (* Killing the destination-side link of a route must lose it. *)
  match Array.to_list sol.Solution.routes with
  | rr :: _ -> (
      match List.rev (Netgraph.Path.edges rr.Solution.rr_path) with
      | last_edge :: _ ->
          let u, v = last_edge in
          Alcotest.(check bool) "route lost" false
            (Resilience.route_survives sol ~req:rr.Solution.rr_req
               (Resilience.Link_failure (u, v)));
          ignore inst
      | [] -> Alcotest.fail "empty route")
  | [] -> Alcotest.fail "no routes"

let test_resilience_node_fault_reports () =
  let inst, sol = solved_small ~replicas:1 () in
  let reports = Resilience.single_node_faults inst sol in
  (* Only non-fixed nodes are candidate faults. *)
  List.iter
    (fun (r : Resilience.report) ->
      match r.Resilience.fault with
      | Resilience.Node_failure n ->
          Alcotest.(check bool) "non-fixed" false
            (Template.node inst.Instance.template n).Template.fixed
      | Resilience.Link_failure _ -> Alcotest.fail "unexpected link fault")
    reports

let test_simulate_healthy_network () =
  let inst, sol = solved_small () in
  let sim = Simulate.run ~params:{ Simulate.default_params with Simulate.periods = 400 } inst sol in
  Alcotest.(check int) "all packets generated" (400 * 2) sim.Simulate.generated;
  Alcotest.(check bool)
    (Printf.sprintf "delivery ratio %.3f ~ 1" sim.Simulate.delivery_ratio)
    true
    (sim.Simulate.delivery_ratio > 0.99);
  Alcotest.(check bool) "empirical ETX near 1" true (sim.Simulate.mean_attempts_per_hop < 1.05);
  match Simulate.check_against_guarantees inst sol sim with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_simulate_deterministic () =
  let inst, sol = solved_small () in
  let p = { Simulate.default_params with Simulate.periods = 100 } in
  let a = Simulate.run ~params:p inst sol in
  let b = Simulate.run ~params:p inst sol in
  Alcotest.(check int) "same deliveries" a.Simulate.delivered b.Simulate.delivered;
  Alcotest.(check (float 1e-12)) "same etx" a.Simulate.mean_attempts_per_hop
    b.Simulate.mean_attempts_per_hop

let test_simulate_lifetime_consistent_with_analysis () =
  (* Simulated lifetime should be within a factor of the analytical
     estimate (same physics, stochastic attempts vs ETX expectation). *)
  let inst, sol = solved_small () in
  let sim = Simulate.run inst sol in
  let analytical = Solution.min_lifetime_years inst sol in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.1f vs analytical %.1f" sim.Simulate.min_lifetime_years
       analytical)
    true
    (sim.Simulate.min_lifetime_years > analytical *. 0.7
    && sim.Simulate.min_lifetime_years < analytical *. 1.4)


(* ------------------------------------------------------------------ *)
(* End-to-end regressions: pin known-good outcomes of the scenarios    *)
(* (values verified against the physical models by Solution.check).    *)
(* ------------------------------------------------------------------ *)

let test_regression_quickstart_cost () =
  (* The quickstart example's network: two sensors reach the sink
     directly with the 4.5 dBm sensor option; $4 + $4 + $80 sink. *)
  let wall =
    { Geometry.Floorplan.seg = Geometry.Segment.of_coords 15. 0. 15. 9.;
      material = Geometry.Floorplan.Brick }
  in
  let plan = Geometry.Floorplan.create ~width:30. ~height:12. [ wall ] in
  let template =
    Template.create
      [
        node ~fixed:true "s0" sensor (p 2. 2.);
        node ~fixed:true "s1" sensor (p 2. 10.);
        node ~fixed:true "sink" sink (p 28. 6.);
        node "r0" relay (p 10. 6.);
        node "r1" relay (p 16. 3.);
        node "r2" relay (p 22. 6.);
      ]
  in
  let reqs =
    let r = Requirements.add_route Requirements.empty ~src:0 ~dst:2 in
    let r = Requirements.add_route r ~src:1 ~dst:2 in
    { r with Requirements.min_snr_db = Some 15.; min_lifetime_years = Some 4. }
  in
  let inst =
    Instance.create_exn ~template ~library:Components.Library.builtin
      ~channel:(Radio.Channel.multi_wall_2_4ghz plan) ~requirements:reqs
      ~objective:Objective.dollar ()
  in
  let _, sol = run_ok inst (Solve.approx ~kstar:4 ()) in
  Alcotest.(check (float 1e-6)) "pinned cost" 88. sol.Solution.dollar_cost;
  Alcotest.(check int) "no relays needed" 3 sol.Solution.node_count

let test_regression_default_scenarios_feasible () =
  (* The shipped default scenarios must encode and pass Algorithm 1. *)
  (match Scenarios.data_collection Scenarios.default_data_collection with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      match Solve.encode_size inst (Solve.approx ~kstar:6 ()) with
      | Ok (v, c) ->
          Alcotest.(check bool) "data-collection encodes" true (v > 0 && c > 0)
      | Error e -> Alcotest.fail e));
  match Scenarios.localization Scenarios.default_localization with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      match Solve.encode_size inst (Solve.approx ~loc_kstar:8 ()) with
      | Ok (v, c) -> Alcotest.(check bool) "localization encodes" true (v > 0 && c > 0)
      | Error e -> Alcotest.fail e)

let test_regression_warm_start_unchanged () =
  (* Warm-started node LPs must not change what branch & bound finds on
     a seed scenario: same status, same objective, and the warm run must
     actually serve LPs from the warm path. *)
  match Scenarios.scaled_data_collection ~total_nodes:16 ~end_devices:5 () with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      let solve warm_start =
        let cfg =
          Solver_config.(
            default
            |> with_approx ~kstar:4 ()
            |> with_time_limit 60. |> with_rel_gap 1e-6
            |> with_options (fun o -> { o with warm_start }))
        in
        match Solve.run cfg inst with
        | Ok out -> out
        | Error e -> Alcotest.fail e
      in
      let warm = solve true and cold = solve false in
      Alcotest.(check string) "status unchanged"
        (Milp.Status.mip_status_to_string cold.Outcome.status)
        (Milp.Status.mip_status_to_string warm.Outcome.status);
      match (warm.Outcome.solution, cold.Outcome.solution) with
      | Some w, Some c ->
          Alcotest.(check (float 1e-5)) "objective unchanged" c.Solution.dollar_cost
            w.Solution.dollar_cost;
          Alcotest.(check bool) "warm path exercised" true
            (warm.Outcome.mip.Milp.Branch_bound.lp_warm > 0)
      | None, None -> ()
      | _ -> Alcotest.fail "one mode found a solution, the other did not")

let test_regression_cuts_unchanged () =
  (* Cutting planes and reduced-cost fixing must not change what branch
     & bound finds on a seed scenario (the Table-1 objectives pinned in
     BENCH_PR1.json ride on the same invariant at full scale): same
     status, same objective, and the default run must actually separate
     cuts. *)
  match Scenarios.scaled_data_collection ~total_nodes:16 ~end_devices:5 () with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      let solve enabled =
        let cfg =
          Solver_config.(
            default
            |> with_approx ~kstar:4 ()
            |> with_time_limit 60. |> with_rel_gap 1e-6
            |> with_options (fun o ->
                   {
                     o with
                     cut_families = (if enabled then Milp.Cuts.all_families else []);
                     rc_fixing = enabled;
                   }))
        in
        match Solve.run cfg inst with
        | Ok out -> out
        | Error e -> Alcotest.fail e
      in
      let on = solve true and off = solve false in
      Alcotest.(check string) "status unchanged"
        (Milp.Status.mip_status_to_string off.Outcome.status)
        (Milp.Status.mip_status_to_string on.Outcome.status);
      Alcotest.(check int) "ablated run separates nothing" 0
        off.Outcome.mip.Milp.Branch_bound.cuts_separated;
      Alcotest.(check bool) "cut machinery exercised" true
        (on.Outcome.mip.Milp.Branch_bound.cuts_applied > 0);
      Alcotest.(check bool) "cuts do not grow the tree" true
        (on.Outcome.mip.Milp.Branch_bound.nodes <= off.Outcome.mip.Milp.Branch_bound.nodes);
      match (on.Outcome.solution, off.Outcome.solution) with
      | Some w, Some c ->
          Alcotest.(check (float 1e-5)) "objective unchanged" c.Solution.dollar_cost
            w.Solution.dollar_cost
      | None, None -> ()
      | _ -> Alcotest.fail "one mode found a solution, the other did not")

let test_regression_cut_families_parity () =
  (* Per-family ablation: restricting separation to any single family
     must leave the proven optimum unchanged — each separator is only
     allowed to tighten the relaxation, never to cut off the answer. *)
  match Scenarios.scaled_data_collection ~total_nodes:16 ~end_devices:5 () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let solve fams =
        let cfg =
          Solver_config.(
            default
            |> with_approx ~kstar:4 ()
            |> with_time_limit 60. |> with_rel_gap 1e-6
            |> with_options (fun o -> { o with cut_families = fams }))
        in
        match Solve.run cfg inst with
        | Ok out -> out
        | Error e -> Alcotest.fail e
      in
      let base_obj =
        match (solve Milp.Cuts.all_families).Outcome.solution with
        | Some s -> s.Solution.dollar_cost
        | None -> Alcotest.fail "no baseline solution"
      in
      List.iter
        (fun fam ->
          match (solve [ fam ]).Outcome.solution with
          | Some s ->
              Alcotest.(check (float 1e-5))
                (Milp.Cuts.family_name fam ^ " alone: objective unchanged")
                base_obj s.Solution.dollar_cost
          | None -> Alcotest.fail (Milp.Cuts.family_name fam ^ ": no solution"))
        Milp.Cuts.all_families

let test_power_cuts_valid_at_optimum () =
  (* The structural separator reads instance data (path loss, device
     powers); its cuts must be satisfied by the true MILP optimum no
     matter how aggressive the fractional point they were separated at.
     The all-ones point turns every weak-device inequality maximally
     violated, so it exercises every cut shape the instance supports. *)
  match Scenarios.scaled_data_collection ~total_nodes:16 ~end_devices:5 () with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      match Approx_encoding.encode ~kstar:4 ~loc_kstar:8 inst with
      | Error e -> Alcotest.fail e
      | Ok enc -> (
          let ctx = enc.Approx_encoding.ctx in
          let model = Encode_common.model ctx in
          let n = Milp.Model.nvars model in
          let ones = Array.make n 1. in
          let cuts = Struct_cuts.power_cuts ctx ones in
          Alcotest.(check bool) "separator fires on the all-ones point" true
            (cuts <> []);
          let options =
            {
              Milp.Branch_bound.default_options with
              Milp.Branch_bound.time_limit = 60.;
              rel_gap = 1e-6;
            }
          in
          let mip =
            Milp.Branch_bound.solve ~options
              ~separators:(Struct_cuts.separators ctx) model
          in
          match mip.Milp.Branch_bound.solution with
          | None -> Alcotest.fail "no MILP optimum to validate against"
          | Some x ->
              List.iter
                (fun c ->
                  Alcotest.(check bool) "cut keeps the optimum" true
                    (Milp.Cuts.satisfied c x))
                cuts))

let test_regression_approx_much_smaller_on_defaults () =
  (* The headline size reduction on the shipped Table-1 scenario. *)
  match Scenarios.data_collection Scenarios.default_data_collection with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      match
        (Solve.encode_size inst Solve.Full_enum, Solve.encode_size inst (Solve.approx ~kstar:6 ()))
      with
      | Ok (fv, fc), Ok (av, ac) ->
          Alcotest.(check bool)
            (Printf.sprintf "vars %dx smaller" (fv / Int.max 1 av))
            true (fv >= 10 * av);
          Alcotest.(check bool)
            (Printf.sprintf "cons %dx smaller" (fc / Int.max 1 ac))
            true (fc >= 10 * ac)
      | Error e, _ | _, Error e -> Alcotest.fail e)

let test_regression_kstar_cutoff_monotone () =
  (* The Table-4 mechanism: under nested pools and inherited cutoffs the
     reported cost sequence is non-increasing. *)
  match Scenarios.scaled_data_collection ~total_nodes:20 ~end_devices:6 () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let best = ref nan in
      List.iter
        (fun kstar ->
          let strategy = Solve.Approx { kstar; loc_kstar = kstar } in
          let cfg =
            Solver_config.(
              default |> with_strategy strategy |> with_time_limit 20.
              |> with_rel_gap 1e-4 |> with_cutoff !best)
          in
          match Solve.run cfg inst with
          | Ok { Outcome.solution = Some sol; _ } ->
              if not (Float.is_nan !best) then
                Alcotest.(check bool) "improved under cutoff" true
                  (sol.Solution.dollar_cost < !best);
              best := sol.Solution.dollar_cost
          | Ok _ -> () (* no improvement: cost carries over *)
          | Error e -> Alcotest.fail e)
        [ 1; 3; 5 ];
      Alcotest.(check bool) "some solution found" true (not (Float.is_nan !best))

(* The session's tree on Energy, pinned like the Energy node counts: a
   first solve at K*=3, a same-K* re-solve (what a daemon cache hit at
   the cached K* runs) and a solve after growing to K*=4.  A drift here
   means the carried incumbent, cuts or presolve of a session solve
   changed behaviour. *)
let test_session_tree_pinned () =
  match Session.create (sequential_at 3) (table1_energy 1) with
  | Error e -> Alcotest.fail e
  | Ok session ->
      let first = Session.solve session in
      let again = Session.solve session in
      (match Session.grow session ~kstar:4 with Ok () -> () | Error e -> Alcotest.fail e);
      let grown = Session.solve session in
      List.iter
        (fun (tag, (o : Outcome.t), (nodes, iters, rows, cols)) ->
          let r = o.Outcome.mip in
          let check what want got = Alcotest.(check int) (tag ^ ": " ^ what) want got in
          check "nodes" nodes r.Milp.Branch_bound.nodes;
          check "LP iterations" iters r.Milp.Branch_bound.lp_iterations;
          check "presolve rows removed" rows r.Milp.Branch_bound.presolve_rows_removed;
          check "presolve columns removed" cols r.Milp.Branch_bound.presolve_cols_removed)
        [
          ("K*=3", first, (77, 848, 32, 5));
          ("K*=3 again", again, (95, 894, 32, 5));
          ("K*=4", grown, (75, 766, 32, 5));
        ]

let test_regression_incremental_steps_match_fresh () =
  (* The correctness oracle for incremental sessions: each step of a
     K* sweep on one session, which carries the model, path pool, cut
     pool and incumbent forward, must reach the status and objective of
     a fresh session created at that step's K*. *)
  match Scenarios.scaled_data_collection ~total_nodes:16 ~end_devices:5 () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let schedule = [ 1; 3 ] in
      let cfg =
        Solver_config.(
          default |> with_time_limit 60. |> with_rel_gap 1e-6
          |> with_approx ~loc_kstar:(List.fold_left Int.max 1 schedule) ())
      in
      let ok = function Ok v -> v | Error e -> Alcotest.fail e in
      let session = Session.start cfg inst in
      List.iter
        (fun k ->
          ok (Session.grow session ~kstar:k);
          let step = Session.solve session in
          let fresh =
            Session.solve (ok (Session.create (Solver_config.with_approx ~kstar:k () cfg) inst))
          in
          let tag = Printf.sprintf "K*=%d" k in
          Alcotest.(check string) (tag ^ ": status")
            (Milp.Status.mip_status_to_string fresh.Outcome.status)
            (Milp.Status.mip_status_to_string step.Outcome.status);
          if fresh.Outcome.status = Milp.Status.Mip_optimal then
            Alcotest.(check (float 1e-6)) (tag ^ ": objective")
              fresh.Outcome.mip.Milp.Branch_bound.objective
              step.Outcome.mip.Milp.Branch_bound.objective)
        schedule

(* ------------------------------------------------------------------ *)
(* Parallel tree search                                                *)
(* ------------------------------------------------------------------ *)

(* Table-1 template family, sized down so a 1e-6 gap is provable inside
   the test budget on every objective — the energy objective's tree
   blows past the time limit at anything larger, which would turn the
   parity check into a comparison of timeout incumbents. *)
let par_test_params =
  {
    Scenarios.default_data_collection with
    Scenarios.dc_sensors = 3;
    dc_relay_grid = (3, 2);
    dc_width = 45.;
    dc_height = 28.;
  }

let par_solve ?(kstar = 4) ?(presolve = true) ?node_limit ~workers inst =
  let k = kstar in
  let cfg =
    Solver_config.(
      default |> with_approx ~kstar:k () |> with_time_limit 60. |> with_rel_gap 1e-6
      |> with_workers workers
      |> with_options (fun o -> { o with presolve }))
  in
  let cfg = match node_limit with Some n -> Solver_config.with_node_limit n cfg | None -> cfg in
  match Solve.run cfg inst with Ok out -> out | Error e -> Alcotest.fail e

let test_parallel_matches_sequential () =
  (* The tentpole parity claim: every worker count lands on the same
     objective (to 1e-6) as the sequential loop, on all three Table-1
     objectives. *)
  List.iter
    (fun (name, objective) ->
      match Scenarios.data_collection ~objective par_test_params with
      | Error e -> Alcotest.fail e
      | Ok inst ->
          let seq = par_solve ~workers:1 inst in
          Alcotest.(check string)
            (name ^ " sequential run proves optimality")
            "optimal"
            (Milp.Status.mip_status_to_string seq.Outcome.status);
          List.iter
            (fun w ->
              let par = par_solve ~workers:w inst in
              Alcotest.(check string)
                (Printf.sprintf "%s status parity at %d workers" name w)
                (Milp.Status.mip_status_to_string seq.Outcome.status)
                (Milp.Status.mip_status_to_string par.Outcome.status);
              match (seq.Outcome.solution, par.Outcome.solution) with
              | Some _, Some _ ->
                  Alcotest.(check (float 1e-6))
                    (Printf.sprintf "%s objective parity at %d workers" name w)
                    seq.Outcome.mip.Milp.Branch_bound.objective
                    par.Outcome.mip.Milp.Branch_bound.objective
              | None, None -> ()
              | _ -> Alcotest.fail (name ^ ": incumbent presence diverged"))
            [ 2; 4 ])
    [
      ("dollar", Objective.dollar);
      ("energy", Objective.energy);
      ("combined", Objective.combine Objective.dollar Objective.energy);
    ]

let test_presolve_matches_ablation () =
  (* Reduction-stack parity: solving in the reduced space must land on
     the same status and objective (to 1e-6) as the --no-presolve
     ablation on all three Table-1 objectives, sequentially and under
     the parallel tree search. *)
  List.iter
    (fun (name, objective) ->
      match Scenarios.data_collection ~objective par_test_params with
      | Error e -> Alcotest.fail e
      | Ok inst ->
          List.iter
            (fun w ->
              let tag = Printf.sprintf "%s at %d workers" name w in
              let on = par_solve ~workers:w inst in
              let off = par_solve ~workers:w ~presolve:false inst in
              Alcotest.(check string) (tag ^ ": status parity")
                (Milp.Status.mip_status_to_string off.Outcome.status)
                (Milp.Status.mip_status_to_string on.Outcome.status);
              match (on.Outcome.solution, off.Outcome.solution) with
              | Some _, Some _ ->
                  Alcotest.(check (float 1e-6))
                    (tag ^ ": objective parity")
                    off.Outcome.mip.Milp.Branch_bound.objective
                    on.Outcome.mip.Milp.Branch_bound.objective
              | None, None -> ()
              | _ -> Alcotest.fail (tag ^ ": incumbent presence diverged"))
            [ 1; 4 ])
    [
      ("dollar", Objective.dollar);
      ("energy", Objective.energy);
      ("combined", Objective.combine Objective.dollar Objective.energy);
    ]

let test_presolve_node_count_regression () =
  (* Energy scenario, sequential solver: the tree is bit-deterministic,
     so the node counts with and without the reduction stack are pinned
     exactly.  A drift here means the root reduction (or the baseline
     tree) changed behaviour — update the constants only with the PR
     that intends the change.  The two trees differ because strengthened
     rows reshape the LP bounds and the branching order; which is larger
     is tree-shape luck (575 against 606 under the product-form eta
     file, 79 against 917 under Forrest–Tomlin updates), while the
     reduced tree wins back far more per node; wall-time and
     sweep-level wins are archived in BENCH_PR7.json. *)
  match Scenarios.data_collection ~objective:Objective.energy par_test_params with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let run presolve = (par_solve ~workers:1 ~presolve inst).Outcome.mip in
      let on = run true and off = run false in
      Alcotest.(check int) "node count with presolve" 79 on.Milp.Branch_bound.nodes;
      Alcotest.(check int) "node count without presolve" 917 off.Milp.Branch_bound.nodes;
      Alcotest.(check bool) "reduction removes rows" true
        (on.Milp.Branch_bound.presolve_rows_removed > 0);
      Alcotest.(check bool) "reduction removes columns" true
        (on.Milp.Branch_bound.presolve_cols_removed > 0);
      Alcotest.(check bool) "ablation removes nothing" true
        (off.Milp.Branch_bound.presolve_rows_removed = 0
        && off.Milp.Branch_bound.presolve_cols_removed = 0);
      Alcotest.(check (float 1e-6)) "objective parity" off.Milp.Branch_bound.objective
        on.Milp.Branch_bound.objective

let test_root_outputs_pinned () =
  (* Energy scenario, sequential solver: the root bounds are fixed once
     the root has run, so a solve stopped right after it (node_limit = 1)
     reports them bit for bit as the full solve does.  Cuts only tighten
     the root LP and never cut off the optimum, so the LP bound, the cut
     bound and the objective are ordered in the model's direction. *)
  match Scenarios.data_collection ~objective:Objective.energy par_test_params with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let full = par_solve ~workers:1 inst in
      let root = (par_solve ~workers:1 ~node_limit:1 inst).Outcome.mip in
      let mip = full.Outcome.mip in
      let bits = Int64.bits_of_float in
      Alcotest.(check int) "root-only solve stops after the root" 1 root.Milp.Branch_bound.nodes;
      Alcotest.(check int64) "root LP bound bit for bit"
        (bits mip.Milp.Branch_bound.root_lp_bound)
        (bits root.Milp.Branch_bound.root_lp_bound);
      Alcotest.(check int64) "root cut bound bit for bit"
        (bits mip.Milp.Branch_bound.root_cut_bound)
        (bits root.Milp.Branch_bound.root_cut_bound);
      Alcotest.(check bool) "root cut bound finite with cuts on" true
        (Float.is_finite mip.Milp.Branch_bound.root_cut_bound);
      Alcotest.(check string) "full solve proves optimality" "optimal"
        (Milp.Status.mip_status_to_string full.Outcome.status);
      let sign =
        match Milp.Model.direction full.Outcome.model with
        | Milp.Model.Minimize -> 1.
        | Milp.Model.Maximize -> -1.
      in
      let tol = 1e-6 *. Float.max 1. (Float.abs mip.Milp.Branch_bound.objective) in
      Alcotest.(check bool) "cuts never loosen the root LP bound" true
        (sign *. mip.Milp.Branch_bound.root_lp_bound
        <= (sign *. mip.Milp.Branch_bound.root_cut_bound) +. tol);
      Alcotest.(check bool) "root cut bound never passes the optimum" true
        (sign *. mip.Milp.Branch_bound.root_cut_bound
        <= (sign *. mip.Milp.Branch_bound.objective) +. tol)

let test_sequential_bit_deterministic () =
  (* nworkers = 1 must take the pre-parallelism loop verbatim: two runs
     agree on every tally, not just the objective. *)
  match Scenarios.scaled_data_collection ~total_nodes:16 ~end_devices:5 () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let a = (par_solve ~workers:1 inst).Outcome.mip
      and b = (par_solve ~workers:1 inst).Outcome.mip in
      Alcotest.(check int) "nodes" a.Milp.Branch_bound.nodes b.Milp.Branch_bound.nodes;
      Alcotest.(check int) "lp iterations" a.Milp.Branch_bound.lp_iterations
        b.Milp.Branch_bound.lp_iterations;
      Alcotest.(check int) "warm solves" a.Milp.Branch_bound.lp_warm b.Milp.Branch_bound.lp_warm;
      Alcotest.(check int) "cold solves" a.Milp.Branch_bound.lp_cold b.Milp.Branch_bound.lp_cold;
      Alcotest.(check int) "fallback solves" a.Milp.Branch_bound.lp_fallback
        b.Milp.Branch_bound.lp_fallback;
      Alcotest.(check int) "bound pruned" a.Milp.Branch_bound.bound_pruned
        b.Milp.Branch_bound.bound_pruned;
      Alcotest.(check bool) "objective bit-identical" true
        (a.Milp.Branch_bound.objective = b.Milp.Branch_bound.objective)

let test_parallel_seed_still_matches () =
  (* The seed perturbs the worker heuristic schedule, never the answer. *)
  match Scenarios.scaled_data_collection ~total_nodes:16 ~end_devices:5 () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let solve seed =
        let cfg =
          Solver_config.(
            default |> with_approx ~kstar:4 () |> with_time_limit 60. |> with_rel_gap 1e-6
            |> with_options (fun o -> { o with nworkers = 4; seed }))
        in
        match Solve.run cfg inst with Ok out -> out | Error e -> Alcotest.fail e
      in
      let a = solve 0 and b = solve 42 in
      match (a.Outcome.solution, b.Outcome.solution) with
      | Some _, Some _ ->
          Alcotest.(check (float 1e-6)) "objective independent of seed"
            a.Outcome.mip.Milp.Branch_bound.objective b.Outcome.mip.Milp.Branch_bound.objective
      | _ -> Alcotest.fail "both seeds should solve"

let () =
  Alcotest.run "archex"
    [
      ( "template",
        [
          Alcotest.test_case "basics" `Quick test_template_basics;
          Alcotest.test_case "duplicates rejected" `Quick test_template_rejects_duplicates;
          Alcotest.test_case "role-based links" `Quick test_template_link_roles;
          Alcotest.test_case "path loss pruning" `Quick test_template_max_path_loss_prunes;
        ] );
      ( "requirements",
        [
          Alcotest.test_case "validation" `Quick test_requirements_validate;
          Alcotest.test_case "total paths" `Quick test_requirements_total_paths;
        ] );
      ( "instance",
        [
          Alcotest.test_case "library coverage" `Quick test_instance_validates_library;
          Alcotest.test_case "snr floor combination" `Quick test_instance_min_snr_combination;
          Alcotest.test_case "etx bound" `Quick test_instance_etx_bound;
          Alcotest.test_case "devices_for" `Quick test_instance_devices_for;
          Alcotest.test_case "latency hop bound" `Quick test_instance_latency_hop_bound;
        ] );
      ( "path_gen",
        [
          Alcotest.test_case "pools produced" `Quick test_pathgen_produces_pools;
          Alcotest.test_case "disjoint capacity" `Quick test_pathgen_disjoint_capacity;
          Alcotest.test_case "distinct candidates" `Quick test_pathgen_pool_distinct;
          Alcotest.test_case "hop bound filter" `Quick test_pathgen_hop_bound_filter;
          Alcotest.test_case "LQ filter" `Quick test_pathgen_lq_filter_drops;
          Alcotest.test_case "best-case RSS" `Quick test_pathgen_best_case_rss;
          Alcotest.test_case "localization pruning" `Quick test_pathgen_localization_candidates;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "approx smaller than full" `Quick test_encoding_sizes;
          Alcotest.test_case "K* grows encoding" `Quick test_encoding_kstar_grows;
        ] );
      ( "solve",
        [
          Alcotest.test_case "approx end-to-end" `Quick test_solve_approx_small;
          Alcotest.test_case "full vs approx" `Slow test_solve_full_matches_or_beats_approx;
          Alcotest.test_case "disjoint replicas" `Quick test_solve_disjoint_replicas;
          Alcotest.test_case "three replicas" `Quick test_solve_three_replicas;
          Alcotest.test_case "lifetime constraint" `Quick test_solve_lifetime_constraint_bites;
          Alcotest.test_case "energy objective" `Quick test_solve_energy_objective;
          Alcotest.test_case "localization end-to-end" `Quick test_solve_localization_end_to_end;
          Alcotest.test_case "infeasible reported" `Quick test_solve_infeasible_reported;
          Alcotest.test_case "node-count objective" `Quick test_solve_node_count_objective;
          Alcotest.test_case "localization approx = full" `Quick
            test_localization_approx_full_parity;
          Alcotest.test_case "full extraction" `Quick test_full_extraction_follows_path;
          Alcotest.test_case "latency filters pool" `Quick test_pathgen_latency_filters_pool;
          qt prop_full_no_worse_than_approx;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "data collection builds" `Quick test_scenarios_data_collection_builds;
          Alcotest.test_case "deterministic" `Quick test_scenarios_deterministic;
          Alcotest.test_case "localization builds" `Quick test_scenarios_localization_builds;
          Alcotest.test_case "scaled sizes" `Quick test_scenarios_scaled_sizes;
          Alcotest.test_case "scaled validation" `Quick test_scenarios_scaled_rejects_bad;
        ] );
      ( "kstar",
        [
          Alcotest.test_case "search finds and validates" `Quick test_kstar_search_improves;
          Alcotest.test_case "time threshold" `Quick test_kstar_respects_time_threshold;
          Alcotest.test_case "no-improvement stall" `Quick test_kstar_stops_on_no_improvement;
          Alcotest.test_case "schedule exhausted" `Quick test_kstar_schedule_exhausted;
          Alcotest.test_case "infeasible steps neutral" `Quick test_kstar_infeasible_steps_neutral;
          Alcotest.test_case "session grows monotonically" `Quick test_session_grow_monotone;
          Alcotest.test_case "kept outcome is small" `Quick test_session_outcome_is_small;
          Alcotest.test_case "session carries cuts, outcomes do not" `Quick test_session_carries_cuts;
        ] );
      ( "encode_common",
        [
          Alcotest.test_case "rss expression" `Quick test_rss_expr_arithmetic;
          Alcotest.test_case "edge vars shared" `Quick test_edge_var_shared_and_validated;
          Alcotest.test_case "rss floor" `Quick test_rss_floor_from_requirements;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "replicas survive link faults" `Quick
            test_resilience_replicated_routes_survive;
          Alcotest.test_case "single routes vulnerable" `Quick
            test_resilience_single_route_vulnerable;
          Alcotest.test_case "node fault reports" `Quick test_resilience_node_fault_reports;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "healthy network" `Quick test_simulate_healthy_network;
          Alcotest.test_case "deterministic" `Quick test_simulate_deterministic;
          Alcotest.test_case "lifetime vs analysis" `Quick
            test_simulate_lifetime_consistent_with_analysis;
        ] );
      ( "regression",
        [
          Alcotest.test_case "quickstart cost" `Quick test_regression_quickstart_cost;
          Alcotest.test_case "default scenarios encode" `Quick
            test_regression_default_scenarios_feasible;
          Alcotest.test_case "headline size reduction" `Quick
            test_regression_approx_much_smaller_on_defaults;
          Alcotest.test_case "warm starts preserve results" `Quick
            test_regression_warm_start_unchanged;
          Alcotest.test_case "cuts preserve results" `Quick test_regression_cuts_unchanged;
          Alcotest.test_case "per-family cut ablation parity" `Quick
            test_regression_cut_families_parity;
          Alcotest.test_case "power cuts keep the optimum" `Quick
            test_power_cuts_valid_at_optimum;
          Alcotest.test_case "kstar cutoff monotone" `Quick test_regression_kstar_cutoff_monotone;
          Alcotest.test_case "incremental steps match fresh" `Quick
            test_regression_incremental_steps_match_fresh;
          Alcotest.test_case "presolve node counts on energy" `Quick
            test_presolve_node_count_regression;
          Alcotest.test_case "root outputs on energy" `Quick test_root_outputs_pinned;
          Alcotest.test_case "session tree on energy" `Quick test_session_tree_pinned;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "parity across workers" `Slow test_parallel_matches_sequential;
          Alcotest.test_case "presolve on/off parity" `Slow test_presolve_matches_ablation;
          Alcotest.test_case "workers=1 bit-deterministic" `Quick
            test_sequential_bit_deterministic;
          Alcotest.test_case "seed does not change answer" `Quick
            test_parallel_seed_still_matches;
        ] );
      ( "solution",
        [
          Alcotest.test_case "check catches bad device" `Quick test_solution_check_catches_bad_device;
          Alcotest.test_case "check catches missing fixed" `Quick
            test_solution_check_catches_missing_fixed;
        ] );
    ]
