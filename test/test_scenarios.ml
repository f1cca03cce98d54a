(* PR9 surface: the scenario registry, the tactical generator, the
   tabu-search heuristic, the matheuristic bridge into the exact
   solver, per-request session reconfiguration and the solver-config
   checks. *)

open Archex
module Tabu = Heuristic.Tabu

let () = Scenario_gen.register_defaults ()

let get = function Ok v -> v | Error e -> Alcotest.fail e

let obj (o : Outcome.t) = o.Outcome.mip.Milp.Branch_bound.objective

(* ---- registry ------------------------------------------------------- *)

let test_registry_catalogue () =
  let names = Scenario.names () in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "dc-dollar";
      "dc-energy";
      "dc-mixed";
      "dc-small-dollar";
      "dc-small-energy";
      "dc-small-mixed";
      "tac-smoke";
      "tac-mf2";
      "tac-mf2-jam";
      "tac-mf2-atten";
      "tac-mf2-corridor";
      "tac-city4";
    ];
  let sc = get (Scenario.find "dc-small-energy") in
  Alcotest.(check string) "name" "dc-small-energy" (Scenario.name sc);
  Alcotest.(check string) "scale" "test" (Scenario.scale_name (Scenario.scale sc));
  Alcotest.(check string) "tactical scale" "tactical"
    (Scenario.scale_name (Scenario.scale (get (Scenario.find "tac-mf2"))));
  match Scenario.find "no-such-scenario" with
  | Ok _ -> Alcotest.fail "find accepted an unknown name"
  | Error e ->
      Alcotest.(check bool) "error lists the known names" true
        (Astring.String.is_infix ~affix:"dc-small-energy" e)

let test_register_defaults_idempotent () =
  let before = List.length (Scenario.names ()) in
  Scenario_gen.register_defaults ();
  Scenario_gen.register_defaults ();
  Alcotest.(check int) "no duplicate registrations" before
    (List.length (Scenario.names ()))

let test_register_rejects () =
  let entry name =
    {
      Scenario.sc_name = name;
      sc_descr = "throwaway";
      sc_scale = Scenario.Test;
      sc_expected = None;
      sc_build = (fun () -> Error "unbuildable");
    }
  in
  Scenario.register (entry "test-dup-entry");
  (try
     Scenario.register (entry "test-dup-entry");
     Alcotest.fail "duplicate name accepted"
   with Invalid_argument _ -> ());
  try
    Scenario.register (entry "");
    Alcotest.fail "empty name accepted"
  with Invalid_argument _ -> ()

(* ---- generator ------------------------------------------------------ *)

let spec_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) Scenario_gen.defaults with
  | Some (_, _, _, spec) -> spec
  | None -> Alcotest.fail ("no default spec named " ^ name)

let sizes inst =
  ( Template.nnodes inst.Instance.template,
    Netgraph.Digraph.nedges inst.Instance.graph )

let test_generator_deterministic () =
  List.iter
    (fun name ->
      let spec = spec_of name in
      let a = get (Scenario_gen.build spec)
      and b = get (Scenario_gen.build spec) in
      Alcotest.(check (pair int int)) (name ^ " sizes") (sizes a) (sizes b);
      let ea = get (Solve.encode_size a (Solve.approx ~kstar:1 ()))
      and eb = get (Solve.encode_size b (Solve.approx ~kstar:1 ())) in
      Alcotest.(check (pair int int)) (name ^ " encoding") ea eb)
    [ "tac-smoke"; "tac-mf2" ]

let test_variants_tighten () =
  (* Each tactical variant is expressed as extra channel attenuation,
     so it must keep the candidate node set and strictly shrink the
     feasible candidate-link set. *)
  let bn, be = sizes (get (Scenario_gen.build (spec_of "tac-mf2"))) in
  List.iter
    (fun name ->
      let vn, ve = sizes (get (Scenario_gen.build (spec_of name))) in
      Alcotest.(check int) (name ^ " same nodes") bn vn;
      Alcotest.(check bool)
        (Printf.sprintf "%s fewer candidate links (%d < %d)" name ve be)
        true (ve < be))
    [ "tac-mf2-jam"; "tac-mf2-atten"; "tac-mf2-corridor" ]

let test_generator_valid () =
  (* Every family keeps a feasible candidate-path structure at K* = 1,
     including under the tightened variants. *)
  List.iter
    (fun name ->
      let inst = get (Scenario.instance (get (Scenario.find name))) in
      match Solve.encode_size inst (Solve.approx ~kstar:1 ()) with
      | Ok (nvars, nconstrs) ->
          Alcotest.(check bool) (name ^ " nonempty encoding") true
            (nvars > 0 && nconstrs > 0)
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [ "tac-smoke"; "tac-mf2-jam"; "tac-city2-corridor" ]

(* ---- tabu search ---------------------------------------------------- *)

(* 4 nodes: 0 = source (fixed), 1-2 relay candidates, 3 = sink (fixed,
   budget-exempt).  The direct 0->3 link misses the RSS floor even with
   the strongest devices, so any feasible solution must relay. *)
let mk_problem ?(replicas = [| 1 |]) ?(rss_floor_dbm = -90.)
    ?(charge_base = [| 0.; 0. |]) ?(charge_budget = infinity) () =
  let pl = Array.make_matrix 4 4 200. in
  let set u v x =
    pl.(u).(v) <- x;
    pl.(v).(u) <- x
  in
  set 0 3 120.;
  set 0 1 60.;
  set 1 3 60.;
  set 0 2 50.;
  set 2 3 50.;
  set 1 2 55.;
  {
    Tabu.nnodes = 4;
    fixed = [| true; false; false; true |];
    pools = [| [| [| 0; 3 |]; [| 0; 1; 3 |]; [| 0; 2; 3 |]; [| 0; 1; 2; 3 |] |] |];
    replicas;
    ndevices = Array.make 4 2;
    pl;
    txg = Array.init 4 (fun _ -> [| 10.; 20. |]);
    rxg = Array.init 4 (fun _ -> [| 0.; 5. |]);
    rss_floor_dbm;
    node_cost = Array.init 4 (fun _ -> [| 10.; 30. |]);
    tx_cost = Array.init 4 (fun _ -> [| 1.; 1. |]);
    rx_cost = Array.init 4 (fun _ -> [| 1.; 1. |]);
    charge_base = Array.init 4 (fun _ -> Array.copy charge_base);
    charge_tx = Array.init 4 (fun _ -> [| 0.; 0. |]);
    charge_rx = Array.init 4 (fun _ -> [| 0.; 0. |]);
    charge_budget;
    budget_exempt = [| false; false; false; true |];
  }

let tabu_params = { Tabu.default_params with Tabu.tp_iters = 3000; tp_seed = 1 }

let expect_err what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (what ^ ": accepted")

let test_tabu_finds_relay_route () =
  let p = mk_problem () in
  let r = get (Tabu.solve tabu_params p) in
  match r.Tabu.r_best with
  | None -> Alcotest.fail "no feasible solution found"
  | Some sol ->
      (* 3 open nodes at 10 each + 2 tx uses + 2 rx uses. *)
      Alcotest.(check (float 1e-9)) "objective" 34. r.Tabu.r_obj;
      Alcotest.(check (float 1e-9)) "check agrees" r.Tabu.r_obj
        (get (Tabu.check p sol));
      let c = sol.Tabu.sol_choice.(0).(0) in
      Alcotest.(check bool) "routes through one relay" true (c = 1 || c = 2)

let test_tabu_disjoint_replicas () =
  let p = mk_problem ~replicas:[| 2 |] () in
  let r = get (Tabu.solve tabu_params p) in
  match r.Tabu.r_best with
  | None -> Alcotest.fail "no feasible solution found"
  | Some sol ->
      (* The direct path misses the floor and candidate 3 shares edges
         with both relay paths, so the only feasible pair is {1, 2}:
         4 open nodes + 4 tx uses + 4 rx uses. *)
      Alcotest.(check (float 1e-9)) "objective" 48. r.Tabu.r_obj;
      Alcotest.(check (float 1e-9)) "check agrees" r.Tabu.r_obj
        (get (Tabu.check p sol));
      Alcotest.(check bool) "selects both edge-disjoint relays" true
        (sol.Tabu.sol_choice.(0) = [| 1; 2 |])

let test_tabu_lifetime_forces_upgrade () =
  (* The cheap device blows the charge budget (100 > 50); the budget
     only admits the expensive one (10 <= 50).  The sink is exempt and
     keeps the cheap device. *)
  let p = mk_problem ~charge_base:[| 100.; 10. |] ~charge_budget:50. () in
  let r = get (Tabu.solve tabu_params p) in
  match r.Tabu.r_best with
  | None -> Alcotest.fail "no feasible solution found"
  | Some sol ->
      Alcotest.(check (float 1e-9)) "objective" 74. r.Tabu.r_obj;
      Alcotest.(check (float 1e-9)) "check agrees" r.Tabu.r_obj
        (get (Tabu.check p sol));
      let relay = sol.Tabu.sol_choice.(0).(0) in
      Alcotest.(check int) "source upgraded" 1 sol.Tabu.sol_device.(0);
      Alcotest.(check int) "relay upgraded" 1 sol.Tabu.sol_device.(relay);
      Alcotest.(check int) "exempt sink stays cheap" 0 sol.Tabu.sol_device.(3)

let test_tabu_deterministic_and_monotone () =
  let p = mk_problem ~replicas:[| 2 |] () in
  let a = get (Tabu.solve tabu_params p)
  and b = get (Tabu.solve tabu_params p) in
  Alcotest.(check bool) "same incumbent trace" true
    (a.Tabu.r_improvements = b.Tabu.r_improvements);
  Alcotest.(check int) "same iterations" a.Tabu.r_iters b.Tabu.r_iters;
  Alcotest.(check bool) "same best solution" true (a.Tabu.r_best = b.Tabu.r_best);
  Alcotest.(check bool) "improvements nonempty" true (a.Tabu.r_improvements <> []);
  let rec strictly_decreasing = function
    | (_, x) :: ((_, y) :: _ as rest) -> x > y && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "objectives strictly decreasing" true
    (strictly_decreasing a.Tabu.r_improvements);
  let _, last = List.nth a.Tabu.r_improvements (List.length a.Tabu.r_improvements - 1) in
  Alcotest.(check (float 1e-12)) "trace ends at the incumbent" a.Tabu.r_obj last

let test_tabu_infeasible () =
  (* A floor of 0 dBm is unreachable on every link: the search must
     report honestly rather than return a violated incumbent. *)
  let p = mk_problem ~rss_floor_dbm:0. () in
  let r = get (Tabu.solve tabu_params p) in
  Alcotest.(check bool) "no incumbent" true (r.Tabu.r_best = None);
  Alcotest.(check bool) "objective is infinity" true (r.Tabu.r_obj = infinity);
  Alcotest.(check bool) "first-feasible time is nan" true
    (Float.is_nan r.Tabu.r_first_feasible_s);
  Alcotest.(check bool) "empty trace" true (r.Tabu.r_improvements = [])

let test_tabu_check_rejects () =
  let p = mk_problem ~replicas:[| 2 |] () in
  let sol choice device = { Tabu.sol_choice = choice; sol_device = device } in
  let dev0 = Array.make 4 0 in
  expect_err "wrong slot count" (Tabu.check p (sol [| [| 1 |] |] dev0));
  expect_err "not strictly ascending" (Tabu.check p (sol [| [| 2; 1 |] |] dev0));
  expect_err "repeated candidate" (Tabu.check p (sol [| [| 1; 1 |] |] dev0));
  expect_err "candidate out of range" (Tabu.check p (sol [| [| 1; 9 |] |] dev0));
  expect_err "device out of range"
    (Tabu.check p (sol [| [| 1; 2 |] |] [| 0; 0; 0; 5 |]));
  (* Candidates 1 and 3 share the 0->1 edge. *)
  expect_err "disjointness" (Tabu.check p (sol [| [| 1; 3 |] |] dev0));
  (* Link quality: the direct path misses the floor with any device. *)
  expect_err "link-quality floor"
    (Tabu.check (mk_problem ()) (sol [| [| 0 |] |] dev0));
  (* Lifetime: cheap device over budget on the open source. *)
  expect_err "lifetime budget"
    (Tabu.check
       (mk_problem ~charge_base:[| 100.; 10. |] ~charge_budget:50. ())
       (sol [| [| 1 |] |] dev0));
  Alcotest.(check bool) "well-formed solution accepted" true
    (Tabu.check p (sol [| [| 1; 2 |] |] dev0) = Ok 48.)

let test_tabu_validate () =
  let p = mk_problem ~replicas:[| 9 |] () in
  expect_err "pool smaller than replicas" (Tabu.solve tabu_params p);
  expect_err "check sees it too"
    (Tabu.check p { Tabu.sol_choice = [| [| 0 |] |]; sol_device = Array.make 4 0 })

(* ---- matheuristic through the driver stack -------------------------- *)

let test_matheuristic_objective_parity () =
  let inst = get (Scenario.instance (get (Scenario.find "tac-smoke"))) in
  let base =
    Solver_config.(
      default |> with_approx ~kstar:3 () |> with_time_limit 60.
      |> with_rel_gap 1e-6)
  in
  let off = get (Solve.run base inst) in
  let first_incumbent = ref None in
  let on =
    get
      (Solve.run
         Solver_config.(
           base
           |> with_heuristic (tabu ~iters:8000 ~time_s:1. ())
           |> with_on_incumbent (fun o _ ->
                  if !first_incumbent = None then first_incumbent := Some o))
         inst)
  in
  Alcotest.(check (float 1e-6)) "objective parity" (obj off) (obj on);
  Alcotest.(check bool) "heuristic time recorded" true
    (on.Outcome.stats.Outcome.heuristic_time_s > 0.);
  Alcotest.(check bool) "off run spends nothing in the heuristic" true
    (off.Outcome.stats.Outcome.heuristic_time_s = 0.);
  match !first_incumbent with
  | None -> Alcotest.fail "heuristic streamed no incumbent"
  | Some o ->
      Alcotest.(check bool) "tabu incumbent never beats the proven optimum" true
        (o >= obj off -. 1e-6)

let test_table1_registry_bitcompat () =
  (* The registry must hand back bit-for-bit the instance the Table-1
     builders produce, and an explicit [--heuristic off] config must
     leave the pinned sequential tree untouched (same constant as
     test_archex's presolve regression). *)
  let via_registry = get (Scenario.instance (get (Scenario.find "dc-small-energy"))) in
  let direct =
    get
      (Scenarios.data_collection ~objective:Objective.energy
         Scenario.test_data_collection_params)
  in
  let cfg =
    Solver_config.(
      default |> with_approx ~kstar:4 () |> with_time_limit 60.
      |> with_rel_gap 1e-6 |> with_workers 1
      |> with_heuristic no_heuristic)
  in
  let a = (get (Solve.run cfg via_registry)).Outcome.mip
  and b = (get (Solve.run cfg direct)).Outcome.mip in
  Alcotest.(check int) "registry run hits the pinned tree" 62
    a.Milp.Branch_bound.nodes;
  Alcotest.(check int) "direct build explores the same tree"
    a.Milp.Branch_bound.nodes b.Milp.Branch_bound.nodes;
  Alcotest.(check bool) "objective bit-identical" true
    (a.Milp.Branch_bound.objective = b.Milp.Branch_bound.objective)

(* ---- session reconfigure -------------------------------------------- *)

let test_reconfigure_presolve_toggle () =
  (* Toggling presolve per-request on a warm session: parity against
     a control session that never toggles, across grows on both sides
     of the toggle. *)
  let inst = get (Scenario.instance (get (Scenario.find "dc-small-dollar"))) in
  let cfg =
    Solver_config.(
      default |> with_approx ~kstar:2 () |> with_time_limit 60.
      |> with_rel_gap 1e-6)
  in
  let s = get (Session.create cfg inst) in
  let control = get (Session.create cfg inst) in
  let o1 = Session.solve s and c1 = Session.solve control in
  Alcotest.(check (float 1e-6)) "warm-up parity" (obj c1) (obj o1);
  Session.reconfigure s
    (Solver_config.with_options (fun o -> { o with presolve = false }) cfg);
  get (Session.grow s ~kstar:3);
  get (Session.grow control ~kstar:3);
  let o2 = Session.solve s and c2 = Session.solve control in
  Alcotest.(check (float 1e-6)) "presolve-off parity" (obj c2) (obj o2);
  Alcotest.(check int) "reconfigure really disabled the reduction stack" 0
    o2.Outcome.mip.Milp.Branch_bound.presolve_rows_removed;
  Session.reconfigure s cfg;
  get (Session.grow s ~kstar:4);
  get (Session.grow control ~kstar:4);
  let o3 = Session.solve s and c3 = Session.solve control in
  Alcotest.(check (float 1e-6)) "presolve-back-on parity" (obj c3) (obj o3)

(* ---- solver-config checks ------------------------------------------- *)

let test_config_range_checks () =
  (* [with_options] is the one place engine settings are checked, which
     is what turns a bad CLI flag or per-request value into an error
     message instead of a crash.  Every shorthand setter goes through
     it too. *)
  let open Solver_config in
  List.iter
    (fun (name, f) ->
      match with_options f default with
      | _ -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("max applied 0", fun o -> { o with max_applied_cuts = 0 });
      ("max age 0", fun o -> { o with cut_max_age = 0 });
      ("pool size 0", fun o -> { o with cut_pool_size = 0 });
      ("min violation 0", fun o -> { o with cut_min_violation = 0. });
      ("min violation < 0", fun o -> { o with cut_min_violation = -1. });
      ("workers < 0", fun o -> { o with nworkers = -3 });
    ];
  (match with_workers (-1) default with
  | _ -> Alcotest.fail "with_workers (-1) accepted"
  | exception Invalid_argument _ -> ());
  let base = default |> with_approx ~kstar:5 () in
  let c = base |> with_options (fun o -> { o with warm_start = false; presolve = false }) in
  let o = bb_options c in
  Alcotest.(check bool) "edits reach bb_options" true
    ((not o.Milp.Branch_bound.warm_start) && not o.Milp.Branch_bound.presolve);
  Alcotest.(check bool) "strategy untouched" true (kstar c = Some 5);
  let c = with_time_limit 3. base in
  Alcotest.(check bool) "time limit reaches bb_options" true
    ((bb_options c).Milp.Branch_bound.time_limit = 3.)

let test_config_auto_workers () =
  let open Solver_config in
  Alcotest.(check int) "0 resolves to the detected domain count"
    (Domain.recommended_domain_count ())
    (bb_options (with_workers 0 default)).Milp.Branch_bound.nworkers;
  Alcotest.(check int) "explicit count passes through" 3
    (bb_options (with_workers 3 default)).Milp.Branch_bound.nworkers;
  Alcotest.(check int) "config keeps the unresolved 0" 0
    (with_workers 0 default).options.Milp.Branch_bound.nworkers

let test_heuristic_mode_names () =
  let open Solver_config in
  Alcotest.(check string) "tabu" "tabu" (heuristic_mode_name H_tabu);
  Alcotest.(check string) "off" "off" (heuristic_mode_name H_off);
  (match heuristic_mode_of_string "tabu" with
  | Ok H_tabu -> ()
  | _ -> Alcotest.fail "tabu spelling");
  (match heuristic_mode_of_string "off" with
  | Ok H_off -> ()
  | _ -> Alcotest.fail "off spelling");
  match heuristic_mode_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus spelling accepted"

let () =
  Alcotest.run "scenarios"
    [
      ( "registry",
        [
          Alcotest.test_case "seed + generated catalogue" `Quick test_registry_catalogue;
          Alcotest.test_case "register_defaults idempotent" `Quick
            test_register_defaults_idempotent;
          Alcotest.test_case "duplicate and empty names rejected" `Quick
            test_register_rejects;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic builds" `Quick test_generator_deterministic;
          Alcotest.test_case "variants strictly tighten" `Quick test_variants_tighten;
          Alcotest.test_case "feasible path structure" `Quick test_generator_valid;
        ] );
      ( "tabu",
        [
          Alcotest.test_case "finds the relay route" `Quick test_tabu_finds_relay_route;
          Alcotest.test_case "disjoint replicas" `Quick test_tabu_disjoint_replicas;
          Alcotest.test_case "lifetime forces device upgrade" `Quick
            test_tabu_lifetime_forces_upgrade;
          Alcotest.test_case "deterministic, strictly improving" `Quick
            test_tabu_deterministic_and_monotone;
          Alcotest.test_case "honest on infeasible problems" `Quick test_tabu_infeasible;
          Alcotest.test_case "check rejects malformed solutions" `Quick
            test_tabu_check_rejects;
          Alcotest.test_case "problem validation" `Quick test_tabu_validate;
        ] );
      ( "matheuristic",
        [
          Alcotest.test_case "objective parity on tac-smoke" `Slow
            test_matheuristic_objective_parity;
          Alcotest.test_case "Table-1 registry bit-compat, heuristic off" `Slow
            test_table1_registry_bitcompat;
        ] );
      ( "session",
        [
          Alcotest.test_case "per-request presolve toggle" `Slow
            test_reconfigure_presolve_toggle;
        ] );
      ( "config",
        [
          Alcotest.test_case "with_options range checks" `Quick test_config_range_checks;
          Alcotest.test_case "bb_options resolves auto workers" `Quick
            test_config_auto_workers;
          Alcotest.test_case "heuristic mode spellings" `Quick test_heuristic_mode_names;
        ] );
    ]
