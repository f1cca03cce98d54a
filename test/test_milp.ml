(* Tests for the MILP substrate: linear expressions, the model builder,
   the bounded-variable simplex, presolve, branch & bound, and the LP
   writer.  Property-based tests check the solver against brute force
   on randomly generated instances. *)

open Milp

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_feq name expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" name expected got)
    true (feq expected got)

(* ------------------------------------------------------------------ *)
(* Lin                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lin_basic () =
  let e = Lin.of_list [ (2., 0); (3., 1); (-2., 0) ] in
  check_feq "coeff merge" 0. (Lin.coeff e 0);
  check_feq "coeff kept" 3. (Lin.coeff e 1);
  Alcotest.(check int) "zero coeffs dropped" 1 (Lin.nterms e)

let test_lin_add_scale () =
  let a = Lin.of_list [ (1., 0); (2., 1) ] in
  let b = Lin.of_list [ (3., 1); (4., 2) ] in
  let s = Lin.add a b in
  check_feq "sum x0" 1. (Lin.coeff s 0);
  check_feq "sum x1" 5. (Lin.coeff s 1);
  check_feq "sum x2" 4. (Lin.coeff s 2);
  let sc = Lin.scale (-2.) s in
  check_feq "scale x1" (-10.) (Lin.coeff sc 1);
  Alcotest.(check bool) "scale 0 is zero" true (Lin.is_constant (Lin.scale 0. s))

let test_lin_eval () =
  let e = Lin.add_const (Lin.of_list [ (2., 0); (-1., 3) ]) 5. in
  let v = function 0 -> 1.5 | 3 -> 2. | _ -> 0. in
  check_feq "eval" 6. (Lin.eval v e)

let test_lin_sub_neg () =
  let a = Lin.of_list [ (1., 0) ] and b = Lin.of_list [ (1., 0); (1., 1) ] in
  let d = Lin.sub a b in
  check_feq "sub x0" 0. (Lin.coeff d 0);
  check_feq "sub x1" (-1.) (Lin.coeff d 1);
  Alcotest.(check bool) "neg . neg = id" true (Lin.equal a (Lin.neg (Lin.neg a)))

let test_lin_infix () =
  let open Lin.Infix in
  let e = Lin.var 0 ++ (2. *: Lin.var 1) -- Lin.var 0 in
  Alcotest.(check int) "infix terms" 1 (Lin.nterms e);
  check_feq "infix coeff" 2. (Lin.coeff e 1)

let test_lin_iter_order () =
  let e = Lin.of_list [ (1., 5); (1., 1); (1., 3) ] in
  let order = List.map fst (Lin.terms e) in
  Alcotest.(check (list int)) "ascending var order" [ 1; 3; 5 ] order

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model_vars () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:(-1.) ~ub:2. "x" in
  let b = Model.add_binary m "b" in
  let k = Model.add_var m ~kind:Model.Integer ~lb:0. ~ub:9. "k" in
  Alcotest.(check int) "ids sequential" 1 b;
  Alcotest.(check int) "nvars" 3 (Model.nvars m);
  check_feq "lb" (-1.) (Model.var_lb m x);
  check_feq "binary ub" 1. (Model.var_ub m b);
  Alcotest.(check bool) "integer flag" true (Model.is_integer m k);
  Alcotest.(check bool) "continuous flag" false (Model.is_integer m x)

let test_model_bad_bounds () =
  let m = Model.create () in
  Alcotest.check_raises "lb > ub rejected"
    (Invalid_argument "Model.add_var \"x\": lb (2) > ub (1)") (fun () ->
      ignore (Model.add_var m ~lb:2. ~ub:1. "x"));
  Alcotest.check_raises "objective on an unknown variable rejected"
    (Invalid_argument "Model.set_objective: variable 0 out of range") (fun () ->
      Model.set_objective m Model.Minimize (Lin.var 0))

let test_model_constr_folds_constant () =
  let m = Model.create () in
  let x = Model.add_var m "x" in
  Model.add_constr m (Lin.add_const (Lin.var x) 5.) Model.Le 8.;
  let c = (Model.constrs m).(0) in
  check_feq "constant moved to rhs" 3. c.Model.c_rhs;
  check_feq "lhs constant cleared" 0. (Lin.constant c.Model.c_expr)

let test_model_check_feasible () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:5. "x" in
  let b = Model.add_binary m "b" in
  Model.add_constr m (Lin.of_list [ (1., x); (2., b) ]) Model.Le 4.;
  let ok = Model.check_feasible m (function v -> if v = x then 2. else 1.) in
  Alcotest.(check bool) "feasible point accepted" true (Result.is_ok ok);
  let bad = Model.check_feasible m (function v -> if v = x then 3. else 1.) in
  Alcotest.(check bool) "violated row rejected" true (Result.is_error bad);
  let frac = Model.check_feasible m (function v -> if v = b then 0.5 else 0.) in
  Alcotest.(check bool) "fractional binary rejected" true (Result.is_error frac)

(* ------------------------------------------------------------------ *)
(* Simplex on hand-checked LPs                                         *)
(* ------------------------------------------------------------------ *)

let lp_status = Alcotest.testable (Fmt.of_to_string Status.lp_status_to_string) ( = )

let test_simplex_textbook () =
  (* max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18 -> 36 at (2, 6). *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_constr m (Lin.var x) Model.Le 4.;
  Model.add_constr m (Lin.term 2. y) Model.Le 12.;
  Model.add_constr m (Lin.of_list [ (3., x); (2., y) ]) Model.Le 18.;
  Model.set_objective m Model.Maximize (Lin.of_list [ (3., x); (5., y) ]);
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_optimal r.Simplex.status;
  check_feq "objective" 36. r.Simplex.objective;
  check_feq "x" 2. r.Simplex.primal.(x);
  check_feq "y" 6. r.Simplex.primal.(y)

let test_simplex_equality_and_ge () =
  (* min a + 2b; a + b = 10; a - b >= 2 -> 10 at (10, 0). *)
  let m = Model.create () in
  let a = Model.add_var m "a" and b = Model.add_var m "b" in
  Model.add_constr m (Lin.of_list [ (1., a); (1., b) ]) Model.Eq 10.;
  Model.add_constr m (Lin.of_list [ (1., a); (-1., b) ]) Model.Ge 2.;
  Model.set_objective m Model.Minimize (Lin.of_list [ (1., a); (2., b) ]);
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_optimal r.Simplex.status;
  check_feq "objective" 10. r.Simplex.objective

let test_simplex_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:4. "x" in
  Model.add_constr m (Lin.var x) Model.Ge 5.;
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_infeasible r.Simplex.status

let test_simplex_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m "x" in
  Model.set_objective m Model.Maximize (Lin.var x);
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_unbounded r.Simplex.status

let test_simplex_negative_lb () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:(-3.) ~ub:10. "x" in
  Model.set_objective m Model.Minimize (Lin.var x);
  let r = Simplex.solve_model m in
  check_feq "negative lower bound attained" (-3.) r.Simplex.objective

let test_simplex_free_variable () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:neg_infinity ~ub:infinity "x" in
  let y = Model.add_var m ~ub:1. "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (1., y) ]) Model.Ge 2.;
  Model.set_objective m Model.Minimize (Lin.of_list [ (1., x); (1., y) ]);
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_optimal r.Simplex.status;
  check_feq "objective" 2. r.Simplex.objective

let test_simplex_free_unbounded_below () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:neg_infinity ~ub:infinity "x" in
  Model.add_constr m (Lin.var x) Model.Le 5.;
  Model.set_objective m Model.Minimize (Lin.var x);
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_unbounded r.Simplex.status

let test_simplex_degenerate () =
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (1., y) ]) Model.Le 1.;
  Model.add_constr m (Lin.of_list [ (1., x); (2., y) ]) Model.Le 1.;
  Model.add_constr m (Lin.of_list [ (2., x); (1., y) ]) Model.Le 1.;
  Model.set_objective m Model.Maximize (Lin.of_list [ (1., x); (1., y) ]);
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_optimal r.Simplex.status;
  check_feq "objective" (2. /. 3.) r.Simplex.objective

let test_simplex_fixed_vars () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:2. ~ub:2. "x" in
  let y = Model.add_var m ~ub:10. "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (1., y) ]) Model.Le 5.;
  Model.set_objective m Model.Maximize (Lin.var y);
  let r = Simplex.solve_model m in
  check_feq "fixed var respected" 3. r.Simplex.objective;
  check_feq "fixed value" 2. r.Simplex.primal.(x)

let test_simplex_equality_negative_rhs () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:(-10.) ~ub:10. "x" in
  let y = Model.add_var m ~lb:(-10.) ~ub:10. "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (1., y) ]) Model.Eq (-4.);
  Model.add_constr m (Lin.of_list [ (1., x); (-1., y) ]) Model.Eq 2.;
  Model.set_objective m Model.Minimize (Lin.of_list [ (1., x) ]);
  let r = Simplex.solve_model m in
  Alcotest.check lp_status "status" Status.Lp_optimal r.Simplex.status;
  check_feq "x" (-1.) r.Simplex.primal.(x);
  check_feq "y" (-3.) r.Simplex.primal.(y)

(* Random LPs: the simplex result must satisfy all constraints, and no
   random feasible point may beat its objective. *)
let random_lp_spec =
  QCheck2.Gen.(
    let* nvars = int_range 2 6 in
    let* nrows = int_range 1 8 in
    let coef = float_range (-5.) 5. in
    let* obj = list_size (return nvars) coef in
    let* rows =
      list_size (return nrows)
        (let* cs = list_size (return nvars) coef in
         let* rhs = float_range 0. 20. in
         let* sense = oneofl [ Model.Le; Model.Ge ] in
         return (cs, sense, rhs))
    in
    return (nvars, obj, rows))

let build_lp (nvars, obj, rows) =
  let m = Model.create () in
  let vars = List.init nvars (fun i -> Model.add_var m ~lb:0. ~ub:10. (Printf.sprintf "x%d" i)) in
  List.iter
    (fun (cs, sense, rhs) ->
      Model.add_constr m (Lin.of_list (List.map2 (fun c v -> (c, v)) cs vars)) sense rhs)
    rows;
  Model.set_objective m Model.Minimize (Lin.of_list (List.map2 (fun c v -> (c, v)) obj vars));
  (m, vars)

let prop_simplex_sound =
  QCheck2.Test.make ~name:"simplex: optimal solutions are feasible and undominated" ~count:300
    random_lp_spec (fun spec ->
      let m, vars = build_lp spec in
      let r = Simplex.solve_model m in
      match r.Simplex.status with
      | Status.Lp_optimal ->
          let ok = Model.check_feasible ~tol:1e-5 m (fun v -> r.Simplex.primal.(v)) in
          if Result.is_error ok then false
          else begin
            let rng = Random.State.make [| 7 |] in
            let beaten = ref false in
            for _ = 1 to 50 do
              let pt = List.map (fun _ -> Random.State.float rng 10.) vars in
              let value v = List.nth pt v in
              if Result.is_ok (Model.check_feasible ~tol:1e-9 m value) then begin
                let _, obj_expr = Model.objective m in
                if Lin.eval value obj_expr < r.Simplex.objective -. 1e-5 then beaten := true
              end
            done;
            not !beaten
          end
      | Status.Lp_infeasible ->
          let rng = Random.State.make [| 11 |] in
          let found = ref false in
          for _ = 1 to 200 do
            let pt = List.map (fun _ -> Random.State.float rng 10.) vars in
            let value v = List.nth pt v in
            if Result.is_ok (Model.check_feasible ~tol:1e-9 m value) then found := true
          done;
          not !found
      | Status.Lp_unbounded | Status.Lp_iteration_limit -> false)

(* ------------------------------------------------------------------ *)
(* Warm-started dual simplex                                           *)
(* ------------------------------------------------------------------ *)

let test_warm_restart_textbook () =
  (* Cold solve of the textbook LP, then tighten x <= 1 and warm
     re-solve from the optimal basis: max 3x + 5y under x <= 1, 2y <= 12,
     3x + 2y <= 18 is 33 at (1, 6).  The warm path must be taken (the
     result says which path ran) and must agree with a cold solve. *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_constr m (Lin.var x) Model.Le 4.;
  Model.add_constr m (Lin.term 2. y) Model.Le 12.;
  Model.add_constr m (Lin.of_list [ (3., x); (2., y) ]) Model.Le 18.;
  Model.set_objective m Model.Maximize (Lin.of_list [ (3., x); (5., y) ]);
  let p = Simplex.of_model m in
  let n = p.Simplex.ncols in
  let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
  let r0 = Simplex.solve p ~lb ~ub in
  Alcotest.check lp_status "cold status" Status.Lp_optimal r0.Simplex.status;
  let basis =
    match r0.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "optimal cold solve must expose its basis"
  in
  ub.(x) <- 1.;
  let r1 = Simplex.solve ~basis p ~lb ~ub in
  Alcotest.check lp_status "warm status" Status.Lp_optimal r1.Simplex.status;
  Alcotest.(check bool) "warm path taken" true (r1.Simplex.warm = Simplex.Warm);
  check_feq "warm objective" (-33.) r1.Simplex.objective;
  check_feq "warm x" 1. r1.Simplex.primal.(x);
  check_feq "warm y" 6. r1.Simplex.primal.(y)

(* The textbook LP of [test_warm_restart_textbook]: max 3x + 5y under
   x <= 4, 2y <= 12, 3x + 2y <= 18, optimal at (2, 6). *)
let textbook_lp () =
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_constr m (Lin.var x) Model.Le 4.;
  Model.add_constr m (Lin.term 2. y) Model.Le 12.;
  Model.add_constr m (Lin.of_list [ (3., x); (2., y) ]) Model.Le 18.;
  Model.set_objective m Model.Maximize (Lin.of_list [ (3., x); (5., y) ]);
  let p = Simplex.of_model m in
  let n = p.Simplex.ncols in
  (p, Array.init n (Model.var_lb m), Array.init n (Model.var_ub m))

(* [f ()] and the BTRANs it made. *)
let counting_btrans f =
  Lu.reset_stats ();
  Lu.set_stats_enabled true;
  let r = Fun.protect ~finally:(fun () -> Lu.set_stats_enabled false) f in
  (r, (Lu.stats ()).Lu.s_btran_calls)

let test_warm_optimal_refreshes_once () =
  (* A restored basis that is already optimal: the reduced costs
     refreshed at phase entry are the ones that confirm optimality, so
     one BTRAN serves both. *)
  let p, lb, ub = textbook_lp () in
  let basis = Option.get (Simplex.solve p ~lb ~ub).Simplex.basis in
  let r, btrans = counting_btrans (fun () -> Simplex.solve ~basis p ~lb ~ub) in
  Alcotest.check lp_status "warm status" Status.Lp_optimal r.Simplex.status;
  Alcotest.(check bool) "warm path taken" true (r.Simplex.warm = Simplex.Warm);
  Alcotest.(check int) "no pivot" 0 r.Simplex.iterations;
  check_feq "objective" (-36.) r.Simplex.objective;
  Alcotest.(check int) "one BTRAN" 1 btrans

let test_warm_pivot_refreshes_again () =
  (* Max 5x + 3y from the (2, 6) basis takes primal pivots to (4, 3).
     Each pivot's devex update makes one BTRAN; the phase-entry refresh
     and the refresh confirming optimality after the last pivot make
     one each.  No variable is boxed, so no iteration is a bound flip. *)
  let p, lb, ub = textbook_lp () in
  let basis = Option.get (Simplex.solve p ~lb ~ub).Simplex.basis in
  let p' = { p with Simplex.obj = [| -5.; -3. |] } in
  let r, btrans = counting_btrans (fun () -> Simplex.solve ~basis p' ~lb ~ub) in
  Alcotest.check lp_status "warm status" Status.Lp_optimal r.Simplex.status;
  Alcotest.(check bool) "warm path taken" true (r.Simplex.warm = Simplex.Warm);
  Alcotest.(check bool) "pivots taken" true (r.Simplex.iterations > 0);
  check_feq "objective" (-29.) r.Simplex.objective;
  Alcotest.(check int) "BTRANs" (r.Simplex.iterations + 2) btrans

let test_warm_detects_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:10. "x" in
  Model.add_constr m (Lin.var x) Model.Ge 5.;
  Model.set_objective m Model.Minimize (Lin.var x);
  let p = Simplex.of_model m in
  let lb = [| 0. |] and ub = [| 10. |] in
  let r0 = Simplex.solve p ~lb ~ub in
  let basis = Option.get r0.Simplex.basis in
  (* Branching-style tightening x <= 4 contradicts x >= 5. *)
  let r1 = Simplex.solve ~basis p ~lb ~ub:[| 4. |] in
  Alcotest.check lp_status "warm infeasible" Status.Lp_infeasible r1.Simplex.status

(* Random bounded LPs re-solved after random bound tightenings: the
   warm-started result must match a cold solve in status and (at
   optimality) objective. *)
let prop_warm_matches_cold =
  QCheck2.Test.make ~name:"simplex: warm re-solve after bound tightenings matches cold"
    ~count:300
    QCheck2.Gen.(
      tup2 random_lp_spec
        (list_size (int_range 1 5) (tup3 (int_range 0 11) bool (float_range 0. 10.))))
    (fun (spec, tightenings) ->
      let m, _ = build_lp spec in
      let p = Simplex.of_model m in
      let n = p.Simplex.ncols in
      let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
      let r0 = Simplex.solve p ~lb ~ub in
      match (r0.Simplex.status, r0.Simplex.basis) with
      | Status.Lp_optimal, Some basis ->
          List.iter
            (fun (j, is_lb, v) ->
              let j = j mod n in
              if is_lb then lb.(j) <- Float.max lb.(j) (Float.floor v)
              else ub.(j) <- Float.min ub.(j) (Float.ceil v))
            tightenings;
          let warm = Simplex.solve ~basis p ~lb ~ub in
          let cold = Simplex.solve p ~lb ~ub in
          warm.Simplex.status = cold.Simplex.status
          && (warm.Simplex.status <> Status.Lp_optimal
             || feq ~eps:1e-6 warm.Simplex.objective cold.Simplex.objective)
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Presolve                                                            *)
(* ------------------------------------------------------------------ *)

let run_presolve m =
  let p = Simplex.of_model m in
  let n = Model.nvars m in
  Presolve.run p
    ~integer:(Array.init n (Model.is_integer m))
    ~lb:(Array.init n (Model.var_lb m))
    ~ub:(Array.init n (Model.var_ub m))

let test_presolve_singleton_bound () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:10. "x" in
  Model.add_constr m (Lin.term 2. x) Model.Le 6.;
  match run_presolve m with
  | Presolve.Feasible { ub; active; _ } ->
      check_feq "tightened ub" 3. ub.(x);
      Alcotest.(check bool) "row now redundant" false active.(0)
  | Presolve.Proven_infeasible e -> Alcotest.fail e

let test_presolve_integer_rounding () =
  let m = Model.create () in
  let x = Model.add_var m ~kind:Model.Integer ~ub:10. "x" in
  Model.add_constr m (Lin.term 2. x) Model.Le 7.;
  match run_presolve m with
  | Presolve.Feasible { ub; _ } -> check_feq "floor(3.5)" 3. ub.(x)
  | Presolve.Proven_infeasible e -> Alcotest.fail e

let test_presolve_detects_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:1. "x" in
  let y = Model.add_var m ~ub:1. "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (1., y) ]) Model.Ge 3.;
  match run_presolve m with
  | Presolve.Proven_infeasible _ -> ()
  | Presolve.Feasible _ -> Alcotest.fail "expected infeasibility"

let test_presolve_chain_propagation () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:5. ~ub:5. "x" in
  let y = Model.add_var m ~ub:10. "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (2., y) ]) Model.Le 7.;
  match run_presolve m with
  | Presolve.Feasible { ub; _ } -> check_feq "propagated ub" 1. ub.(y)
  | Presolve.Proven_infeasible e -> Alcotest.fail e

let test_presolve_strengthen_clique () =
  (* 5x + 3y <= 7 over binaries: strengthening pulls both coefficients
     down to the clique row x + y <= 1 (same integer points, tighter
     LP relaxation). *)
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Model.add_constr m (Lin.of_list [ (5., x); (3., y) ]) Model.Le 7.;
  let p = Simplex.of_model m in
  let integer = [| true; true |] in
  let lb = [| 0.; 0. |] and ub = [| 1.; 1. |] in
  let p', changed = Presolve.strengthen p ~integer ~lb ~ub in
  Alcotest.(check int) "both coefficients strengthened" 2 changed;
  check_feq "x coefficient" 1. (snd p'.Simplex.rows.(0).(0));
  check_feq "y coefficient" 1. (snd p'.Simplex.rows.(0).(1));
  check_feq "rhs" 1. p'.Simplex.rhs.(0);
  (* the original problem must not be mutated *)
  check_feq "original x coefficient intact" 5. (snd p.Simplex.rows.(0).(0));
  (* integer points preserved: exactly (0,0), (1,0), (0,1) in both *)
  List.iter
    (fun (vx, vy) ->
      let before = (5. *. vx) +. (3. *. vy) <= 7. in
      let after = vx +. vy <= 1. in
      Alcotest.(check bool)
        (Printf.sprintf "point (%g, %g) preserved" vx vy)
        before after)
    [ (0., 0.); (1., 0.); (0., 1.); (1., 1.) ]

let test_presolve_strengthen_ge_row () =
  (* >= rows strengthen through negation: 5x + 3y >= 1 over binaries
     becomes x + y >= ... ; here max activity of the negated row
     -5x - 3y <= -1 is 0, d = -1 - 0 + 5 = 4 for x (0 < 4 < 5) and the
     row strengthens to the set-covering row x + y >= 1. *)
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Model.add_constr m (Lin.of_list [ (5., x); (3., y) ]) Model.Ge 1.;
  let p = Simplex.of_model m in
  let p', changed = Presolve.strengthen p ~integer:[| true; true |] ~lb:[| 0.; 0. |] ~ub:[| 1.; 1. |] in
  Alcotest.(check int) "both coefficients strengthened" 2 changed;
  check_feq "x coefficient" 1. (snd p'.Simplex.rows.(0).(0));
  check_feq "y coefficient" 1. (snd p'.Simplex.rows.(0).(1));
  check_feq "rhs" 1. p'.Simplex.rhs.(0)

let test_presolve_no_false_positives =
  QCheck2.Test.make ~name:"presolve: never cuts off LP-feasible boxes" ~count:200 random_lp_spec
    (fun spec ->
      let m, _ = build_lp spec in
      let r = Simplex.solve_model m in
      match (r.Simplex.status, run_presolve m) with
      | Status.Lp_optimal, Presolve.Proven_infeasible _ -> false
      | Status.Lp_optimal, Presolve.Feasible { lb; ub; _ } ->
          let ok = ref true in
          Array.iteri
            (fun j v -> if v < lb.(j) -. 1e-6 || v > ub.(j) +. 1e-6 then ok := false)
            r.Simplex.primal;
          !ok
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Branch & bound                                                      *)
(* ------------------------------------------------------------------ *)

let mip_status = Alcotest.testable (Fmt.of_to_string Status.mip_status_to_string) ( = )

let test_bb_knapsack () =
  let m = Model.create () in
  let a = Model.add_binary m "a" and b = Model.add_binary m "b" in
  let c = Model.add_binary m "c" and d = Model.add_binary m "d" in
  Model.add_constr m (Lin.of_list [ (4., a); (6., b); (3., c); (5., d) ]) Model.Le 10.;
  Model.set_objective m Model.Maximize (Lin.of_list [ (10., a); (13., b); (7., c); (11., d) ]);
  let r = Branch_bound.solve m in
  Alcotest.check mip_status "status" Status.Mip_optimal r.Branch_bound.status;
  check_feq "objective" 23. r.Branch_bound.objective

let test_bb_integer_min () =
  let m = Model.create () in
  let x = Model.add_var m ~kind:Model.Integer "x" in
  let y = Model.add_var m ~kind:Model.Integer "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (2., y) ]) Model.Ge 7.;
  Model.add_constr m (Lin.of_list [ (2., x); (1., y) ]) Model.Ge 8.;
  Model.set_objective m Model.Minimize (Lin.of_list [ (3., x); (4., y) ]);
  let r = Branch_bound.solve m in
  check_feq "objective" 17. r.Branch_bound.objective;
  check_feq "x" 3. (Branch_bound.value r x);
  check_feq "y" 2. (Branch_bound.value r y)

let test_bb_infeasible () =
  let m = Model.create () in
  let x = Model.add_binary m "x" and y = Model.add_binary m "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (1., y) ]) Model.Ge 3.;
  let r = Branch_bound.solve m in
  Alcotest.check mip_status "status" Status.Mip_infeasible r.Branch_bound.status

let test_bb_lp_feasible_mip_infeasible () =
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  Model.add_constr m (Lin.term 2. x) Model.Eq 1.;
  let r = Branch_bound.solve m in
  Alcotest.check mip_status "status" Status.Mip_infeasible r.Branch_bound.status

let test_bb_equality_partition () =
  let m = Model.create () in
  let xs = List.init 5 (fun i -> Model.add_binary m (Printf.sprintf "x%d" i)) in
  Model.add_constr m (Lin.of_list (List.map (fun v -> (1., v)) xs)) Model.Eq 1.;
  Model.set_objective m Model.Minimize
    (Lin.of_list (List.mapi (fun i v -> (float_of_int (5 - i), v)) xs));
  let r = Branch_bound.solve m in
  check_feq "cheapest selected" 1. r.Branch_bound.objective

let test_bb_respects_bound () =
  let m = Model.create () in
  let x = Model.add_var m ~kind:Model.Integer ~lb:2. ~ub:7. "x" in
  Model.set_objective m Model.Maximize (Lin.var x);
  let r = Branch_bound.solve m in
  check_feq "hits ub" 7. r.Branch_bound.objective;
  check_feq "gap closed" 0. (Branch_bound.gap r)

(* Brute force over binary assignments for cross-checking. *)
let brute_force_binary m nvars =
  let best = ref None in
  let dir, obj_expr = Model.objective m in
  for mask = 0 to (1 lsl nvars) - 1 do
    let value v = if (mask lsr v) land 1 = 1 then 1.0 else 0.0 in
    if Result.is_ok (Model.check_feasible ~tol:1e-9 m value) then begin
      let obj = Lin.eval value obj_expr in
      match !best with
      | None -> best := Some obj
      | Some b ->
          best :=
            Some
              (match dir with
              | Model.Minimize -> Float.min b obj
              | Model.Maximize -> Float.max b obj)
    end
  done;
  !best

let random_bip =
  QCheck2.Gen.(
    let* nvars = int_range 2 8 in
    let* nrows = int_range 1 6 in
    let coef = float_range (-4.) 4. in
    let* obj = list_size (return nvars) coef in
    let* rows =
      list_size (return nrows)
        (let* cs = list_size (return nvars) coef in
         let* rhs = float_range (-2.) 8. in
         let* sense = oneofl [ Model.Le; Model.Ge ] in
         return (cs, sense, rhs))
    in
    return (nvars, obj, rows))

let prop_bb_matches_brute_force =
  QCheck2.Test.make ~name:"branch&bound: agrees with brute force on binary programs" ~count:150
    random_bip (fun (nvars, obj, rows) ->
      let m = Model.create () in
      let vars = List.init nvars (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
      List.iter
        (fun (cs, sense, rhs) ->
          Model.add_constr m (Lin.of_list (List.map2 (fun c v -> (c, v)) cs vars)) sense rhs)
        rows;
      Model.set_objective m Model.Minimize
        (Lin.of_list (List.map2 (fun c v -> (c, v)) obj vars));
      let r = Branch_bound.solve m in
      match (brute_force_binary m nvars, r.Branch_bound.status) with
      | None, Status.Mip_infeasible -> true
      | None, _ -> r.Branch_bound.solution = None
      | Some best, Status.Mip_optimal -> feq ~eps:1e-5 best r.Branch_bound.objective
      | Some _, _ -> false)

let prop_bb_solution_is_feasible =
  QCheck2.Test.make ~name:"branch&bound: incumbents satisfy the model" ~count:150 random_bip
    (fun (nvars, obj, rows) ->
      let m = Model.create () in
      let vars = List.init nvars (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
      List.iter
        (fun (cs, sense, rhs) ->
          Model.add_constr m (Lin.of_list (List.map2 (fun c v -> (c, v)) cs vars)) sense rhs)
        rows;
      Model.set_objective m Model.Maximize
        (Lin.of_list (List.map2 (fun c v -> (c, v)) obj vars));
      let r = Branch_bound.solve m in
      match r.Branch_bound.solution with
      | None -> true
      | Some x -> Result.is_ok (Model.check_feasible ~tol:1e-5 m (fun v -> x.(v))))


(* Regression for the warm-start rewiring: full branch & bound runs on
   the same model with warm starts on and off must agree on status and,
   at optimality, objective (default options prove optimality, so tree
   order differences cannot change the answer). *)
let prop_bb_warm_start_invariant =
  QCheck2.Test.make ~name:"branch&bound: warm starts leave status and objective unchanged"
    ~count:100 random_bip (fun (nvars, obj, rows) ->
      let m = Model.create () in
      let vars = List.init nvars (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
      List.iter
        (fun (cs, sense, rhs) ->
          Model.add_constr m (Lin.of_list (List.map2 (fun c v -> (c, v)) cs vars)) sense rhs)
        rows;
      Model.set_objective m Model.Minimize
        (Lin.of_list (List.map2 (fun c v -> (c, v)) obj vars));
      let warm = Branch_bound.solve m in
      let cold =
        Branch_bound.solve
          ~options:{ Branch_bound.default_options with Branch_bound.warm_start = false }
          m
      in
      cold.Branch_bound.lp_warm = 0
      && warm.Branch_bound.status = cold.Branch_bound.status
      && (warm.Branch_bound.status <> Status.Mip_optimal
         || feq ~eps:1e-5 warm.Branch_bound.objective cold.Branch_bound.objective))

(* ------------------------------------------------------------------ *)
(* Cutting planes                                                      *)
(* ------------------------------------------------------------------ *)

let build_bip (nvars, obj, rows) =
  let m = Model.create () in
  let vars = List.init nvars (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
  List.iter
    (fun (cs, sense, rhs) ->
      Model.add_constr m (Lin.of_list (List.map2 (fun c v -> (c, v)) cs vars)) sense rhs)
    rows;
  Model.set_objective m Model.Minimize (Lin.of_list (List.map2 (fun c v -> (c, v)) obj vars));
  m

let prop_presolve_strengthen_preserves_integer_points =
  QCheck2.Test.make ~name:"presolve: strengthening preserves every integer-feasible point"
    ~count:300 random_bip (fun ((nvars, _, _) as spec) ->
      let m = build_bip spec in
      let p = Simplex.of_model m in
      let n = p.Simplex.ncols in
      let integer = Array.init n (Model.is_integer m) in
      let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
      let p', _ = Presolve.strengthen p ~integer ~lb ~ub in
      let sat (q : Simplex.problem) x =
        let ok = ref true in
        Array.iteri
          (fun i row ->
            let lhs = Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. row in
            let rhs = q.Simplex.rhs.(i) in
            match q.Simplex.senses.(i) with
            | Model.Le -> if lhs > rhs +. 1e-7 then ok := false
            | Model.Ge -> if lhs < rhs -. 1e-7 then ok := false
            | Model.Eq -> if Float.abs (lhs -. rhs) > 1e-7 then ok := false)
          q.Simplex.rows;
        !ok
      in
      let ok = ref true in
      for mask = 0 to (1 lsl nvars) - 1 do
        let x = Array.init n (fun v -> float_of_int ((mask lsr v) land 1)) in
        if sat p x <> sat p' x then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Reduction stack + postsolve                                         *)
(* ------------------------------------------------------------------ *)

let run_reduce ?passes ?essential m =
  let p = Simplex.of_model m in
  let n = Model.nvars m in
  Presolve.reduce ?passes ?essential p
    ~integer:(Array.init n (Model.is_integer m))
    ~lb:(Array.init n (Model.var_lb m))
    ~ub:(Array.init n (Model.var_ub m))

(* Postsolve roundtrip on LPs: reduce, solve the reduced problem,
   restore.  The restored point must be feasible for the original model
   and evaluate the original objective within 1e-9 of the reduced
   objective (the mapping itself is exact up to rounding; obj_const
   folds every eliminated column).  Full-vs-reduced solver parity is
   checked at LP tolerance — two independent simplex runs may stop at
   alternate vertices up to ~1e-7 apart in objective. *)
let prop_reduce_roundtrip_lp =
  QCheck2.Test.make
    ~name:"reduce: postsolve maps reduced LP optima back exactly (1e-9)" ~count:300
    random_lp_spec (fun spec ->
      let m, _ = build_lp spec in
      let full = Simplex.solve_model m in
      match run_reduce m with
      | Presolve.Reduce_infeasible _ -> full.Simplex.status = Status.Lp_infeasible
      | Presolve.Reduced red -> (
          let r =
            Simplex.solve red.Presolve.red_problem ~lb:red.Presolve.red_lb
              ~ub:red.Presolve.red_ub
          in
          match (full.Simplex.status, r.Simplex.status) with
          | Status.Lp_optimal, Status.Lp_optimal ->
              let x = Postsolve.restore red.Presolve.red_post r.Simplex.primal in
              feq ~eps:1e-5 full.Simplex.objective r.Simplex.objective
              && Result.is_ok (Model.check_feasible ~tol:1e-6 m (fun v -> x.(v)))
              && feq ~eps:1e-9 r.Simplex.objective
                   (Lin.eval (fun v -> x.(v)) (snd (Model.objective m)))
          | Status.Lp_infeasible, Status.Lp_infeasible -> true
          | _ -> false))

(* Routing-shaped 0-1 programs: exactly-one selector rows (one per
   group, the shape of the paper's one-path rows) plus nonnegative
   capacity rows — the structure probing and parallel-row detection are
   aimed at. *)
let random_routing_bip =
  QCheck2.Gen.(
    let* ngroups = int_range 1 3 in
    let* per = int_range 2 3 in
    let nvars = ngroups * per in
    let* obj = list_size (return nvars) (float_range (-4.) 4.) in
    let* caps =
      list_size (int_range 1 4)
        (let* cs = list_size (return nvars) (float_range 0. 5.) in
         let* rhs = float_range 1. 10. in
         return (cs, rhs))
    in
    return (ngroups, per, obj, caps))

let build_routing_bip (ngroups, per, obj, caps) =
  let m = Model.create () in
  let nvars = ngroups * per in
  let vars = List.init nvars (fun i -> Model.add_binary m (Printf.sprintf "s%d" i)) in
  for g = 0 to ngroups - 1 do
    Model.add_constr m
      (Lin.of_list (List.init per (fun k -> (1., List.nth vars ((g * per) + k)))))
      Model.Eq 1.
  done;
  List.iter
    (fun (cs, rhs) ->
      Model.add_constr m (Lin.of_list (List.map2 (fun c v -> (c, v)) cs vars)) Model.Le rhs)
    caps;
  Model.set_objective m Model.Minimize
    (Lin.of_list (List.map2 (fun c v -> (c, v)) obj vars));
  (m, nvars)

(* Brute force over the binary columns of a reduced problem; objective
   values include [obj_const].  Returns the best point with its value. *)
let brute_force_reduction (red : Presolve.reduction) =
  let p = red.Presolve.red_problem in
  let n = p.Simplex.ncols in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> float_of_int ((mask lsr j) land 1)) in
    let ok = ref true in
    Array.iteri
      (fun j v ->
        if v < red.Presolve.red_lb.(j) -. 1e-9 || v > red.Presolve.red_ub.(j) +. 1e-9 then
          ok := false)
      x;
    if !ok then begin
      Array.iteri
        (fun i row ->
          if !ok then begin
            let lhs = Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. row in
            let rhs = p.Simplex.rhs.(i) in
            match p.Simplex.senses.(i) with
            | Model.Le -> if lhs > rhs +. 1e-9 then ok := false
            | Model.Ge -> if lhs < rhs -. 1e-9 then ok := false
            | Model.Eq -> if Float.abs (lhs -. rhs) > 1e-9 then ok := false
          end)
        p.Simplex.rows;
      if !ok then begin
        let obj = ref p.Simplex.obj_const in
        Array.iteri (fun j v -> obj := !obj +. (p.Simplex.obj.(j) *. v)) x;
        match !best with
        | Some (_, b) when b <= !obj -> ()
        | _ -> best := Some (x, !obj)
      end
    end
  done;
  !best

(* The MILP roundtrip with an exact solver on both sides: brute force on
   the reduced problem, restored through postsolve, must agree with
   brute force on the original to 1e-9, and the restored optimum must be
   feasible for the original model. *)
let prop_reduce_roundtrip_routing_milp =
  QCheck2.Test.make
    ~name:"reduce: postsolve(brute(reduce(milp))) = brute(milp) to 1e-9 on routing MILPs"
    ~count:200 random_routing_bip (fun spec ->
      let m, nvars = build_routing_bip spec in
      let direct = brute_force_binary m nvars in
      match run_reduce m with
      | Presolve.Reduce_infeasible _ -> direct = None
      | Presolve.Reduced red -> (
          match (direct, brute_force_reduction red) with
          | None, None -> true
          | Some best, Some (xr, redbest) ->
              let x = Postsolve.restore red.Presolve.red_post xr in
              feq ~eps:1e-9 best redbest
              && Result.is_ok (Model.check_feasible ~tol:1e-6 m (fun v -> x.(v)))
          | None, Some _ | Some _, None -> false))

let test_strengthen_ge_wide_box () =
  (* Non-unit integer box through the >= negation path: 5x + y >= 2 with
     x integer in [0, 2] and y continuous in [0, 1].  On the negated row
     -5x - y <= -2 the max activity is 0, so d = -2 - 0 + 5 = 3 for x
     (0 < 3 < 5) and the row strengthens to 2x + y >= 2 — the same
     integer points (x = 0 remains impossible, x >= 1 remains free) with
     a tighter LP relaxation. *)
  let m = Model.create () in
  let x = Model.add_var m ~kind:Model.Integer ~ub:2. "x" in
  let y = Model.add_var m ~ub:1. "y" in
  Model.add_constr m (Lin.of_list [ (5., x); (1., y) ]) Model.Ge 2.;
  let p = Simplex.of_model m in
  let p', changed =
    Presolve.strengthen p ~integer:[| true; false |] ~lb:[| 0.; 0. |] ~ub:[| 2.; 1. |]
  in
  Alcotest.(check int) "one coefficient strengthened" 1 changed;
  check_feq "x coefficient" 2. (snd p'.Simplex.rows.(0).(0));
  check_feq "y coefficient intact" 1. (snd p'.Simplex.rows.(0).(1));
  check_feq "rhs" 2. p'.Simplex.rhs.(0);
  List.iter
    (fun (vx, vy) ->
      Alcotest.(check bool)
        (Printf.sprintf "point (%g, %g) preserved" vx vy)
        ((5. *. vx) +. vy >= 2.)
        ((2. *. vx) +. vy >= 2.))
    [ (0., 0.); (0., 1.); (1., 0.); (1., 1.); (2., 0.); (2., 1.) ]

(* One model exercising every elimination: x fixed by an equality row,
   e an empty column parked at its objective-preferred bound, z a free
   column singleton substituted out of z + w = 4, and w/u surviving in a
   genuine capacity row. *)
let reduction_fixture () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:10. "x" in
  let e = Model.add_var m ~ub:5. "e" in
  let z = Model.add_var m ~ub:10. "z" in
  let w = Model.add_var m ~ub:1. "w" in
  let u = Model.add_var m ~ub:1. "u" in
  Model.add_constr m (Lin.var x) Model.Eq 3.;
  Model.add_constr m (Lin.of_list [ (1., z); (1., w) ]) Model.Eq 4.;
  Model.add_constr m (Lin.of_list [ (1., w); (1., u) ]) Model.Le 0.8;
  Model.set_objective m Model.Minimize
    (Lin.of_list [ (1., x); (2., e); (1., z); (1., u) ]);
  (m, (x, e, z, w, u))

let test_reduce_postsolve_fixture () =
  let m, (x, e, z, w, u) = reduction_fixture () in
  match run_reduce m with
  | Presolve.Reduce_infeasible err -> Alcotest.fail err
  | Presolve.Reduced red ->
      let post = red.Presolve.red_post in
      Alcotest.(check int) "reduced to two columns" 2 red.Presolve.red_problem.Simplex.ncols;
      Alcotest.(check int) "reduced to one row" 1
        (Array.length red.Presolve.red_problem.Simplex.rows);
      (match Postsolve.col_state post x with
      | Postsolve.Fixed f ->
          check_feq "x fixed value" 3. f.Postsolve.fx_value;
          Alcotest.(check bool) "x fix is forced" true f.Postsolve.fx_forced
      | _ -> Alcotest.fail "x should be fixed");
      (match Postsolve.col_state post e with
      | Postsolve.Fixed f ->
          check_feq "e parked at lb" 0. f.Postsolve.fx_value;
          Alcotest.(check bool) "e fix is a choice" false f.Postsolve.fx_forced
      | _ -> Alcotest.fail "e should be fixed (empty column)");
      (match Postsolve.col_state post z with
      | Postsolve.Substituted -> ()
      | _ -> Alcotest.fail "z should be substituted");
      (match (Postsolve.col_state post w, Postsolve.col_state post u) with
      | Postsolve.Kept 0, Postsolve.Kept 1 -> ()
      | _ -> Alcotest.fail "w/u should be kept in order");
      Alcotest.(check int) "kept row is the capacity row" 2 post.Postsolve.row_of_red.(0);
      (* restore scatters kept values and recomputes z = 4 - w *)
      let full = Postsolve.restore post [| 0.8; 0. |] in
      Alcotest.(check int) "restore length" 5 (Array.length full);
      check_feq "restored x" 3. full.(x);
      check_feq "restored e" 0. full.(e);
      check_feq "restored z" 3.2 full.(z);
      check_feq "restored w" 0.8 full.(w);
      check_feq "restored u" 0. full.(u);
      (* restrict drops eliminated columns; choice fixes may disagree *)
      (match Postsolve.restrict post [| 3.; 4.; 3.5; 0.5; 0.1 |] with
      | Some xr ->
          check_feq "restricted w" 0.5 xr.(0);
          check_feq "restricted u" 0.1 xr.(1)
      | None -> Alcotest.fail "restrict should accept a point matching the forced fix");
      (match Postsolve.restrict post [| 2.; 0.; 3.5; 0.5; 0.1 |] with
      | None -> ()
      | Some _ -> Alcotest.fail "restrict must reject a violated forced fixing");
      (* objective parity: reduced solve (obj_const folded) = full solve *)
      let full_r = Simplex.solve_model m in
      let red_r =
        Simplex.solve red.Presolve.red_problem ~lb:red.Presolve.red_lb
          ~ub:red.Presolve.red_ub
      in
      Alcotest.check lp_status "full optimal" Status.Lp_optimal full_r.Simplex.status;
      Alcotest.check lp_status "reduced optimal" Status.Lp_optimal red_r.Simplex.status;
      check_feq "objective parity" full_r.Simplex.objective red_r.Simplex.objective;
      check_feq "known optimum" 6.2 red_r.Simplex.objective;
      (* honest per-pass stats: one entry per pass, removals where due *)
      Alcotest.(check int) "stats cover every pass" (List.length Presolve.all_passes)
        (List.length red.Presolve.red_stats);
      let stat pass =
        List.find (fun s -> s.Presolve.ps_pass = pass) red.Presolve.red_stats
      in
      Alcotest.(check int) "fix removed x" 1 (stat Presolve.Fix_columns).Presolve.ps_cols_removed;
      Alcotest.(check int) "empty removed e" 1
        (stat Presolve.Empty_columns).Presolve.ps_cols_removed;
      Alcotest.(check int) "subst removed z" 1 (stat Presolve.Substitute).Presolve.ps_cols_removed;
      Alcotest.(check int) "subst consumed its row" 1
        (stat Presolve.Substitute).Presolve.ps_rows_removed

let test_cuts_lift_restrict () =
  let m, (x, _e, z, w, _u) = reduction_fixture () in
  match run_reduce m with
  | Presolve.Reduce_infeasible err -> Alcotest.fail err
  | Presolve.Reduced red ->
      let post = red.Presolve.red_post in
      (* fixed column folds into the rhs, survivor renormalizes to unit
         L2: 0.6 x + 0.8 w <= 2 with x = 3 becomes w <= 0.25 *)
      let c = { Cuts.c_row = [| (x, 0.6); (w, 0.8) |]; c_rhs = 2.; c_origin = Cuts.Cover } in
      (match Cuts.restrict post c with
      | Some rc ->
          Alcotest.(check int) "one term survives" 1 (Array.length rc.Cuts.c_row);
          Alcotest.(check int) "term is reduced w" 0 (fst rc.Cuts.c_row.(0));
          check_feq "unit coefficient" 1. (snd rc.Cuts.c_row.(0));
          check_feq "folded rhs" 0.25 rc.Cuts.c_rhs;
          (* lift maps the reduced id back to the original column *)
          let lifted = Cuts.lift post rc in
          Alcotest.(check int) "lifted to original w" w (fst lifted.Cuts.c_row.(0));
          check_feq "lifted rhs unchanged" 0.25 lifted.Cuts.c_rhs
      | None -> Alcotest.fail "cut over kept+fixed columns must survive");
      (* substituted support drops the cut *)
      let cz = { Cuts.c_row = [| (z, 1.) |]; c_rhs = 4.; c_origin = Cuts.Cover } in
      Alcotest.(check bool) "substituted support drops" true (Cuts.restrict post cz = None);
      (* all-fixed support leaves nothing to cut *)
      let cx = { Cuts.c_row = [| (x, 1.) |]; c_rhs = 4.; c_origin = Cuts.Cover } in
      Alcotest.(check bool) "empty survivor drops" true (Cuts.restrict post cx = None)

(* Separate every in-library cut family at the root LP of a random
   binary program and check that no integer-feasible point (enumerated
   by brute force) violates any of them — the defining property of a
   valid cut.  Clique cuts come from the conflict table
   mined off the same rows, so this also exercises the miner. *)
let prop_cuts_never_cut_integer_points =
  QCheck2.Test.make ~name:"cuts: no separated cut excludes an integer-feasible point"
    ~count:300 random_bip (fun ((nvars, _, _) as spec) ->
      let m = build_bip spec in
      let p = Simplex.of_model m in
      let n = p.Simplex.ncols in
      let integer = Array.init n (Model.is_integer m) in
      let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
      let r = Simplex.solve p ~lb ~ub in
      match (r.Simplex.status, r.Simplex.basis) with
      | Status.Lp_optimal, Some basis ->
          let nrows = Array.length p.Simplex.rows in
          let tbl = Conflicts.build p ~nrows ~integer ~lb ~ub in
          let cuts =
            Cuts.gomory p ~integer ~lb ~ub basis ~max_cuts:16
            @ Cuts.covers p ~nrows ~integer ~lb ~ub ~x:r.Simplex.primal ~max_cuts:16
            @ Cuts.cliques tbl ~x:r.Simplex.primal ~max_cuts:8
          in
          let ok = ref true in
          for mask = 0 to (1 lsl nvars) - 1 do
            let value v = if (mask lsr v) land 1 = 1 then 1.0 else 0.0 in
            if Result.is_ok (Model.check_feasible ~tol:1e-9 m value) then begin
              let x = Array.init n value in
              List.iter (fun c -> if not (Cuts.satisfied c x) then ok := false) cuts
            end
          done;
          !ok
      | _ -> true)

let test_cover_cut_knapsack () =
  (* 4a + 6b + 3c + 5d <= 10 at the fractional point (1, 1, 0, 0.4):
     {b, d} weighs 11 > 10, so the minimal cover cut b + d <= 1 is
     violated (1.4) and must be separated. *)
  let m = Model.create () in
  let a = Model.add_binary m "a" and b = Model.add_binary m "b" in
  let c = Model.add_binary m "c" and d = Model.add_binary m "d" in
  Model.add_constr m (Lin.of_list [ (4., a); (6., b); (3., c); (5., d) ]) Model.Le 10.;
  let p = Simplex.of_model m in
  let n = p.Simplex.ncols in
  let integer = Array.init n (Model.is_integer m) in
  let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
  let x = [| 1.0; 1.0; 0.0; 0.4 |] in
  let cuts = Cuts.covers p ~nrows:1 ~integer ~lb ~ub ~x ~max_cuts:4 in
  Alcotest.(check bool) "a cover cut separates" true (cuts <> []);
  List.iter
    (fun cut ->
      Alcotest.(check bool) "violated at the fractional point" true
        (Cuts.violation cut x > 1e-6);
      (* and valid at every integer-feasible point *)
      for mask = 0 to 15 do
        let pt = Array.init 4 (fun v -> float_of_int ((mask lsr v) land 1)) in
        if (4. *. pt.(0)) +. (6. *. pt.(1)) +. (3. *. pt.(2)) +. (5. *. pt.(3)) <= 10. then
          Alcotest.(check bool) "integer point kept" true (Cuts.satisfied cut pt)
      done)
    cuts

let test_append_row_grows_basis () =
  (* Solving, appending a violated cut row, growing the standing basis
     with Basis.append_row, and warm re-solving must agree with a cold
     solve of the grown problem — and must take the warm path. *)
  let m = Model.create () in
  let x = Model.add_var m ~ub:4. "x" and y = Model.add_var m ~ub:4. "y" in
  Model.add_constr m (Lin.of_list [ (1., x); (2., y) ]) Model.Le 100.;
  Model.set_objective m Model.Maximize (Lin.of_list [ (2., x); (3., y) ]);
  let p = Simplex.of_model m in
  let lb = [| 0.; 0. |] and ub = [| 4.; 4. |] in
  let r0 = Simplex.solve p ~lb ~ub in
  Alcotest.check lp_status "base optimal" Status.Lp_optimal r0.Simplex.status;
  (* base optimum (4, 4) = 20 violates the row about to be appended *)
  check_feq "base objective" (-20.) r0.Simplex.objective;
  let basis = Option.get r0.Simplex.basis in
  let row = [| (0, 1.); (1, 1.) |] in
  let p' = Simplex.add_rows p [ (row, Model.Le, 5.) ] in
  let grown = Basis.append_row basis row in
  let warm = Simplex.solve ~basis:grown p' ~lb ~ub in
  let cold = Simplex.solve p' ~lb ~ub in
  Alcotest.check lp_status "warm optimal" Status.Lp_optimal warm.Simplex.status;
  Alcotest.(check bool) "warm path taken" true (warm.Simplex.warm = Simplex.Warm);
  check_feq "matches cold solve" cold.Simplex.objective warm.Simplex.objective;
  (* x + y <= 5 binds: max 2x + 3y is now 2*1 + 3*4 = 14 at (1, 4). *)
  check_feq "cut binds" (-14.) warm.Simplex.objective

let prop_bb_cuts_invariant =
  QCheck2.Test.make
    ~name:"branch&bound: cuts and rc-fixing leave status and objective unchanged" ~count:100
    random_bip (fun spec ->
      let m = build_bip spec in
      let with_cuts = Branch_bound.solve m in
      let without =
        Branch_bound.solve
          ~options:
            { Branch_bound.default_options with Branch_bound.cuts = false; rc_fixing = false }
          m
      in
      without.Branch_bound.cuts_separated = 0
      && without.Branch_bound.rc_fixed = 0
      && with_cuts.Branch_bound.status = without.Branch_bound.status
      && (with_cuts.Branch_bound.status <> Status.Mip_optimal
         || feq ~eps:1e-5 with_cuts.Branch_bound.objective without.Branch_bound.objective))

let test_bb_cutoff_prunes () =
  (* Knapsack optimum is 23; a cutoff at 23 must yield no solution
     (only strictly better ones are accepted) and Mip_unknown. *)
  let build () =
    let m = Model.create () in
    let a = Model.add_binary m "a" and b = Model.add_binary m "b" in
    let c = Model.add_binary m "c" and d = Model.add_binary m "d" in
    Model.add_constr m (Lin.of_list [ (4., a); (6., b); (3., c); (5., d) ]) Model.Le 10.;
    Model.set_objective m Model.Maximize (Lin.of_list [ (10., a); (13., b); (7., c); (11., d) ]);
    m
  in
  let opts cutoff = { Branch_bound.default_options with Branch_bound.cutoff } in
  let at = Branch_bound.solve ~options:(opts 23.) (build ()) in
  Alcotest.(check bool) "nothing beats the optimum" true (at.Branch_bound.solution = None);
  Alcotest.check mip_status "unknown, not infeasible" Status.Mip_unknown at.Branch_bound.status;
  let below = Branch_bound.solve ~options:(opts 20.) (build ()) in
  (* With a loose cutoff (20 for a maximization = "find something better
     than 20") the solver must still find 23. *)
  (match below.Branch_bound.solution with
  | Some _ -> check_feq "finds the optimum past the cutoff" 23. below.Branch_bound.objective
  | None -> Alcotest.fail "expected a solution better than 20")

let test_bb_cutoff_minimize () =
  let m = Model.create () in
  let x = Model.add_var m ~kind:Model.Integer ~lb:3. ~ub:9. "x" in
  Model.set_objective m Model.Minimize (Lin.var x);
  let options = { Branch_bound.default_options with Branch_bound.cutoff = 3. } in
  let r = Branch_bound.solve ~options m in
  Alcotest.(check bool) "min with cutoff at optimum" true (r.Branch_bound.solution = None)

(* A 32-item 0-1 knapsack with pseudo-random weights and values: with
   presolve and cuts off the sequential tree takes 37 nodes, past the
   parallel ramp-up, so at two workers the worker tasks do most of the
   search.  The instance also catches a worker that takes the gap as
   closed while the ramp-up frontier is still being dealt: the search
   then stops early with a suboptimal "feasible" answer. *)
let worker_knapsack () =
  let m = Model.create () in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    float_of_int (20 + ((!seed lsr 8) mod 81))
  in
  let items =
    List.init 32 (fun i ->
        let w = next () in
        let c = next () in
        (Model.add_binary m (Printf.sprintf "x%d" i), w, c))
  in
  let total = List.fold_left (fun acc (_, w, _) -> acc +. w) 0. items in
  Model.add_constr m
    (Lin.of_list (List.map (fun (v, w, _) -> (w, v)) items))
    Model.Le
    (Float.round (total /. 2.) +. 0.5);
  Model.set_objective m Model.Maximize (Lin.of_list (List.map (fun (v, _, c) -> (c, v)) items));
  m

let worker_options ?(cutoff = nan) ?(node_limit = 200_000) nworkers =
  {
    Branch_bound.default_options with
    Branch_bound.presolve = false;
    cut_families = [];
    nworkers;
    cutoff;
    node_limit;
  }

let test_bb_workers_match_sequential () =
  let seq = Branch_bound.solve ~options:(worker_options 1) (worker_knapsack ()) in
  Alcotest.check mip_status "sequential optimal" Status.Mip_optimal seq.Branch_bound.status;
  Alcotest.(check bool) "tree outlives the ramp-up" true (seq.Branch_bound.nodes > 32);
  let par = Branch_bound.solve ~options:(worker_options 2) (worker_knapsack ()) in
  Alcotest.check mip_status "parallel optimal" Status.Mip_optimal par.Branch_bound.status;
  check_feq "objective matches nworkers = 1" seq.Branch_bound.objective
    par.Branch_bound.objective

let test_bb_workers_cutoff () =
  (* A cutoff equal to the optimum: the workers must accept nothing and
     must not claim infeasibility. *)
  let opt =
    (Branch_bound.solve ~options:(worker_options 1) (worker_knapsack ())).Branch_bound.objective
  in
  let r = Branch_bound.solve ~options:(worker_options ~cutoff:opt 2) (worker_knapsack ()) in
  Alcotest.(check bool) "nothing beats the optimum" true (r.Branch_bound.solution = None);
  Alcotest.check mip_status "unknown, not infeasible" Status.Mip_unknown r.Branch_bound.status

let test_bb_workers_node_limit () =
  (* Past the ramp-up (a handful of nodes at two workers) but well short
     of the 37-node proof. *)
  let node_limit = 16 in
  let r = Branch_bound.solve ~options:(worker_options ~node_limit 2) (worker_knapsack ()) in
  Alcotest.(check bool) "node limit respected" true (r.Branch_bound.nodes <= node_limit);
  Alcotest.(check bool) "not proved optimal" true (r.Branch_bound.status <> Status.Mip_optimal)

(* A 6-item 0-1 knapsack whose LP relaxation is fractional. *)
let six_item_knapsack () =
  let m = Model.create () in
  let xs = Array.init 6 (fun i -> Model.add_binary m (Printf.sprintf "x%d" i)) in
  let weights = [| 4.; 6.; 3.; 5.; 4.; 5. |] and values = [| 10.; 13.; 7.; 11.; 8.; 9. |] in
  Model.add_constr m (Lin.of_list (Array.to_list (Array.map2 (fun w x -> (w, x)) weights xs)))
    Model.Le 12.;
  Model.set_objective m Model.Maximize
    (Lin.of_list (Array.to_list (Array.map2 (fun v x -> (v, x)) values xs)));
  m

let test_bb_root_bounds_without_cuts () =
  (* The root LP bound is the root LP's objective whether or not the cut
     loop runs; the cut bound needs the cut loop, and with no family
     enabled that loop applies nothing, so it repeats the LP bound. *)
  let solve options = Branch_bound.solve ~options (six_item_knapsack ()) in
  let off = solve { Branch_bound.default_options with Branch_bound.cuts = false } in
  let none = solve { Branch_bound.default_options with Branch_bound.cut_families = [] } in
  Alcotest.check mip_status "status" Status.Mip_optimal off.Branch_bound.status;
  Alcotest.(check bool) "root LP bound recorded with cuts off" true
    (Float.is_finite off.Branch_bound.root_lp_bound);
  Alcotest.(check bool) "root LP bound bounds the optimum" true
    (off.Branch_bound.root_lp_bound >= off.Branch_bound.objective -. 1e-9);
  Alcotest.(check bool) "same root LP bound either way" true
    (off.Branch_bound.root_lp_bound = none.Branch_bound.root_lp_bound);
  Alcotest.(check bool) "no cut bound with cuts off" true
    (Float.is_nan off.Branch_bound.root_cut_bound);
  Alcotest.(check bool) "no family: cut bound is the LP bound" true
    (none.Branch_bound.root_cut_bound = none.Branch_bound.root_lp_bound)

let test_model_add_range () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:10. "x" in
  Model.add_range m 2. (Lin.term 1. x) 5.;
  Alcotest.(check int) "two rows" 2 (Model.nconstrs m);
  Model.set_objective m Model.Maximize (Lin.var x);
  check_feq "upper" 5. (Simplex.solve_model m).Simplex.objective;
  Model.set_objective m Model.Minimize (Lin.var x);
  check_feq "lower" 2. (Simplex.solve_model m).Simplex.objective

(* Rows are stored packed: whatever sequence of [add_row], [set_row] and
   [compact] built a model, [constr] must give back each row's last
   expression (constant folded into the rhs), sense, rhs and name, and
   [row] the same terms in variable order. *)
(* Packed storage: codes, ids and offsets at the narrowest width that
   holds them, floats as indices into the model's distinct values.
   Every kind and sense reads back; ids past 16 bits survive; [0.] and
   [-0.] stay apart; a row rewritten by [set_row] and then compacted
   reads back, and writes the same LP text, as one added directly. *)
let test_model_packed_round_trip () =
  let kinds = [| Model.Continuous; Model.Integer; Model.Binary |] in
  let build ~rewrite =
    let m = Model.create () in
    for v = 0 to 70_000 - 1 do
      ignore (Model.add_var m ~kind:kinds.(v mod 3) ~lb:(-1.) ~ub:5. (Printf.sprintf "x%d" v))
    done;
    let rows =
      [ (Lin.of_list [ (1., 3); (2., 65_535); (-1., 69_999) ], Model.Le, 4.);
        (Lin.of_list [ (0.5, 65_536); (3., 70_000 - 2) ], Model.Ge, -1.);
        (Lin.of_list [ (1., 0); (1., 66_000) ], Model.Eq, 1.) ]
    in
    List.iteri
      (fun i (e, sense, rhs) ->
        if rewrite && i = 1 then begin
          let r = Model.add_row m (Lin.of_list [ (7., 1) ]) Model.Eq 0. in
          Model.set_row m r e sense rhs
        end
        else ignore (Model.add_row m e sense rhs))
      rows;
    Model.set_objective m Model.Minimize (Lin.of_list [ (1., 65_537); (-2., 2) ]);
    (m, rows)
  in
  let direct, rows = build ~rewrite:false in
  let rewritten, _ = build ~rewrite:true in
  let before = Lp_format.to_string rewritten in
  Model.compact rewritten;
  Alcotest.(check string) "compact keeps the LP text" before (Lp_format.to_string rewritten);
  Alcotest.(check string) "set_row then compact writes what add_row did"
    (Lp_format.to_string direct) (Lp_format.to_string rewritten);
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "kind of x%d" v) true
        (Model.var_kind rewritten v = kinds.(v mod 3)))
    [ 0; 1; 2; 65_535; 65_536; 65_537; 69_999 ];
  List.iteri
    (fun r (e, sense, rhs) ->
      let terms, sense', rhs' = Model.row rewritten r in
      Alcotest.(check bool) (Printf.sprintf "row %d sense" r) true (sense = sense');
      check_feq (Printf.sprintf "row %d rhs" r) rhs rhs';
      Alcotest.(check (list (pair int (float 0.))))
        (Printf.sprintf "row %d terms" r)
        (Lin.terms e)
        (Array.to_list terms))
    rows;
  let z = Model.create () in
  let pos = Model.add_var z ~lb:0. "pos" and neg = Model.add_var z ~lb:(-0.) "neg" in
  Model.compact z;
  Alcotest.(check (list (float 0.))) "signed zeros" [ 0.; -0. ] [ Model.var_lb z pos; Model.var_lb z neg ];
  Alcotest.(check bool) "-0. keeps its sign" true (Float.sign_bit (Model.var_lb z neg));
  Alcotest.(check bool) "0. keeps its sign" false (Float.sign_bit (Model.var_lb z pos))

(* [Vec.Uint] widens 1 -> 2 -> 4 bytes as wider values arrive, keeping
   every stored value, and holds nothing outside [0, 2^32). *)
let test_vec_uint_widths () =
  let v = Vec.Uint.create () in
  let values = [ 0; 255; 7; 256; 65_535; 65_536; 0xffff_ffff; 3 ] in
  let widths = List.map (fun x -> Vec.Uint.add_last v x; Vec.Uint.width v) values in
  Alcotest.(check (list int)) "widths" [ 1; 1; 1; 2; 2; 4; 4; 4 ] widths;
  Alcotest.(check (list int)) "values" values (Array.to_list (Vec.Uint.to_array v));
  Vec.Uint.trim v;
  Alcotest.(check (list int)) "trimmed" values (Array.to_list (Vec.Uint.to_array v));
  let w = Vec.Uint.of_array [| 1; 2; 3 |] in
  Vec.Uint.set w 1 70_000;
  Alcotest.(check (list int)) "set widens" [ 1; 70_000; 3 ] (Array.to_list (Vec.Uint.to_array w));
  Alcotest.check_raises "four bytes hold no 2^32"
    (Invalid_argument "Vec.Uint.add_last: value 4294967296 out of range") (fun () ->
      Vec.Uint.add_last (Vec.Uint.create ()) (1 lsl 32));
  Alcotest.check_raises "no negative values"
    (Invalid_argument "Vec.Uint.set: value -1 out of range") (fun () -> Vec.Uint.set w 0 (-1));
  let s = Vec.Str.create () in
  let names = [ "x"; ""; "sel_r0_rep1_c3"; String.make 300 'a'; "c" ] in
  List.iter (Vec.Str.add_last s) names;
  Vec.Str.trim s;
  Alcotest.(check (list string)) "strings" names (List.init (Vec.Str.length s) (Vec.Str.get s))

let prop_model_rows_round_trip =
  let open QCheck2.Gen in
  let expr =
    map2
      (fun terms c -> Lin.add_const (Lin.of_list terms) c)
      (list_size (int_range 0 5) (tup2 (float_range (-5.) 5.) (int_range 0 7)))
      (oneofl [ 0.; 1.5; -2. ])
  in
  let sense = oneofl [ Model.Le; Model.Ge; Model.Eq ] in
  let step =
    oneof
      [
        map3 (fun e s b -> `Add (e, s, b)) expr sense (float_range (-9.) 9.);
        map3 (fun (r, e) s b -> `Set (r, e, s, b)) (tup2 nat expr) sense (float_range (-9.) 9.);
        return `Compact;
      ]
  in
  QCheck2.Test.make ~name:"model: rows read back after add_row, set_row and compact" ~count:200
    (list_size (int_range 1 40) step) (fun steps ->
      let m = Model.create () in
      for v = 0 to 7 do
        ignore (Model.add_var m (Printf.sprintf "v%d" v))
      done;
      let expected = ref [||] in
      List.iter
        (function
          | `Add (e, s, b) ->
              let name = if Array.length !expected mod 2 = 0 then None else Some "named" in
              let r = Model.add_row m ?name e s b in
              expected := Array.append !expected [| (e, s, b) |];
              assert (r = Array.length !expected - 1)
          | `Set (r, e, s, b) ->
              let n = Array.length !expected in
              if n > 0 then begin
                Model.set_row m (r mod n) e s b;
                !expected.(r mod n) <- (e, s, b)
              end
          | `Compact -> Model.compact m)
        steps;
      Model.nconstrs m = Array.length !expected
      && Array.for_all Fun.id
           (Array.mapi
              (fun r (e, s, b) ->
                let c = Model.constr m r in
                let terms, s', b' = Model.row m r in
                let folded = Lin.add_const e (-.Lin.constant e) in
                Lin.equal c.Model.c_expr folded
                && c.Model.c_sense = s
                && c.Model.c_rhs = b -. Lin.constant e
                && c.Model.c_name = (if r mod 2 = 0 then "c" ^ string_of_int r else "named")
                && Array.to_list terms = Lin.terms folded
                && s' = s && b' = c.Model.c_rhs)
              !expected))

let prop_lin_add_commutative =
  QCheck2.Test.make ~name:"lin: addition commutative and associative" ~count:200
    QCheck2.Gen.(
      let term = tup2 (float_range (-5.) 5.) (int_range 0 6) in
      tup3 (list_size (int_range 0 6) term) (list_size (int_range 0 6) term)
        (list_size (int_range 0 6) term))
    (fun (a, b, c) ->
      let la = Lin.of_list a and lb = Lin.of_list b and lc = Lin.of_list c in
      (* Float addition is commutative exactly, associative only up to
         rounding — compare coefficients with a tolerance for the
         latter. *)
      let approx_equal x y =
        List.for_all
          (fun v -> Float.abs (Lin.coeff x v -. Lin.coeff y v) < 1e-9)
          (List.map fst (Lin.terms x) @ List.map fst (Lin.terms y))
      in
      Lin.equal (Lin.add la lb) (Lin.add lb la)
      && approx_equal (Lin.add la (Lin.add lb lc)) (Lin.add (Lin.add la lb) lc))

let prop_lin_eval_linear =
  QCheck2.Test.make ~name:"lin: eval is linear" ~count:200
    QCheck2.Gen.(
      let term = tup2 (float_range (-5.) 5.) (int_range 0 4) in
      tup3 (list_size (int_range 0 6) term) (list_size (int_range 0 6) term)
        (float_range (-3.) 3.))
    (fun (a, b, k) ->
      let la = Lin.of_list a and lb = Lin.of_list b in
      let v i = float_of_int (i + 1) *. 0.5 in
      let lhs = Lin.eval v (Lin.add (Lin.scale k la) lb) in
      let rhs = (k *. Lin.eval v la) +. Lin.eval v lb in
      Float.abs (lhs -. rhs) < 1e-6)

(* ------------------------------------------------------------------ *)
(* LP format                                                           *)
(* ------------------------------------------------------------------ *)

let test_lp_format_sections () =
  let m = Model.create () in
  let x = Model.add_var m ~kind:Model.Integer ~ub:9. "count" in
  let b = Model.add_binary m "pick me" in
  Model.add_constr m ~name:"cap" (Lin.of_list [ (1., x); (3., b) ]) Model.Le 7.;
  Model.set_objective m Model.Minimize (Lin.of_list [ (1., x); (2., b) ]);
  let s = Lp_format.to_string m in
  let has sub =
    Alcotest.(check bool)
      (Printf.sprintf "contains %S" sub)
      true
      (Astring.String.is_infix ~affix:sub s)
  in
  has "Minimize";
  has "Subject To";
  has "Bounds";
  has "Generals";
  has "Binaries";
  has "End";
  Alcotest.(check bool) "no raw space in names" false (Astring.String.is_infix ~affix:"pick me" s)

let test_lp_format_free_and_inf () =
  let m = Model.create () in
  let _ = Model.add_var m ~lb:neg_infinity ~ub:infinity "f" in
  let s = Lp_format.to_string m in
  Alcotest.(check bool) "free variable emitted" true (Astring.String.is_infix ~affix:"free" s)


(* A fixed model with named and unnamed rows, a rewritten row, a range,
   every variable kind, a free and a negative-bounded variable, and an
   objective with a constant that [add_var ~obj] extends after
   [set_objective]. *)
let lp_fixture () =
  let m = Model.create ~name:"fixture" () in
  let x = Model.add_var m ~lb:(-1.) ~ub:2.5 "x" in
  let k = Model.add_var m ~kind:Model.Integer ~ub:9. "k count" in
  let b = Model.add_binary m "b" in
  let f = Model.add_var m ~lb:neg_infinity ~ub:infinity "f" in
  Model.add_constr m ~name:"cap" (Lin.of_list [ (1., x); (3., k); (-0.25, b) ]) Model.Le 10.;
  let r = Model.add_row m (Lin.add_const (Lin.of_list [ (2., x); (-1., f) ]) 1.) Model.Ge (-3.) in
  Model.add_constr m (Lin.of_list [ (1., b); (1., k) ]) Model.Eq 1.;
  Model.add_range m 0.5 (Lin.of_list [ (1., f); (1e-7, x) ]) 4.;
  Model.set_row m r (Lin.add_const (Lin.of_list [ (2., x); (-1., f); (7., b) ]) 2.) Model.Le 3.;
  Model.set_objective m Model.Maximize (Lin.add_const (Lin.of_list [ (3., x); (2., k); (-1., b) ]) 1.5);
  let y = Model.add_var m ~obj:(-4.) ~ub:1. "y" in
  Model.add_constr m ~name:"link" (Lin.of_list [ (1., y); (-1., x) ]) Model.Le 0.;
  m

let test_lp_format_fixed_output () =
  let expected =
    {|Maximize
 obj: 3 x_0 + 2 k_count_1 - b_2 - 4 y_4 + 1.5
Subject To
 cap_0: x_0 + 3 k_count_1 - 0.25 b_2 <= 10
 c1_1: 2 x_0 + 7 b_2 - f_3 <= 1
 c2_2: k_count_1 + b_2 = 1
 r3_lo_3: 1e-07 x_0 + f_3 >= 0.5
 r3_hi_4: 1e-07 x_0 + f_3 <= 4
 link_5: - x_0 + y_4 <= 0
Bounds
 -1 <= x_0 <= 2.5
 0 <= k_count_1 <= 9
 0 <= b_2 <= 1
 f_3 free
 0 <= y_4 <= 1
Generals
 k_count_1
Binaries
 b_2
End
|}
  in
  Alcotest.(check string) "byte-equal LP text" expected (Lp_format.to_string (lp_fixture ()))

let test_lp_reader_simple () =
  let text =
    {|Minimize
 obj: 3 x + 4 y
Subject To
 c1: x + 2 y >= 7
 c2: 2 x + y >= 8
Bounds
 0 <= x <= +inf
 0 <= y <= +inf
Generals
 x
 y
End
|}
  in
  match Lp_reader.parse text with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check int) "vars" 2 (Model.nvars m);
      Alcotest.(check int) "rows" 2 (Model.nconstrs m);
      Alcotest.(check bool) "integer" true (Model.is_integer m 0);
      let r = Branch_bound.solve m in
      check_feq "solves to 17" 17. r.Branch_bound.objective

let test_lp_reader_features () =
  let text =
    {|\ a comment line
Maximize
 obj: x - 2 y + 3
Subject To
 r: x + y <= 4
 eqrow: x - y = 1
Bounds
 -3 <= y <= 5
 x free
Binaries
Generals
End
|}
  in
  match Lp_reader.parse text with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check bool) "free lb" true (Model.var_lb m 0 = neg_infinity);
      check_feq "y lb" (-3.) (Model.var_lb m 1);
      check_feq "y ub" 5. (Model.var_ub m 1);
      let dir, obj = Model.objective m in
      Alcotest.(check bool) "maximize" true (dir = Model.Maximize);
      check_feq "objective constant" 3. (Lin.constant obj);
      let r = Simplex.solve_model m in
      (* max x - 2y + 3 s.t. x + y <= 4, x - y = 1, y in [-3, 5]:
         best at y = -3, x = -2 -> -2 + 6 + 3 = 7. *)
      check_feq "lp optimum" 7. r.Simplex.objective

let test_lp_reader_errors () =
  let bad txt frag =
    match Lp_reader.parse txt with
    | Ok _ -> Alcotest.fail ("expected failure for " ^ frag)
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" e frag)
          true
          (Astring.String.is_infix ~affix:frag e)
  in
  bad "Minimize obj: x Subject To r: x + y End" "expected a relation";
  bad "Minimize obj: x @" "unexpected character";
  bad "Minimize obj: x\nSubject To\n r: x <= y\nEnd" "right-hand side must be constant"

let prop_lp_roundtrip =
  QCheck2.Test.make ~name:"lp: write/read round-trips model semantics" ~count:60 random_bip
    (fun (nvars, obj, rows) ->
      let m = Model.create () in
      let vars = List.init nvars (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
      List.iter
        (fun (cs, sense, rhs) ->
          Model.add_constr m (Lin.of_list (List.map2 (fun c v -> (c, v)) cs vars)) sense rhs)
        rows;
      Model.set_objective m Model.Minimize
        (Lin.of_list (List.map2 (fun c v -> (c, v)) obj vars));
      match Lp_reader.parse (Lp_format.to_string m) with
      | Error _ -> false
      | Ok m2 ->
          let r1 = Branch_bound.solve m in
          let r2 = Branch_bound.solve m2 in
          (match (r1.Branch_bound.status, r2.Branch_bound.status) with
          | Status.Mip_optimal, Status.Mip_optimal ->
              feq ~eps:1e-5 r1.Branch_bound.objective r2.Branch_bound.objective
          | a, b -> a = b))

(* Structural round-trip: the re-read model must agree field by field
   (direction, objective coefficients and constant, rows, bounds,
   integrality) — not merely solve to the same optimum.  The reader
   assigns variable ids by first appearance in the text, so variables
   are matched through the writer's sanitized labels.  Coefficients are
   quarters so [%.12g] prints them exactly. *)
let prop_lp_structural_roundtrip =
  let gen =
    QCheck2.Gen.(
      let quarter = map (fun k -> float_of_int k /. 4.) (int_range (-40) 40) in
      let nz_quarter =
        map (fun k -> float_of_int (if k >= 0 then k + 1 else k) /. 4.) (int_range (-20) 19)
      in
      let var_gen =
        let* kind = int_range 0 2 in
        let* shape = int_range 0 4 in
        let* a = quarter in
        let* b = quarter in
        let lo = Float.min a b and hi = Float.max a b in
        let lb, ub =
          match shape with
          | 0 -> (0., Float.max hi 0.)
          | 1 -> (lo, hi)
          | 2 -> (neg_infinity, hi)
          | 3 -> (lo, infinity)
          | _ -> (neg_infinity, infinity)
        in
        return (kind, lb, ub)
      in
      let* nvars = int_range 1 5 in
      let* vars = list_size (return nvars) var_gen in
      let* obj = list_size (return nvars) (option nz_quarter) in
      let* obj_const = quarter in
      let* maximize = bool in
      let* rows =
        list_size (int_range 0 4)
          (let* cs = list_size (return nvars) (option nz_quarter) in
           let* sense = oneofl [ Model.Le; Model.Ge; Model.Eq ] in
           let* rhs = quarter in
           return (cs, sense, rhs))
      in
      return (vars, obj, obj_const, maximize, rows))
  in
  QCheck2.Test.make ~name:"lp: write/read reproduces model structure" ~count:150 gen
    (fun (vars, obj, obj_const, maximize, rows) ->
      let m = Model.create () in
      List.iteri
        (fun i (kind, lb, ub) ->
          let name = Printf.sprintf "x%d" i in
          match kind with
          | 2 -> ignore (Model.add_binary m name)
          | 1 -> ignore (Model.add_var m ~lb ~ub ~kind:Model.Integer name)
          | _ -> ignore (Model.add_var m ~lb ~ub name))
        vars;
      let terms coefs =
        Lin.of_list
          (List.concat
             (List.mapi
                (fun v c -> match c with Some c -> [ (c, v) ] | None -> [])
                coefs))
      in
      List.iter (fun (cs, sense, rhs) -> Model.add_constr m (terms cs) sense rhs) rows;
      Model.set_objective m
        (if maximize then Model.Maximize else Model.Minimize)
        (Lin.add_const (terms obj) obj_const);
      match Lp_reader.parse (Lp_format.to_string m) with
      | Error e -> QCheck2.Test.fail_reportf "re-read failed: %s" e
      | Ok m2 ->
          let nvars = Model.nvars m in
          if Model.nvars m2 <> nvars then
            QCheck2.Test.fail_reportf "nvars %d <> %d" (Model.nvars m2) nvars;
          (* Map original ids to re-read ids via the writer's labels. *)
          let lookup = Hashtbl.create 16 in
          for v2 = 0 to nvars - 1 do
            Hashtbl.replace lookup (Model.var_name m2 v2) v2
          done;
          let remap v =
            let label = Printf.sprintf "x%d_%d" v v in
            match Hashtbl.find_opt lookup label with
            | Some v2 -> v2
            | None -> QCheck2.Test.fail_reportf "variable %s lost on re-read" label
          in
          let beq a b = a = b || Float.abs (a -. b) <= 1e-9 in
          let check_expr what e e2 =
            if Lin.nterms e2 <> Lin.nterms e then
              QCheck2.Test.fail_reportf "%s: %d terms <> %d" what (Lin.nterms e2)
                (Lin.nterms e);
            Lin.iter
              (fun v c ->
                if not (beq (Lin.coeff e2 (remap v)) c) then
                  QCheck2.Test.fail_reportf "%s: coeff of x%d %g <> %g" what v
                    (Lin.coeff e2 (remap v)) c)
              e
          in
          let dir, e = Model.objective m in
          let dir2, e2 = Model.objective m2 in
          if dir2 <> dir then QCheck2.Test.fail_reportf "objective direction differs";
          if not (beq (Lin.constant e2) (Lin.constant e)) then
            QCheck2.Test.fail_reportf "objective constant %g <> %g" (Lin.constant e2)
              (Lin.constant e);
          check_expr "objective" e e2;
          for v = 0 to nvars - 1 do
            let v2 = remap v in
            if Model.var_kind m2 v2 <> Model.var_kind m v then
              QCheck2.Test.fail_reportf "x%d: kind differs" v;
            if not (beq (Model.var_lb m2 v2) (Model.var_lb m v)) then
              QCheck2.Test.fail_reportf "x%d: lb %g <> %g" v (Model.var_lb m2 v2)
                (Model.var_lb m v);
            if not (beq (Model.var_ub m2 v2) (Model.var_ub m v)) then
              QCheck2.Test.fail_reportf "x%d: ub %g <> %g" v (Model.var_ub m2 v2)
                (Model.var_ub m v)
          done;
          if Model.nconstrs m2 <> Model.nconstrs m then
            QCheck2.Test.fail_reportf "nconstrs %d <> %d" (Model.nconstrs m2)
              (Model.nconstrs m);
          for i = 0 to Model.nconstrs m - 1 do
            let c = Model.constr m i and c2 = Model.constr m2 i in
            if c2.Model.c_sense <> c.Model.c_sense then
              QCheck2.Test.fail_reportf "row %d: sense differs" i;
            if not (beq c2.Model.c_rhs c.Model.c_rhs) then
              QCheck2.Test.fail_reportf "row %d: rhs %g <> %g" i c2.Model.c_rhs
                c.Model.c_rhs;
            check_expr (Printf.sprintf "row %d" i) c.Model.c_expr c2.Model.c_expr
          done;
          true)

(* ------------------------------------------------------------------ *)
(* Pqueue / Vec                                                        *)
(* ------------------------------------------------------------------ *)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"pqueue: pops in non-decreasing key order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (float_range (-100.) 100.))
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun i k -> Pqueue.push q k i) keys;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (k, _) -> if k < last -. 1e-12 then false else drain k
      in
      Pqueue.length q = List.length keys && drain neg_infinity)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop empty" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek empty" true (Pqueue.peek_key q = None)

let prop_vec_roundtrip =
  QCheck2.Test.make ~name:"vec: add_last/to_array round-trips" ~count:200
    QCheck2.Gen.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.add_last v) xs;
      Array.to_list (Vec.to_array v) = xs && Vec.length v = List.length xs)

(* [Vec.Varints]: every value reads back at the offset [next] leads
   to, whatever its width (one byte under 128, up to ten for max_int). *)
let prop_vec_varints_roundtrip =
  QCheck2.Test.make ~name:"vec: Varints add_last/get/next round-trips" ~count:200
    QCheck2.Gen.(list (oneof [ int_bound 200; int_bound 100_000; map (fun x -> x land max_int) int; return max_int ]))
    (fun xs ->
      let v = Vec.Varints.create () in
      List.iter (Vec.Varints.add_last v) xs;
      let pos = ref 0 in
      let back =
        List.map
          (fun _ ->
            let x = Vec.Varints.get v !pos in
            pos := Vec.Varints.next v !pos;
            x)
          xs
      in
      back = xs && !pos = Vec.Varints.length v)

(* Front-coded [Vec.Str]: every string reads back, across restart
   points, shared prefixes of any length (past 127 bytes the lengths
   take two varint bytes), empty strings and a [trim] mid-stream. *)
let prop_vec_str_roundtrip =
  let name =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun p k -> p ^ string_of_int k) (oneofl [ ""; "map_relay-lp_r"; "e_"; String.make 130 'x' ]) small_nat;
          string_size ~gen:printable (int_bound 300);
        ])
  in
  QCheck2.Test.make ~name:"vec: Str add_last/get round-trips" ~count:200
    QCheck2.Gen.(pair (list name) small_nat)
    (fun (xs, cut) ->
      let v = Vec.Str.create () in
      List.iteri
        (fun i x ->
          if i = cut then Vec.Str.trim v;
          Vec.Str.add_last v x)
        xs;
      Vec.Str.length v = List.length xs && List.for_all2 ( = ) (List.init (List.length xs) (Vec.Str.get v)) xs)

let test_vec_bounds () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Vec.set v 1 9;
  Alcotest.(check int) "set/get" 9 (Vec.get v 1);
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Vec.get: index 3 out of range [0, 3)") (fun () -> ignore (Vec.get v 3))

let prop_vec_float_roundtrip =
  QCheck2.Test.make ~name:"vec.float: add_last/to_array round-trips" ~count:200
    QCheck2.Gen.(list (float_range (-1e6) 1e6))
    (fun xs ->
      let v = Vec.Float.create () in
      List.iter (Vec.Float.add_last v) xs;
      let arr = Vec.Float.to_array v in
      Vec.Float.length v = List.length xs
      && Array.to_list arr = xs
      && Vec.Float.fold_left (fun acc x -> acc +. x) 0. v
         = List.fold_left (fun acc x -> acc +. x) 0. xs)

let test_vec_float_clear_and_bounds () =
  let v = Vec.Float.of_array [| 1.5; 2.5; 3.5 |] in
  Vec.Float.set v 1 9.25;
  Alcotest.(check (float 0.)) "set/get" 9.25 (Vec.Float.get v 1);
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Vec.Float.get: index 3 out of range [0, 3)") (fun () ->
      ignore (Vec.Float.get v 3));
  Vec.Float.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.Float.length v);
  (* Capacity survives a clear: appends after it still work. *)
  Vec.Float.add_last v 7.;
  Alcotest.(check (float 0.)) "append after clear" 7. (Vec.Float.get v 0)

(* ------------------------------------------------------------------ *)
(* Sparse LU kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* Dense Gauss-Jordan inverse with partial pivoting — the reference the
   sparse kernel is checked against.  Input [a.(row).(pos)]; [None] if a
   pivot falls below 1e-9 (singular to working precision). *)
let dense_inverse a =
  let m = Array.length a in
  let w = Array.map Array.copy a in
  let inv = Array.init m (fun i -> Array.init m (fun j -> if i = j then 1. else 0.)) in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       let p = ref k in
       for i = k + 1 to m - 1 do
         if Float.abs w.(i).(k) > Float.abs w.(!p).(k) then p := i
       done;
       if Float.abs w.(!p).(k) < 1e-9 then raise Exit;
       if !p <> k then begin
         let t = w.(k) in
         w.(k) <- w.(!p);
         w.(!p) <- t;
         let t = inv.(k) in
         inv.(k) <- inv.(!p);
         inv.(!p) <- t
       end;
       let piv = w.(k).(k) in
       for j = 0 to m - 1 do
         w.(k).(j) <- w.(k).(j) /. piv;
         inv.(k).(j) <- inv.(k).(j) /. piv
       done;
       for i = 0 to m - 1 do
         if i <> k && w.(i).(k) <> 0. then begin
           let f = w.(i).(k) in
           for j = 0 to m - 1 do
             w.(i).(j) <- w.(i).(j) -. (f *. w.(k).(j));
             inv.(i).(j) <- inv.(i).(j) -. (f *. inv.(k).(j))
           done
         end
       done
     done
   with Exit -> ok := false);
  if !ok then Some inv else None

(* Random well-conditioned sparse basis: a signed permutation diagonal
   (magnitude in [2, 5]) plus at most two off-diagonal entries of
   magnitude <= 0.5 per column — strictly column diagonally dominant
   under the permutation, so factorization must succeed. *)
let random_sparse_basis =
  QCheck2.Gen.(
    let* m = int_range 2 10 in
    let* perm = shuffle_a (Array.init m Fun.id) in
    let* diag =
      array_size (return m)
        (let* mag = float_range 2. 5. in
         let* s = bool in
         return (if s then mag else -.mag))
    in
    let* extras =
      array_size (return m)
        (list_size (int_range 0 2)
           (let* r = int_range 0 (m - 1) in
            let* v = float_range (-0.5) 0.5 in
            return (r, v)))
    in
    let* rhs = array_size (return m) (float_range (-5.) 5.) in
    return (m, perm, diag, extras, rhs))

let basis_cols (m, perm, diag, extras, _) =
  Array.init m (fun j ->
      Array.of_list
        ((perm.(j), diag.(j)) :: List.filter (fun (r, _) -> r <> perm.(j)) extras.(j)))

let dense_of_cols m cols =
  let a = Array.make_matrix m m 0. in
  Array.iteri (fun j col -> Array.iter (fun (r, v) -> a.(r).(j) <- a.(r).(j) +. v) col) cols;
  a

let close_to ?(eps = 1e-9) y z =
  let scale = ref 1. in
  Array.iter (fun v -> scale := Float.max !scale (Float.abs v)) z;
  let ok = ref true in
  Array.iteri (fun i v -> if Float.abs (v -. z.(i)) > eps *. !scale then ok := false) y;
  !ok

(* FTRAN and BTRAN of [rhs] through [lu] match the dense inverse [ia]
   to 1e-9. *)
let solves_match lu ia rhs =
  let m = Array.length rhs in
  let ft = Array.copy rhs in
  Lu.ftran lu ft;
  let ft_ref =
    Array.init m (fun p ->
        let s = ref 0. in
        for r = 0 to m - 1 do
          s := !s +. (ia.(p).(r) *. rhs.(r))
        done;
        !s)
  in
  let bt = Array.copy rhs in
  Lu.btran lu bt;
  let bt_ref =
    Array.init m (fun r ->
        let s = ref 0. in
        for p = 0 to m - 1 do
          s := !s +. (ia.(p).(r) *. rhs.(p))
        done;
        !s)
  in
  close_to ft ft_ref && close_to bt bt_ref

(* Factorize [cols] with the sparse kernel and the dense reference:
   [`Both_singular] when both refuse, [`Agree] when both succeed and
   FTRAN/BTRAN of [rhs] match the dense inverse to 1e-9, [`Disagree]
   otherwise. *)
let lu_vs_dense m cols rhs =
  match (Lu.factorize ~m (fun j -> cols.(j)), dense_inverse (dense_of_cols m cols)) with
  | None, None -> `Both_singular
  | None, Some _ | Some _, None -> `Disagree
  | Some lu, Some ia -> if solves_match lu ia rhs then `Agree else `Disagree

let prop_lu_matches_dense_reference =
  QCheck2.Test.make ~name:"lu: ftran/btran agree with the dense inverse to 1e-9" ~count:300
    random_sparse_basis (fun spec ->
      let m, _, _, _, rhs = spec in
      (* dominant: both must succeed *)
      lu_vs_dense m (basis_cols spec) rhs = `Agree)

let prop_lu_eta_update_matches_dense =
  QCheck2.Test.make ~name:"lu: eta update tracks a column replacement to 1e-9" ~count:300
    random_sparse_basis (fun spec ->
      let m, _, _, _, rhs = spec in
      let cols = basis_cols spec in
      match Lu.factorize ~m (fun j -> cols.(j)) with
      | None -> false
      | Some lu ->
          (* Replace the column at position r by 2·col_r + ½·col_s: its
             FTRAN image is 2·e_r + ½·e_s, so the pivot is a safe 2. *)
          let r = m / 2 in
          let s = (r + 1) mod m in
          let a_new = Array.make m 0. in
          Array.iter (fun (i, v) -> a_new.(i) <- a_new.(i) +. (2. *. v)) cols.(r);
          Array.iter (fun (i, v) -> a_new.(i) <- a_new.(i) +. (0.5 *. v)) cols.(s);
          let w = Array.copy a_new in
          Lu.ftran_spike lu w;
          if not (Lu.replace lu ~r ~alpha:w.(r)) then false
          else
            let cols' = Array.copy cols in
            cols'.(r) <-
              (Array.to_list (Array.mapi (fun i v -> (i, v)) a_new)
              |> List.filter (fun (_, v) -> v <> 0.)
              |> Array.of_list);
            let a' = dense_of_cols m cols' in
            (match dense_inverse a' with
            | None -> false
            | Some ia ->
                let ft = Array.copy rhs in
                Lu.ftran lu ft;
                let ft_ref =
                  Array.init m (fun p ->
                      let acc = ref 0. in
                      for i = 0 to m - 1 do
                        acc := !acc +. (ia.(p).(i) *. rhs.(i))
                      done;
                      !acc)
                in
                let bt = Array.copy rhs in
                Lu.btran lu bt;
                let bt_ref =
                  Array.init m (fun i ->
                      let acc = ref 0. in
                      for p = 0 to m - 1 do
                        acc := !acc +. (ia.(p).(i) *. rhs.(p))
                      done;
                      !acc)
                in
                close_to ft ft_ref && close_to bt bt_ref))

(* A basis shaped like the simplex's, m in [20, 60]: 30–70% unit slack
   columns on distinct rows, the rest structural columns with 2–8
   entries over random rows (sometimes one more: a repeated row or a
   small entry), in shuffled positions.  Unlike
   [random_sparse_basis] it reaches the kernel's harder paths:
   - rows shared by several structural columns leave a nucleus with no
     singleton, whose elimination needs fill;
   - a small entry (under a tenth of its column's largest) fails the
     pivot threshold;
   - a repeated row within a column is summed on assembly;
   - a near-copy of an earlier structural column (one row moved) makes
     elimination cancel entries down to the drop tolerance.
   One basis in eight is made exactly singular on purpose: a duplicate
   column, or a column whose repeated entries sum to nothing.  The
   small-integer values make about as many more singular by accident. *)
let simplex_like_basis st =
  let int n = Random.State.int st n and bool () = Random.State.bool st in
  let m = 20 + int 41 in
  let signed v = if bool () then v else -.v in
  let value () =
    signed
      (match int 4 with 0 -> 1. | 1 -> 2. | 2 -> 0.5 | _ -> 0.5 +. Random.State.float st 2.5)
  in
  let rows = Array.init m Fun.id in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = int (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  shuffle rows;
  let nslack = m * (30 + int 41) / 100 in
  let prev = ref [||] in
  let cols =
    Array.init m (fun j ->
        (* Column j owns row [rows.(j)], so the nonzero pattern always
           holds a transversal. *)
        let home = rows.(j) in
        if j < nslack then [| (home, signed 1.) |]
        else if Array.length !prev > 0 && int 4 = 0 then begin
          let c = Array.copy !prev in
          let k = int (Array.length c) in
          c.(k) <- (home, snd c.(k));
          c
        end
        else begin
          let others = List.init (1 + int 7) (fun _ -> (int m, value ())) in
          let dup = if int 3 = 0 then [ (fst (List.hd others), value ()) ] else [] in
          let small = if int 3 = 0 then [ (int m, signed (0.01 +. Random.State.float st 0.08)) ] else [] in
          let c = Array.of_list (((home, value ()) :: others) @ dup @ small) in
          prev := c;
          c
        end)
  in
  shuffle cols;
  (if int 8 = 0 then
     let a = int m in
     if bool () then cols.(a) <- Array.copy cols.((a + 1 + int (m - 1)) mod m)
     else
       let r = int m and v = value () in
       cols.(a) <- [| (r, v); (r, -.v) |]);
  let rhs = Array.init m (fun _ -> Random.State.float st 10. -. 5.) in
  (m, cols, rhs)

let prop_lu_simplex_like_matches_dense =
  QCheck2.Test.make ~name:"lu: simplex-shaped bases agree with the dense inverse to 1e-9"
    ~count:300
    (QCheck2.Gen.make_primitive ~gen:simplex_like_basis ~shrink:(fun _ -> Seq.empty))
    (fun (m, cols, rhs) -> lu_vs_dense m cols rhs <> `Disagree)

(* Bit-identity guard: any change to the pivot order, the elimination
   arithmetic or the entry order of the factors moves this digest.  It
   covers 200 fixed-seed simplex-shaped bases, singular ones included
   (as a marker), through FTRAN and BTRAN of two fixed vectors. *)
let test_lu_bit_identical_digest () =
  let st = Random.State.make [| 20261017 |] in
  let buf = Buffer.create (1 lsl 16) in
  let add_vec x = Array.iter (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v)) x in
  let singular = ref 0 in
  for _ = 1 to 200 do
    let m, cols, _ = simplex_like_basis st in
    match Lu.factorize ~m (fun j -> cols.(j)) with
    | None ->
        incr singular;
        Buffer.add_string buf "none"
    | Some lu ->
        let ones = Array.make m 1. in
        let ramp = Array.init m (fun i -> float_of_int ((i * 7 mod 11) - 5) /. 3.) in
        List.iter
          (fun solve ->
            List.iter
              (fun v ->
                let x = Array.copy v in
                solve lu x;
                add_vec x)
              [ ones; ramp ])
          [ Lu.ftran; Lu.btran ]
  done;
  Alcotest.(check bool) "the family has singular and regular members" true
    (!singular > 0 && !singular < 200);
  Alcotest.(check string) "digest of every solve's bits" "bf5a9862d87e446a47ee7e8fa907aa6c"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_lu_rejects_singular () =
  (* Exactly singular and near-singular bases must be refused by both
     the sparse kernel and the dense reference. *)
  let zero_col = [| [| (0, 1.); (1, 2.) |]; [||] |] in
  Alcotest.(check bool) "zero column rejected" true
    (Option.is_none (Lu.factorize ~m:2 (fun j -> zero_col.(j))));
  Alcotest.(check bool) "zero column: dense agrees" true
    (Option.is_none (dense_inverse (dense_of_cols 2 zero_col)));
  let dup = [| [| (0, 1.); (1, 2.) |]; [| (0, 1.); (1, 2.) |] |] in
  Alcotest.(check bool) "duplicate columns rejected" true
    (Option.is_none (Lu.factorize ~m:2 (fun j -> dup.(j))));
  Alcotest.(check bool) "duplicate columns: dense agrees" true
    (Option.is_none (dense_inverse (dense_of_cols 2 dup)));
  let near = [| [| (0, 1.); (1, 1.) |]; [| (0, 1.); (1, 1. +. 1e-14) |] |] in
  Alcotest.(check bool) "near-singular rejected" true
    (Option.is_none (Lu.factorize ~m:2 (fun j -> near.(j))));
  Alcotest.(check bool) "near-singular: dense agrees" true
    (Option.is_none (dense_inverse (dense_of_cols 2 near)))

(* The bits of every FTRAN and BTRAN of two fixed vectors, or "none"
   for a refused basis: two factorizations with equal bits here have
   the same factors as far as any solve can tell. *)
let solve_bits m = function
  | None -> "none"
  | Some lu ->
      let buf = Buffer.create 256 in
      let ones = Array.make m 1. in
      let ramp = Array.init m (fun i -> float_of_int ((i * 7 mod 11) - 5) /. 3.) in
      List.iter
        (fun solve ->
          List.iter
            (fun v ->
              let x = Array.copy v in
              solve lu x;
              Array.iter (fun f -> Buffer.add_int64_le buf (Int64.bits_of_float f)) x)
            [ ones; ramp ])
        [ Lu.ftran; Lu.btran ];
      Buffer.contents buf

let lu_bits m cols = solve_bits m (Lu.factorize ~m (fun j -> cols.(j)))

(* Bases whose elimination is mostly pivots with an empty L column: a
   column singleton whose row only has to be deleted from the other
   columns holding it.  [m] is in [8, 47] and positions are shuffled.
   - [`Bordered]: an arrowhead.  Either one long column over every row
     beside singletons on all rows but its own, or one border row held
     by every column beside a home row each, with a corner column on
     the border row alone (sometimes plus a few rows).
   - [`Long]: two to five long columns, each over about half of the
     rows, beside singleton columns on the rows no long column owns.
   - [`Tiny]: [`Long] whose off-home entries are often of magnitude
     at or near the drop tolerance (1e-13), some assembled from a
     repeated row, so every deletion must drop exactly those.
   A long column's own entry is sometimes under a tenth of its largest,
   so it fails the pivot threshold until the singletons have deleted
   the rest of the column. *)
let structured_basis st family =
  let int n = Random.State.int st n and bool () = Random.State.bool st in
  let m = 8 + int 40 in
  let signed v = if bool () then v else -.v in
  let value () =
    signed
      (match int 4 with 0 -> 1. | 1 -> 2. | 2 -> 0.5 | _ -> 0.5 +. Random.State.float st 2.5)
  in
  let home_value () =
    if bool () then signed (4. +. Random.State.float st 4.)
    else signed (0.01 +. Random.State.float st 0.08)
  in
  let tiny () =
    let t =
      match int 8 with
      | 0 -> 1e-13
      | 1 -> Float.succ 1e-13
      | 2 -> Float.pred 1e-13
      | 3 -> 5e-14
      | 4 -> 2e-13
      | 5 -> 1e-15
      | 6 -> 3e-13
      | _ -> 1e-13 *. (0.5 +. Random.State.float st 1.)
    in
    if int 4 = 0 then
      (* Assembled from a repeated row: 1 + (t - 1) lands within an
         ulp of 1 of [t], on either side of the tolerance. *)
      [ 1.; t -. 1. ]
    else [ signed t ]
  in
  let rows = Array.init m Fun.id in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = int (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  shuffle rows;
  let single r = [| (r, value ()) |] in
  let cols =
    match family with
    | `Bordered when bool () ->
        let long = Array.init m (fun i -> (rows.(i), if i = 0 then home_value () else value ())) in
        shuffle long;
        Array.init m (fun i -> if i = 0 then long else single rows.(i))
    | `Bordered ->
        let border = rows.(0) in
        let extra = if bool () then [] else List.init (1 + int 3) (fun _ -> (rows.(1 + int (m - 1)), value ())) in
        Array.init m (fun i ->
            if i = 0 then Array.of_list ((border, home_value ()) :: extra)
            else if bool () then [| (rows.(i), value ()); (border, value ()) |]
            else [| (border, value ()); (rows.(i), value ()) |])
    | (`Long | `Tiny) as f ->
        let k = 2 + int 4 in
        Array.init m (fun i ->
            if i >= k then single rows.(i)
            else begin
              let entries = ref [ (rows.(i), home_value ()) ] in
              for j = 0 to m - 1 do
                if j <> i && int 2 = 0 then
                  if j < k then entries := (rows.(j), 0.1 *. value ()) :: !entries
                  else if f = `Tiny && int 3 = 0 then
                    List.iter (fun v -> entries := (rows.(j), v) :: !entries) (tiny ())
                  else entries := (rows.(j), value ()) :: !entries
              done;
              let c = Array.of_list !entries in
              shuffle c;
              c
            end)
  in
  shuffle cols;
  (m, cols)

(* Bit-identity guard over a basis generator: the digest of every
   FTRAN and BTRAN of [count] fixed-seed bases, all regular. *)
let check_lu_digest ~count gen seed expected () =
  let st = Random.State.make [| seed |] in
  let bits =
    List.init count (fun _ ->
        let m, cols = gen st in
        lu_bits m cols)
  in
  Alcotest.(check bool) "every basis factorizes" false (List.mem "none" bits);
  let digest = Digest.to_hex (Digest.string (String.concat "" bits)) in
  Alcotest.(check string) "digest of every solve's bits" expected digest

let check_lu_family family = check_lu_digest ~count:120 (fun st -> structured_basis st family)

(* The shape of a warm node LP's basis: six to ten structural columns
   of about 60 entries each over slack singletons (signed unit values)
   on every row no structural column owns, m in [120, 259], positions
   shuffled.  Most pivots are singletons whose row is deleted in place
   from several long columns at once; a long column's entries on
   another long column's home row are a tenth of a normal value, one
   entry in eight is large (deleting it lowers its column's largest
   magnitude, and so the pivot threshold), and a home entry is
   sometimes under a tenth of its column's largest. *)
let wide_basis st =
  let int n = Random.State.int st n and bool () = Random.State.bool st in
  let m = 120 + int 140 in
  let signed v = if bool () then v else -.v in
  let value () =
    signed
      (match int 8 with
      | 0 -> 1.
      | 1 -> 2.
      | 2 -> 0.5
      | 3 -> 10. +. Random.State.float st 30.
      | _ -> 0.5 +. Random.State.float st 2.5)
  in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = int (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  let rows = Array.init m Fun.id in
  shuffle rows;
  let k = 6 + int 5 in
  let cols =
    Array.init m (fun i ->
        if i >= k then [| (rows.(i), signed 1.) |]
        else begin
          let others = Array.init (m - 1) (fun t -> if t < i then t else t + 1) in
          shuffle others;
          let n = 50 + int 21 in
          let home =
            if int 4 = 0 then signed (0.01 +. Random.State.float st 0.08)
            else signed (2. +. Random.State.float st 6.)
          in
          let c =
            Array.init (n + 1) (fun t ->
                if t = n then (rows.(i), home)
                else
                  let j = others.(t) in
                  (rows.(j), if j < k then 0.1 *. value () else value ()))
          in
          shuffle c;
          c
        end)
  in
  shuffle cols;
  (m, cols)

(* The direct sum of two bases: a larger basis than either. *)
let block_basis (m1, c1, _) (m2, c2, _) =
  let shift = Array.map (Array.map (fun (r, v) -> (r + m1, v))) c2 in
  (m1 + m2, Array.append c1 shift)

(* CSC form of [cols], stored in reverse order among decoy columns, and
   the basis positions that pick the real ones back out. *)
let csc_of_cols st m cols =
  let decoy () = [| (Random.State.int st m, 1. +. Random.State.float st 3.) |] in
  let stored = ref [] and basis = Array.make m 0 and ntot = ref 0 in
  for i = m - 1 downto 0 do
    if Random.State.bool st then begin
      stored := decoy () :: !stored;
      incr ntot
    end;
    basis.(i) <- !ntot;
    stored := cols.(i) :: !stored;
    incr ntot
  done;
  let stored = Array.of_list (List.rev !stored) in
  let colp = Array.make (!ntot + 1) 0 in
  Array.iteri (fun j c -> colp.(j + 1) <- colp.(j) + Array.length c) stored;
  let coli = Array.make colp.(!ntot) 0 and colv = Float.Array.create colp.(!ntot) in
  Array.iteri
    (fun j c ->
      Array.iteri
        (fun k (r, v) ->
          coli.(colp.(j) + k) <- r;
          Float.Array.set colv (colp.(j) + k) v)
        c)
    stored;
  (colp, coli, colv, basis)

let test_lu_csc_matches_callback () =
  let st = Random.State.make [| 7; 18 |] in
  let check m cols =
    let colp, coli, colv, basis = csc_of_cols st m cols in
    Alcotest.(check bool) "CSC factors are the callback's, bit for bit" true
      (lu_bits m cols = solve_bits m (Lu.factorize_csc ~m ~colp ~coli ~colv basis))
  in
  for _ = 1 to 100 do
    let m, cols, _ = simplex_like_basis st in
    check m cols
  done;
  let gen = QCheck2.Gen.generate ~rand:st ~n:100 random_sparse_basis in
  List.iter (fun ((m, _, _, _, _) as spec) -> check m (basis_cols spec)) gen

let test_lu_domains_match_sequential () =
  let family = List.init 60 (fun i -> simplex_like_basis (Random.State.make [| 31; i |])) in
  let run () = List.map (fun (m, cols, _) -> lu_bits m cols) family in
  let sequential = run () in
  let ds = List.init 2 (fun _ -> Domain.spawn run) in
  List.iter
    (fun d ->
      Alcotest.(check bool) "a domain running alongside another gets the sequential bits" true
        (Domain.join d = sequential))
    ds

let test_lu_scratch_grows_and_shrinks () =
  let st = Random.State.make [| 2026 |] in
  let family = List.init 40 (fun _ -> simplex_like_basis st) in
  let by_m = List.sort (fun (a, _, _) (b, _, _) -> compare b a) family in
  let big = List.nth by_m 0 and small = List.nth by_m 39 in
  let bigm, bigc, _ = big and smallm, smallc, _ = small in
  let biggerm, biggerc = block_basis big (List.nth by_m 1) in
  let seq = [ (bigm, bigc); (smallm, smallc); (biggerm, biggerc); (smallm, smallc) ] in
  (* Each reference runs on a fresh domain, whose scratch is new. *)
  let fresh = List.map (fun (m, c) -> Domain.join (Domain.spawn (fun () -> lu_bits m c))) seq in
  let reused = Domain.join (Domain.spawn (fun () -> List.map (fun (m, c) -> lu_bits m c) seq)) in
  Alcotest.(check bool) "dimensions differ" true (smallm < bigm && bigm < biggerm);
  List.iteri
    (fun i (f, r) ->
      Alcotest.(check bool) (Printf.sprintf "factorization %d matches a fresh scratch" i) true (f = r))
    (List.combine fresh reused)

(* Words allocated by [f ()], minor and major, after flushing the minor
   heap so the count is exact. *)
(* Words [f] allocates in the calling domain.  [Gc.counters] is this
   domain's count; [Gc.quick_stat] adds what other live domains (the
   parked workers of earlier parallel solves) had allocated when their
   counts were last sampled. *)
let words_allocated f =
  let read () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = read () in
  let r = f () in
  let after = read () in
  (r, after -. before)

let test_lu_factorize_allocates_the_factor () =
  let st = Random.State.make [| 4242 |] in
  let family =
    List.filter
      (fun (m, cols, _) -> Option.is_some (Lu.factorize ~m (fun j -> cols.(j))))
      (List.init 20 (fun _ -> simplex_like_basis st))
  in
  let largest =
    List.fold_left (fun (m, c, r) (m', c', r') -> if m' > m then (m', c', r') else (m, c, r))
      (List.hd family) family
  in
  List.iter
    (fun (m, cols) ->
      let colp, coli, colv, basis = csc_of_cols st m cols in
      let factorize () = Lu.factorize_csc ~m ~colp ~coli ~colv basis in
      ignore (factorize ());
      match words_allocated factorize with
      | None, _ -> Alcotest.fail "test basis must factorize"
      | Some lu, w ->
          (* [Lu.nnz] of a fresh factor is m + nnz(L+U). *)
          let bound = float_of_int ((6 * Lu.nnz lu) + 256) in
          Alcotest.(check bool)
            (Printf.sprintf "m=%d: %.0f words <= %.0f" m w bound)
            true (w <= bound))
    [ (let m, c, _ = largest in (m, c)); block_basis largest largest ]

(* ------------------------------------------------------------------ *)
(* Forrest–Tomlin updates                                              *)
(* ------------------------------------------------------------------ *)

let bits_of x = Array.map Int64.bits_of_float x

(* One basis change on [lu], mirrored in [cols]: the entering column is
   s·col_r (|s| in [0.75, 1.5]) plus a sparse random column at weight
   1/4, FTRANed through [Lu.ftran_spike]; it replaces position [r], or
   the position of its image's largest entry when the image is small
   at [r].  Returns the position replaced and [Lu.replace]'s verdict. *)
let ft_step st lu m cols r =
  let a = Array.make m 0. in
  let s = (if Random.State.bool st then 1. else -1.) *. (0.75 +. Random.State.float st 0.75) in
  Array.iter (fun (i, v) -> a.(i) <- a.(i) +. (s *. v)) cols.(r);
  for _ = 1 to 1 + Random.State.int st 4 do
    let i = Random.State.int st m in
    a.(i) <- a.(i) +. (0.25 *. (Random.State.float st 2. -. 1.))
  done;
  let w = Array.copy a in
  Lu.ftran_spike lu w;
  let r =
    if Float.abs w.(r) >= 0.5 then r
    else begin
      let best = ref 0 in
      Array.iteri (fun i v -> if Float.abs v > Float.abs w.(!best) then best := i) w;
      !best
    end
  in
  let stable = Lu.replace lu ~r ~alpha:w.(r) in
  cols.(r) <-
    Array.of_list (List.filter (fun (_, v) -> v <> 0.) (List.mapi (fun i v -> (i, v)) (Array.to_list a)));
  (r, stable)

(* [lu] against the dense inverse of [cols]: FTRAN and BTRAN of [rhs]. *)
let matches_dense lu m cols rhs =
  match dense_inverse (dense_of_cols m cols) with
  | None -> false
  | Some ia -> solves_match lu ia rhs

let factorized st =
  let rec go () =
    let m, cols, rhs = simplex_like_basis st in
    match Lu.factorize ~m (fun j -> cols.(j)) with
    | Some lu -> (m, Array.copy cols, rhs, lu)
    | None -> go ()
  in
  go ()

let test_lu_update_sequences_match_dense () =
  let st = Random.State.make [| 20261101 |] in
  let longest = ref 0 in
  for _ = 1 to 120 do
    let m, cols, rhs, lu = factorized st in
    (* The first two steps replace one position twice. *)
    let r0 = Random.State.int st m in
    let step = ref 0 in
    while not (Lu.stale lu) do
      let r, stable = ft_step st lu m cols (if !step < 2 then r0 else Random.State.int st m) in
      incr step;
      if !step = 2 && r <> r0 then Alcotest.fail "the second step must replace the first's position";
      Alcotest.(check bool) (Printf.sprintf "m=%d update %d is stable" m !step) true stable;
      Alcotest.(check bool)
        (Printf.sprintf "m=%d after update %d (position %d)" m !step r)
        true (matches_dense lu m cols rhs)
    done;
    longest := max !longest !step
  done;
  Alcotest.(check bool) "some sequence runs past a few updates" true (!longest >= 8)

let test_lu_update_snapshot_isolation () =
  let st = Random.State.make [| 20261102 |] in
  for _ = 1 to 40 do
    let m, cols, rhs, lu = factorized st in
    for _ = 1 to 1 + Random.State.int st 4 do
      ignore (ft_step st lu m cols (Random.State.int st m))
    done;
    let f = Lu.snapshot lu in
    let bits () = solve_bits m (Some (Lu.of_factor f)) in
    let before = bits () in
    (* Two handles reopened from [f] take different updates, on two
       domains at once; each must still be its own basis's inverse. *)
    let branch seed =
      let st = Random.State.make [| seed |] in
      let h = Lu.of_factor f and cols = Array.copy cols in
      let ok = ref true in
      for _ = 1 to 6 do
        if not (Lu.stale h) then begin
          ignore (ft_step st h m cols (Random.State.int st m));
          ok := !ok && matches_dense h m cols rhs
        end
      done;
      !ok
    in
    let d1 = Domain.spawn (fun () -> branch 1) and d2 = Domain.spawn (fun () -> branch 2) in
    Alcotest.(check bool) "first handle tracks its basis" true (Domain.join d1);
    Alcotest.(check bool) "second handle tracks its basis" true (Domain.join d2);
    Alcotest.(check bool) "the updates live on after the handles are gone" true
      (matches_dense (Lu.of_factor f) m cols rhs);
    Alcotest.(check bool) "the snapshot's solve bits are unchanged" true (bits () = before)
  done

let test_lu_update_extend_rows () =
  let st = Random.State.make [| 20261103 |] in
  for _ = 1 to 60 do
    let m, cols, rhs, lu = factorized st in
    for _ = 1 to Random.State.int st 12 do
      if not (Lu.stale lu) then ignore (ft_step st lu m cols (Random.State.int st m))
    done;
    let f = Lu.snapshot lu in
    let k = 1 + Random.State.int st 3 in
    let vrows =
      Array.init k (fun _ ->
          Array.init (1 + Random.State.int st 4) (fun _ ->
              (Random.State.int st m, Random.State.float st 2. -. 1.)))
    in
    let g = Lu.extend_rows f vrows in
    let padded () = Array.init (m + k) (fun i -> if i < m then rhs.(i) else 0.) in
    let x = Array.copy rhs and gx = padded () in
    let old = Lu.of_factor f and grown = Lu.of_factor g in
    Lu.ftran old x;
    Lu.ftran grown gx;
    Alcotest.(check bool) "FTRAN of the old rows keeps its bits" true
      (bits_of x = bits_of (Array.sub gx 0 m));
    let y = Array.copy rhs and gy = padded () in
    Lu.btran old y;
    Lu.btran grown gy;
    Alcotest.(check bool) "BTRAN of the old positions keeps its values" true
      (Array.for_all2 Float.equal y (Array.sub gy 0 m));
    (* The grown factor is [[B 0] [V I]]'s: V's row t holds vrows.(t)
       on the basis positions, each slack its own row. *)
    let gcols =
      Array.init (m + k) (fun p ->
          if p >= m then [| (p, 1.) |]
          else
            Array.append cols.(p)
              (Array.of_list
                 (List.concat
                    (List.mapi
                       (fun t row ->
                         List.filter_map (fun (q, a) -> if q = p then Some (m + t, a) else None)
                           (Array.to_list row))
                       (Array.to_list vrows)))))
    in
    let grhs = Array.init (m + k) (fun i -> if i < m then rhs.(i) else float_of_int (i - m) -. 0.5) in
    Alcotest.(check bool) "the grown factor inverts the grown basis" true
      (matches_dense (Lu.of_factor g) (m + k) gcols grhs)
  done

let test_lu_replace_needs_a_spike () =
  let st = Random.State.make [| 20261104 |] in
  let m, cols, _, lu = factorized st in
  let w = Array.make m 0. in
  Array.iter (fun (i, v) -> w.(i) <- v) cols.(0);
  Lu.ftran lu w;
  Alcotest.check_raises "a plain FTRAN keeps no spike"
    (Invalid_argument "Lu.replace: no spike kept since the last basis change") (fun () ->
      ignore (Lu.replace lu ~r:0 ~alpha:w.(0)));
  ignore (ft_step st lu m cols 0);
  Alcotest.check_raises "a spike serves one update"
    (Invalid_argument "Lu.replace: no spike kept since the last basis change") (fun () ->
      ignore (Lu.replace lu ~r:1 ~alpha:1.))

(* A simplex-shaped basis with zero up to the refactorization trigger
   of Forrest–Tomlin updates (random positions, each replaced by a
   random combination of its column and a sparse column), and two
   sparse vectors of its dimension holding +0.0 and -0.0 among their
   entries; [None] for a basis the kernel refuses. *)
let lu_with_updates st =
  let int n = Random.State.int st n in
  let m, cols, _ = simplex_like_basis st in
  match Lu.factorize ~m (fun j -> cols.(j)) with
  | None -> None
  | Some lu ->
      let entry () =
        match int 6 with
        | 0 -> 0.
        | 1 -> -0.
        | 2 -> 1.
        | 3 -> -1.
        | _ -> Random.State.float st 4. -. 2.
      in
      let cols = Array.copy cols in
      let steps = int 65 in
      let k = ref 0 in
      while !k < steps && not (Lu.stale lu) do
        ignore (ft_step st lu m cols (int m));
        incr k
      done;
      let vec () =
        match int 3 with
        | 0 ->
            let x = Array.make m 0. in
            x.(int m) <- 1.;
            x
        | 1 -> Array.init m (fun _ -> if int 4 = 0 then entry () else if int 2 = 0 then -0. else 0.)
        | _ -> Array.init m (fun _ -> entry ())
      in
      Some (lu, vec (), vec ())

let prop_lu_btran2_bit_identical =
  QCheck2.Test.make ~name:"lu: btran2 is two btrans, bit for bit" ~count:300
    (QCheck2.Gen.make_primitive ~gen:lu_with_updates ~shrink:(fun _ -> Seq.empty))
    (function
      | None -> true
      | Some (lu, x, x2) ->
          let a = Array.copy x and b = Array.copy x2 in
          Lu.btran lu a;
          Lu.btran lu b;
          Lu.btran2 lu x x2;
          bits_of a = bits_of x && bits_of b = bits_of x2)

let test_lu_btran2_stats () =
  let st = Random.State.make [| 20261022 |] in
  let booked f =
    Lu.reset_stats ();
    Lu.set_stats_enabled true;
    Fun.protect ~finally:(fun () -> Lu.set_stats_enabled false) f;
    Lu.stats ()
  in
  let checked = ref 0 in
  while !checked < 40 do
    match lu_with_updates st with
    | None -> ()
    | Some (lu, x, x2) ->
        incr checked;
        let a = Array.copy x and b = Array.copy x2 in
        let two = booked (fun () -> Lu.btran lu a; Lu.btran lu b) in
        let paired = booked (fun () -> Lu.btran2 lu x x2) in
        Alcotest.(check bool) "btran2 books what two btrans book" true (two = paired)
  done

let test_append_rows_bit_identical () =
  (* Cold-solve snapshots carry a freshly refactorized zero-eta factor;
     growing one with Basis.append_rows must extend it in place rather
     than refactorize — so the first m basic values of the grown
     tableau are bit-for-bit those of the original tableau. *)
  let m = Model.create () in
  let x = Model.add_var m ~ub:4. "x"
  and y = Model.add_var m ~ub:4. "y"
  and z = Model.add_var m ~ub:4. "z" in
  Model.add_constr m (Lin.of_list [ (1., x); (2., y); (1., z) ]) Model.Le 9.;
  Model.add_constr m (Lin.of_list [ (3., x); (1., y) ]) Model.Le 11.;
  Model.add_constr m (Lin.of_list [ (1., y); (1., z) ]) Model.Ge 1.;
  Model.set_objective m Model.Maximize (Lin.of_list [ (2., x); (3., y); (1., z) ]);
  let p = Simplex.of_model m in
  let lb = [| 0.; 0.; 0. |] and ub = [| 4.; 4.; 4. |] in
  let r0 = Simplex.solve p ~lb ~ub in
  Alcotest.check lp_status "optimal" Status.Lp_optimal r0.Simplex.status;
  let basis = Option.get r0.Simplex.basis in
  let t0 = Option.get (Simplex.tableau p ~lb ~ub basis) in
  let rows =
    [
      ([| (0, 1.); (1, 1.) |], Model.Le, 50.);
      ([| (1, 1.); (2, 1.) |], Model.Le, 60.);
      ([| (0, 1.); (2, 2.) |], Model.Le, 70.);
    ]
  in
  let p' = Simplex.add_rows p rows in
  let grown = Basis.append_rows basis (Array.of_list (List.map (fun (r, _, _) -> r) rows)) in
  let t1 = Option.get (Simplex.tableau p' ~lb ~ub grown) in
  Alcotest.(check int) "grown row count" (t0.Simplex.t_nrows + 3) t1.Simplex.t_nrows;
  for i = 0 to t0.Simplex.t_nrows - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "basic value %d bit-identical" i)
      (Int64.bits_of_float t0.Simplex.t_xb.(i))
      (Int64.bits_of_float t1.Simplex.t_xb.(i))
  done

(* ------------------------------------------------------------------ *)
(* Node propagation against its previous engine                        *)
(* ------------------------------------------------------------------ *)

(* The per-node engine as it was before it read flat rows and skipped
   unchanged ones, kept verbatim as the reference: every active row is
   evaluated in every pass, through the tuple rows. *)
module Reference_propagation = struct
  type outcome = Presolve.outcome

  let feas_slack tol = 100. *. tol
  let int_slack tol = 1000. *. tol

  let activity row lb ub =
    let amin = ref 0. and amax = ref 0. in
    for k = 0 to Array.length row - 1 do
      let j, a = Array.unsafe_get row k in
      if a > 0. then begin
        amin := !amin +. (a *. lb.(j));
        amax := !amax +. (a *. ub.(j))
      end
      else begin
        amin := !amin +. (a *. ub.(j));
        amax := !amax +. (a *. lb.(j))
      end
    done;
    (!amin, !amax)

  exception Infeasible of string

  let run ?(max_rounds = 16) ?(tol = 1e-9) (p : Simplex.problem) ~integer ~lb ~ub : outcome =
    let feas = feas_slack tol and islack = int_slack tol in
    let m = Array.length p.Simplex.rows in
    let lb = Array.copy lb and ub = Array.copy ub in
    let active = Array.make m true in
    let changed = ref true in
    let rounds = ref 0 in
    let round_int j =
      if integer.(j) then begin
        lb.(j) <- Float.ceil (lb.(j) -. islack);
        ub.(j) <- Float.floor (ub.(j) +. islack)
      end
    in
    let tighten_lb j v =
      if v > lb.(j) +. tol then begin
        lb.(j) <- v;
        round_int j;
        changed := true;
        if lb.(j) > ub.(j) +. feas then
          raise (Infeasible (Printf.sprintf "empty domain for variable %d" j))
      end
    in
    let tighten_ub j v =
      if v < ub.(j) -. tol then begin
        ub.(j) <- v;
        round_int j;
        changed := true;
        if lb.(j) > ub.(j) +. feas then
          raise (Infeasible (Printf.sprintf "empty domain for variable %d" j))
      end
    in
    let propagate_le row rhs neg i amin =
      let s = if neg then -1.0 else 1.0 in
      if amin > rhs +. feas then
        raise (Infeasible (Printf.sprintf "row %d cannot be satisfied" i));
      if Float.is_finite amin then
        for k = 0 to Array.length row - 1 do
          let j, a0 = Array.unsafe_get row k in
          let a = s *. a0 in
          let contrib = if a > 0. then a *. lb.(j) else a *. ub.(j) in
          let rest = amin -. contrib in
          if Float.is_finite rest then
            if a > 0. then tighten_ub j ((rhs -. rest) /. a)
            else tighten_lb j ((rhs -. rest) /. a)
        done
    in
    (try
       while !changed && !rounds < max_rounds do
         changed := false;
         incr rounds;
         for i = 0 to m - 1 do
           if active.(i) then begin
             let row = p.Simplex.rows.(i) and rhs = p.Simplex.rhs.(i) in
             let amin, amax = activity row lb ub in
             (match p.Simplex.senses.(i) with
             | Model.Le ->
                 if amin > rhs +. feas then
                   raise (Infeasible (Printf.sprintf "row %d infeasible" i));
                 if amax <= rhs +. tol then active.(i) <- false
                 else propagate_le row rhs false i amin
             | Model.Ge ->
                 if amax < rhs -. feas then
                   raise (Infeasible (Printf.sprintf "row %d infeasible" i));
                 if amin >= rhs -. tol then active.(i) <- false
                 else propagate_le row (-.rhs) true i (-.amax)
             | Model.Eq ->
                 if amin > rhs +. feas || amax < rhs -. feas then
                   raise (Infeasible (Printf.sprintf "row %d infeasible" i));
                 if amin >= rhs -. tol && amax <= rhs +. tol then active.(i) <- false
                 else begin
                   propagate_le row rhs false i amin;
                   propagate_le row (-.rhs) true i (-.amax)
                 end)
           end
         done
       done;
       Presolve.Feasible { lb; ub; active; rounds = !rounds }
     with Infeasible why -> Presolve.Proven_infeasible why)
end

(* A small propagation problem: 1-10 variables (integer or not, with
   finite or infinite bounds), 1-10 rows of 1-4 terms over Le, Ge and
   Eq senses.  Coefficients and right-hand sides are mostly small
   integers, so chains of implied bounds and integer rounding are
   common; [bounds ()] draws a fresh box for the same rows. *)
let propagation_problem st =
  let int n = Random.State.int st n in
  let n = 1 + int 10 and m = 1 + int 10 in
  let coef () =
    match int 7 with
    | 0 -> 1.
    | 1 -> -1.
    | 2 -> 2.
    | 3 -> -2.
    | 4 -> 0.5
    | 5 -> -3.
    | _ -> (if Random.State.bool st then 1. else -1.) *. (0.25 +. Random.State.float st 3.)
  in
  let rows =
    Array.init m (fun _ ->
        let vars = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = int (i + 1) in
          let t = vars.(i) in
          vars.(i) <- vars.(j);
          vars.(j) <- t
        done;
        Array.init (1 + int (min n 4)) (fun k -> (vars.(k), coef ())))
  in
  let senses =
    Array.init m (fun _ -> match int 5 with 0 -> Model.Eq | 1 | 2 -> Model.Ge | _ -> Model.Le)
  in
  let rhs =
    Array.init m (fun _ ->
        if int 4 = 0 then Random.State.float st 8. -. 3. else float_of_int (int 10 - 3))
  in
  let integer = Array.init n (fun _ -> int 3 > 0) in
  let bounds () =
    let lb =
      Array.init n (fun _ ->
          match int 5 with
          | 0 -> neg_infinity
          | 1 -> -2.
          | 2 -> Random.State.float st 2. -. 1.
          | _ -> 0.)
    and ub =
      Array.init n (fun _ ->
          match int 5 with 0 -> infinity | 1 -> 4. | 2 -> 10. | 3 -> 2.5 | _ -> 1.)
    in
    (lb, ub)
  in
  let p =
    { Simplex.ncols = n; rows; senses; rhs; obj = Array.make n 0.; obj_const = 0. }
  in
  (p, integer, bounds)

let same_outcome (a : Presolve.outcome) (b : Presolve.outcome) =
  match (a, b) with
  | Presolve.Feasible a, Presolve.Feasible b ->
      bits_of a.lb = bits_of b.lb && bits_of a.ub = bits_of b.ub && a.active = b.active
      && a.rounds = b.rounds
  | Presolve.Proven_infeasible a, Presolve.Proven_infeasible b -> a = b
  | _ -> false

let test_propagation_matches_reference () =
  let st = Random.State.make [| 20261023 |] in
  let multi = ref 0 and capped = ref 0 and infeasible = ref 0 and calls = ref 0 in
  for _ = 1 to 3000 do
    let p, integer, bounds = propagation_problem st in
    let rows = Presolve.flatten p in
    (* One image serves several boxes, as [p0]'s serves every node. *)
    for _ = 1 to 3 do
      let lb, ub = bounds () in
      let max_rounds = [| None; Some 1; Some 2; Some 4; Some 4 |].(Random.State.int st 5) in
      let want = Reference_propagation.run ?max_rounds p ~integer ~lb ~ub in
      let got = Presolve.run_flat ?max_rounds rows ~integer ~lb ~ub in
      incr calls;
      if not (same_outcome want got) then
        Alcotest.failf "call %d: the flat engine disagrees with the reference" !calls;
      match want with
      | Presolve.Feasible { rounds; _ } ->
          if rounds >= 3 then incr multi;
          if Some rounds = max_rounds && rounds > 1 then incr capped
      | Presolve.Proven_infeasible _ -> incr infeasible
    done;
    let lb, ub = bounds () in
    if not (same_outcome (Reference_propagation.run p ~integer ~lb ~ub) (Presolve.run p ~integer ~lb ~ub))
    then Alcotest.fail "Presolve.run disagrees with the reference"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "the sample reaches 3+ rounds (%d), the cap (%d) and infeasibility (%d)"
       !multi !capped !infeasible)
    true
    (!multi > 100 && !capped > 100 && !infeasible > 100)

(* The flat engine allocates its result and working copies of the
   bounds, nothing per row evaluation. *)
let test_propagation_allocation () =
  let n = 400 and m = 300 in
  let rows =
    Array.init m (fun i ->
        if i < m - 1 then [| (i, 1.); (i + 1, -1.) |] else [| (0, 1.); (1, 1.); (2, 1.) |])
  in
  let p =
    { Simplex.ncols = n; rows; senses = Array.make m Model.Le; rhs = Array.make m 0.;
      obj = Array.make n 0.; obj_const = 0. }
  in
  let integer = Array.make n true in
  let lb = Array.make n 0. and ub = Array.make n 10. in
  ub.(m - 1) <- 3.;
  let flat = Presolve.flatten p in
  let run () = Presolve.run_flat ~max_rounds:4 flat ~integer ~lb ~ub in
  ignore (run ());
  match words_allocated run with
  | Presolve.Feasible { rounds; _ }, w ->
      Alcotest.(check int) "propagation runs every pass" 4 rounds;
      let bound = float_of_int ((2 * (n + 1)) + m + 1 + 256) in
      Alcotest.(check bool) (Printf.sprintf "%.0f words <= %.0f" w bound) true (w <= bound)
  | Presolve.Proven_infeasible e, _ -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Kernel round 2: pricing and ratio-test ablations                    *)
(* ------------------------------------------------------------------ *)

(* Devex and Dantzig pricing walk different vertex sequences but must
   land on the same optimum (or agree the LP is infeasible/unbounded). *)
let prop_pricing_lp_parity =
  QCheck2.Test.make ~name:"simplex: devex pricing matches dantzig on random LPs" ~count:300
    random_lp_spec (fun spec ->
      let m, _ = build_lp spec in
      let p = Simplex.of_model m in
      let n = p.Simplex.ncols in
      let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
      let dv = Simplex.solve ~pricing:Simplex.Devex p ~lb ~ub in
      let dz = Simplex.solve ~pricing:Simplex.Dantzig p ~lb ~ub in
      dv.Simplex.status = dz.Simplex.status
      && (dv.Simplex.status <> Status.Lp_optimal
         || feq ~eps:1e-6 dv.Simplex.objective dz.Simplex.objective))

let prop_ratio_test_lp_parity =
  QCheck2.Test.make ~name:"simplex: harris ratio test matches the classic one" ~count:300
    random_lp_spec (fun spec ->
      let m, _ = build_lp spec in
      let p = Simplex.of_model m in
      let n = p.Simplex.ncols in
      let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
      let h = Simplex.solve ~harris:true p ~lb ~ub in
      let c = Simplex.solve ~harris:false p ~lb ~ub in
      h.Simplex.status = c.Simplex.status
      && (h.Simplex.status <> Status.Lp_optimal
         || feq ~eps:1e-6 h.Simplex.objective c.Simplex.objective))

let prop_pricing_bb_parity =
  QCheck2.Test.make ~name:"branch&bound: dantzig ablation matches devex default" ~count:100
    random_bip (fun spec ->
      let m = build_bip spec in
      let dv = Branch_bound.solve m in
      let dz =
        Branch_bound.solve
          ~options:{ Branch_bound.default_options with Branch_bound.pricing = Simplex.Dantzig }
          m
      in
      dv.Branch_bound.status = dz.Branch_bound.status
      && (dv.Branch_bound.status <> Status.Mip_optimal
         || feq ~eps:1e-6 dv.Branch_bound.objective dz.Branch_bound.objective))

let prop_harris_bb_parity =
  QCheck2.Test.make ~name:"branch&bound: classic ratio-test ablation matches harris default"
    ~count:100 random_bip (fun spec ->
      let m = build_bip spec in
      let h = Branch_bound.solve m in
      let c =
        Branch_bound.solve
          ~options:{ Branch_bound.default_options with Branch_bound.harris = false }
          m
      in
      h.Branch_bound.status = c.Branch_bound.status
      && (h.Branch_bound.status <> Status.Mip_optimal
         || feq ~eps:1e-6 h.Branch_bound.objective c.Branch_bound.objective))

(* Beale's cycling LP: every vertex of the feasible region is degenerate
   at the origin, and Dantzig pricing with a naive ratio test cycles
   forever.  The stall detector must hand over to Bland's rule and
   terminate at the known optimum -0.05 = -1/20 under all four
   pricing/ratio-test combinations. *)
let test_degenerate_stall_bland () =
  let m = Model.create () in
  let x1 = Model.add_var m "x1" and x2 = Model.add_var m "x2" in
  let x3 = Model.add_var m ~ub:1. "x3" and x4 = Model.add_var m "x4" in
  Model.add_constr m
    (Lin.of_list [ (0.25, x1); (-60., x2); (-1. /. 25., x3); (9., x4) ])
    Model.Le 0.;
  Model.add_constr m
    (Lin.of_list [ (0.5, x1); (-90., x2); (-1. /. 50., x3); (3., x4) ])
    Model.Le 0.;
  Model.set_objective m Model.Minimize
    (Lin.of_list [ (-0.75, x1); (150., x2); (-0.02, x3); (6., x4) ]);
  let p = Simplex.of_model m in
  let n = p.Simplex.ncols in
  let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
  List.iter
    (fun (pricing, harris, tag) ->
      let r = Simplex.solve ~pricing ~harris p ~lb ~ub in
      Alcotest.check lp_status (tag ^ " status") Status.Lp_optimal r.Simplex.status;
      check_feq (tag ^ " objective") (-0.05) r.Simplex.objective)
    [
      (Simplex.Devex, true, "devex+harris");
      (Simplex.Devex, false, "devex+classic");
      (Simplex.Dantzig, true, "dantzig+harris");
      (Simplex.Dantzig, false, "dantzig+classic");
    ]

(* Bound-flipping ratio test: tightening the upper bound of a basic
   variable forces a dual repair in which cheaper boxed nonbasics must
   flip to their opposite bound.  The warm re-solve must agree with a
   cold solve of the tightened box, with and without the long-step
   test. *)
let test_bound_flip_boxed_lp () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:1. "x" in
  let y = Model.add_var m ~ub:1. "y" in
  let z = Model.add_var m ~ub:1. "z" in
  let w = Model.add_var m ~ub:1. "w" in
  Model.add_constr m (Lin.of_list [ (1., x); (1., y); (1., z); (1., w) ]) Model.Le 2.;
  Model.set_objective m Model.Minimize
    (Lin.of_list [ (-3., x); (-2., y); (-1., z); (-0.5, w) ]);
  let p = Simplex.of_model m in
  let n = p.Simplex.ncols in
  let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
  List.iter
    (fun harris ->
      let tag = if harris then "bfrt" else "classic" in
      let ub = Array.copy ub in
      let r0 = Simplex.solve ~harris p ~lb ~ub in
      Alcotest.check lp_status (tag ^ " cold status") Status.Lp_optimal r0.Simplex.status;
      check_feq (tag ^ " cold objective") (-5.) r0.Simplex.objective;
      let basis =
        match r0.Simplex.basis with
        | Some b -> b
        | None -> Alcotest.fail "optimal cold solve must expose its basis"
      in
      ub.(x) <- 0.25;
      let r1 = Simplex.solve ~harris ~basis p ~lb ~ub in
      Alcotest.check lp_status (tag ^ " warm status") Status.Lp_optimal r1.Simplex.status;
      check_feq (tag ^ " warm objective") (-3.5) r1.Simplex.objective;
      check_feq (tag ^ " warm x") 0.25 r1.Simplex.primal.(x);
      check_feq (tag ^ " warm y") 1. r1.Simplex.primal.(y);
      check_feq (tag ^ " warm z") 0.75 r1.Simplex.primal.(z);
      let cold = Simplex.solve ~harris p ~lb ~ub in
      check_feq (tag ^ " warm = cold") cold.Simplex.objective r1.Simplex.objective)
    [ true; false ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "milp"
    [
      ( "lin",
        [
          Alcotest.test_case "merge and drop zeros" `Quick test_lin_basic;
          Alcotest.test_case "add/scale" `Quick test_lin_add_scale;
          Alcotest.test_case "eval" `Quick test_lin_eval;
          Alcotest.test_case "sub/neg" `Quick test_lin_sub_neg;
          Alcotest.test_case "infix" `Quick test_lin_infix;
          Alcotest.test_case "term order" `Quick test_lin_iter_order;
          qt prop_lin_add_commutative;
          qt prop_lin_eval_linear;
        ] );
      ( "model",
        [
          Alcotest.test_case "variables" `Quick test_model_vars;
          Alcotest.test_case "bad bounds" `Quick test_model_bad_bounds;
          Alcotest.test_case "constant folding" `Quick test_model_constr_folds_constant;
          Alcotest.test_case "check_feasible" `Quick test_model_check_feasible;
          Alcotest.test_case "add_range" `Quick test_model_add_range;
          qt prop_model_rows_round_trip;
          Alcotest.test_case "packed storage round trip" `Quick test_model_packed_round_trip;
          Alcotest.test_case "packed vectors widen" `Quick test_vec_uint_widths;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_simplex_textbook;
          Alcotest.test_case "equality + >=" `Quick test_simplex_equality_and_ge;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative bounds" `Quick test_simplex_negative_lb;
          Alcotest.test_case "free variable" `Quick test_simplex_free_variable;
          Alcotest.test_case "free unbounded below" `Quick test_simplex_free_unbounded_below;
          Alcotest.test_case "degenerate vertex" `Quick test_simplex_degenerate;
          Alcotest.test_case "fixed variables" `Quick test_simplex_fixed_vars;
          Alcotest.test_case "negative equality rhs" `Quick test_simplex_equality_negative_rhs;
          qt prop_simplex_sound;
        ] );
      ( "warm_start",
        [
          Alcotest.test_case "textbook re-solve" `Quick test_warm_restart_textbook;
          Alcotest.test_case "detects infeasible child" `Quick test_warm_detects_infeasible;
          Alcotest.test_case "optimal restore refreshes once" `Quick
            test_warm_optimal_refreshes_once;
          Alcotest.test_case "a pivot forces the optimality refresh" `Quick
            test_warm_pivot_refreshes_again;
          qt prop_warm_matches_cold;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "singleton row to bound" `Quick test_presolve_singleton_bound;
          Alcotest.test_case "integer rounding" `Quick test_presolve_integer_rounding;
          Alcotest.test_case "detects infeasibility" `Quick test_presolve_detects_infeasible;
          Alcotest.test_case "chain propagation" `Quick test_presolve_chain_propagation;
          Alcotest.test_case "coefficient strengthening" `Quick test_presolve_strengthen_clique;
          Alcotest.test_case "strengthening on >= rows" `Quick test_presolve_strengthen_ge_row;
          qt test_presolve_no_false_positives;
          qt prop_presolve_strengthen_preserves_integer_points;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "fixture: every elimination + postsolve" `Quick
            test_reduce_postsolve_fixture;
          Alcotest.test_case "ge-row strengthening on a wide box" `Quick
            test_strengthen_ge_wide_box;
          Alcotest.test_case "cuts lift/restrict through postsolve" `Quick
            test_cuts_lift_restrict;
          qt prop_reduce_roundtrip_lp;
          qt prop_reduce_roundtrip_routing_milp;
        ] );
      ( "cuts",
        [
          Alcotest.test_case "cover cut on a knapsack" `Quick test_cover_cut_knapsack;
          Alcotest.test_case "append_row grows a warm basis" `Quick
            test_append_row_grows_basis;
          qt prop_cuts_never_cut_integer_points;
          qt prop_bb_cuts_invariant;
        ] );
      ( "branch_bound",
        [
          Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
          Alcotest.test_case "integer minimization" `Quick test_bb_integer_min;
          Alcotest.test_case "infeasible" `Quick test_bb_infeasible;
          Alcotest.test_case "LP-feasible MIP-infeasible" `Quick test_bb_lp_feasible_mip_infeasible;
          Alcotest.test_case "exactly-one rows" `Quick test_bb_equality_partition;
          Alcotest.test_case "pure bounds" `Quick test_bb_respects_bound;
          Alcotest.test_case "cutoff prunes" `Quick test_bb_cutoff_prunes;
          Alcotest.test_case "cutoff minimize" `Quick test_bb_cutoff_minimize;
          Alcotest.test_case "workers match sequential" `Quick test_bb_workers_match_sequential;
          Alcotest.test_case "cutoff under workers" `Quick test_bb_workers_cutoff;
          Alcotest.test_case "node limit under workers" `Quick test_bb_workers_node_limit;
          Alcotest.test_case "root bounds without cuts" `Quick test_bb_root_bounds_without_cuts;
          qt prop_bb_matches_brute_force;
          qt prop_bb_solution_is_feasible;
          qt prop_bb_warm_start_invariant;
        ] );
      ( "lp_format",
        [
          Alcotest.test_case "sections and sanitization" `Quick test_lp_format_sections;
          Alcotest.test_case "free variables" `Quick test_lp_format_free_and_inf;
          Alcotest.test_case "fixed model output" `Quick test_lp_format_fixed_output;
          Alcotest.test_case "reader: simple" `Quick test_lp_reader_simple;
          Alcotest.test_case "reader: features" `Quick test_lp_reader_features;
          Alcotest.test_case "reader: errors" `Quick test_lp_reader_errors;
          qt prop_lp_roundtrip;
          qt prop_lp_structural_roundtrip;
        ] );
      ( "containers",
        [
          qt prop_pqueue_sorted;
          Alcotest.test_case "pqueue empty" `Quick test_pqueue_empty;
          qt prop_vec_roundtrip;
          Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
          qt prop_vec_str_roundtrip;
          qt prop_vec_varints_roundtrip;
          qt prop_vec_float_roundtrip;
          Alcotest.test_case "vec.float clear and bounds" `Quick test_vec_float_clear_and_bounds;
        ] );
      ( "lu",
        [
          Alcotest.test_case "singular and near-singular rejects" `Quick
            test_lu_rejects_singular;
          Alcotest.test_case "append_rows keeps basic values bit-identical" `Quick
            test_append_rows_bit_identical;
          qt prop_lu_matches_dense_reference;
          qt prop_lu_eta_update_matches_dense;
          qt prop_lu_simplex_like_matches_dense;
          Alcotest.test_case "factorize is bit-identical on a fixed basis family" `Quick
            test_lu_bit_identical_digest;
          Alcotest.test_case "CSC entry point matches the column callback" `Quick
            test_lu_csc_matches_callback;
          Alcotest.test_case "two domains factorize like one" `Quick
            test_lu_domains_match_sequential;
          Alcotest.test_case "scratch serves growing and shrinking bases" `Quick
            test_lu_scratch_grows_and_shrinks;
          Alcotest.test_case "factorize allocates only the factor" `Quick
            test_lu_factorize_allocates_the_factor;
        ] );
      ( "lu_bits",
        [
          Alcotest.test_case "factorize is bit-identical on bordered bases" `Quick
            (check_lu_family `Bordered 20261018 "9b010baa62ab3d35e2582eda4a6dcb0e");
          Alcotest.test_case "factorize is bit-identical on long columns under singletons" `Quick
            (check_lu_family `Long 20261019 "677dc8d4e3a9cbf0713ee562e1ae3f3f");
          Alcotest.test_case "factorize is bit-identical at the drop tolerance" `Quick
            (check_lu_family `Tiny 20261020 "33ff876f9899afcbdd42ce32044c1503");
          Alcotest.test_case "factorize is bit-identical on wide columns over slacks" `Quick
            (check_lu_digest ~count:60 wide_basis 20261021 "92fd40b186b01431eb62f9624bbfabf1");
        ] );
      ( "lu_update",
        [
          Alcotest.test_case "update sequences match the dense inverse" `Quick
            test_lu_update_sequences_match_dense;
          Alcotest.test_case "handles reopened from one snapshot are isolated" `Quick
            test_lu_update_snapshot_isolation;
          Alcotest.test_case "extend_rows on an updated factor keeps old bits" `Quick
            test_lu_update_extend_rows;
          Alcotest.test_case "replace needs a kept spike" `Quick test_lu_replace_needs_a_spike;
        ] );
      ( "equivalence",
        [
          qt prop_lu_btran2_bit_identical;
          Alcotest.test_case "btran2 books two BTRAN calls" `Quick test_lu_btran2_stats;
          Alcotest.test_case "node propagation matches the reference engine" `Quick
            test_propagation_matches_reference;
          Alcotest.test_case "node propagation allocates no per-row results" `Quick
            test_propagation_allocation;
        ] );
      ( "kernel2",
        [
          qt prop_pricing_lp_parity;
          qt prop_ratio_test_lp_parity;
          qt prop_pricing_bb_parity;
          qt prop_harris_bb_parity;
          Alcotest.test_case "beale degeneracy terminates via bland" `Quick
            test_degenerate_stall_bland;
          Alcotest.test_case "bound-flipping dual ratio test" `Quick test_bound_flip_boxed_lp;
        ] );
    ]
