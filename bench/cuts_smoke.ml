(* CI smoke test for the per-family cut separation machinery: solve one
   small Table-1-style data-collection scenario and one generated
   tactical scenario under every single-family restriction (--cuts
   gmi|cover|clique|power), plus all-on and all-off, to a
   tight gap, and fail (exit 1) if any final objective or status
   diverges from the all-on run — separation may only change the route
   to the optimum, never the optimum.  Also fails if the all-on run
   applies no cuts at all (the machinery must actually be exercised).
   Prints per-family separated/applied counts so a family that silently
   stops firing shows up in the CI log.
   Wired to `dune build @cuts-smoke`. *)

open Archex

let families_under_test = Milp.Cuts.all_families

let run_config fams inst =
  let cfg =
    Solver_config.(
      default
      |> with_approx ~kstar:4 ()
      |> with_time_limit 60. |> with_rel_gap 1e-6
      |> with_options (fun o -> { o with cut_families = fams }))
  in
  Solve.run cfg inst

let check_scenario name inst =
  let fail = ref false in
  (match run_config Milp.Cuts.all_families inst with
  | Error e ->
      Printf.eprintf "cuts-smoke: %s: encode error: %s\n" name e;
      fail := true
  | Ok base ->
      let b = base.Outcome.mip in
      let ob = b.Milp.Branch_bound.objective in
      let sb = Milp.Status.mip_status_to_string base.Outcome.status in
      Printf.printf "cuts-smoke: %s: all %s obj=%g (%d separated, %d applied, %d nodes)\n"
        name sb ob b.Milp.Branch_bound.cuts_separated b.Milp.Branch_bound.cuts_applied
        b.Milp.Branch_bound.nodes;
      if b.Milp.Branch_bound.cuts_applied = 0 then begin
        Printf.eprintf "cuts-smoke: %s: the all-on run applied no cuts\n" name;
        fail := true
      end;
      List.iter
        (fun fams ->
          let label = Milp.Cuts.families_to_string fams in
          match run_config fams inst with
          | Error e ->
              Printf.eprintf "cuts-smoke: %s/%s: encode error: %s\n" name label e;
              fail := true
          | Ok out ->
              let m = out.Outcome.mip in
              let o = m.Milp.Branch_bound.objective in
              let s = Milp.Status.mip_status_to_string out.Outcome.status in
              Printf.printf
                "cuts-smoke: %s: %-8s %s obj=%g (%d separated, %d applied, %d nodes)\n"
                name label s o m.Milp.Branch_bound.cuts_separated
                m.Milp.Branch_bound.cuts_applied m.Milp.Branch_bound.nodes;
              if s <> sb then begin
                Printf.eprintf "cuts-smoke: %s/%s: status diverged: all=%s got=%s\n"
                  name label sb s;
                fail := true
              end;
              if Float.abs (o -. ob) > 1e-5 *. Float.max 1. (Float.abs ob) then begin
                Printf.eprintf
                  "cuts-smoke: %s/%s: objective diverged: all=%.9g got=%.9g\n" name
                  label ob o;
                fail := true
              end)
        ([] :: List.map (fun f -> [ f ]) families_under_test));
  !fail

let () =
  let table1ish =
    match Scenarios.scaled_data_collection ~total_nodes:14 ~end_devices:4 () with
    | Ok inst -> inst
    | Error e ->
        prerr_endline ("cuts-smoke: scenario error: " ^ e);
        exit 1
  in
  let tac =
    match
      (* Dollar objective: the energy tac-* trees need minutes per
         config even at toy sizes, and a smoke comparison on timeout
         incumbents would flag phantom divergences.  The dollar tree
         proves in seconds and still drives every separator. *)
      Scenario_gen.build
        (Scenario_gen.city_block ~blocks_x:2 ~blocks_y:2 ~sensors:3
           ~relay_grid:(4, 3) ~objective:Scenario_gen.O_dollar
           ~min_lifetime_years:2. ())
    with
    | Ok inst -> inst
    | Error e ->
        prerr_endline ("cuts-smoke: generator error: " ^ e);
        exit 1
  in
  let f1 = check_scenario "dc-small" table1ish in
  let f2 = check_scenario "tac-city2-dollar" tac in
  if f1 || f2 then exit 1
