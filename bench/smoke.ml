(* CI smoke test for the solver's ablatable machinery: solve one tiny
   data-collection scenario with (a) everything on, (b) warm starts off,
   (c) cuts and reduced-cost fixing off, (d) the presolve reduction
   stack off, all to a tight gap, and fail (exit 1) if any final
   objective or status diverges.  Accepts
   `--workers N` to run every variant with N worker domains (the CI
   parallel job uses 4), `--pricing devex`/`--pricing dantzig` and `--no-harris` to
   pin the simplex pricing/ratio-test combination (the CI ablation step
   runs `--pricing dantzig --no-harris`), `--no-presolve` to run every
   variant on the unreduced model (the CI presolve step), and
   `--alloc-guard W` to fail if the default-variant solve allocates
   more than W words — the allocation-regression guard for the
   workspace/unboxed kernel; the default variant presolves, so the
   budget covers the reduction stack too.
   Wired to `dune build @bench-smoke`. *)

open Archex

let workers =
  let rec find = function
    | "--workers" :: n :: _ -> ( match int_of_string_opt n with Some v when v >= 1 -> v | _ -> 1)
    | _ :: rest -> find rest
    | [] -> 1
  in
  find (Array.to_list Sys.argv)

let pricing =
  let rec find = function
    | "--pricing" :: "dantzig" :: _ -> Milp.Simplex.Dantzig
    | "--pricing" :: "devex" :: _ -> Milp.Simplex.Devex
    | _ :: rest -> find rest
    | [] -> Milp.Simplex.Devex
  in
  find (Array.to_list Sys.argv)

let harris = not (Array.exists (String.equal "--no-harris") Sys.argv)
let presolve = not (Array.exists (String.equal "--no-presolve") Sys.argv)

(* [Some budget] when --alloc-guard W was given: the default variant
   must allocate at most W words (minor + major - promoted). *)
let alloc_guard =
  let rec find = function
    | "--alloc-guard" :: w :: _ -> float_of_string_opt w
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* Flush the minor heap first: OCaml 5's [Gc.quick_stat] only counts
   minor words up to the last minor collection, so an unflushed reading
   moves with where collections happen to fall, not with what the solve
   allocates. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let () =
  match Scenarios.scaled_data_collection ~total_nodes:14 ~end_devices:4 () with
  | Error e ->
      prerr_endline ("bench-smoke: scenario error: " ^ e);
      exit 1
  | Ok inst -> (
      let run ?(presolve = presolve) ~warm_start ~cuts ~rc_fixing () =
        let config =
          Solver_config.(
            default
            |> with_approx ~kstar:4 ()
            |> with_time_limit 60. |> with_rel_gap 1e-6
            |> with_options (fun o ->
                   {
                     o with
                     warm_start;
                     cut_families = (if cuts then o.cut_families else []);
                     rc_fixing;
                     pricing;
                     harris;
                     presolve;
                     nworkers = workers;
                   }))
        in
        Solve.run config inst
      in
      let a0 = alloc_words () in
      let warm = run ~warm_start:true ~cuts:true ~rc_fixing:true () in
      let default_alloc = alloc_words () -. a0 in
      match
        ( warm,
          run ~warm_start:false ~cuts:true ~rc_fixing:true (),
          run ~warm_start:true ~cuts:false ~rc_fixing:false (),
          run ~presolve:false ~warm_start:true ~cuts:true ~rc_fixing:true () )
      with
      | Ok warm, Ok cold, Ok plain, Ok unreduced ->
          let w = warm.Outcome.mip
          and c = cold.Outcome.mip
          and p = plain.Outcome.mip
          and u = unreduced.Outcome.mip in
          let ow = w.Milp.Branch_bound.objective
          and oc = c.Milp.Branch_bound.objective
          and op = p.Milp.Branch_bound.objective
          and ou = u.Milp.Branch_bound.objective in
          let sw = Milp.Status.mip_status_to_string warm.Outcome.status in
          let sc = Milp.Status.mip_status_to_string cold.Outcome.status in
          let sp = Milp.Status.mip_status_to_string plain.Outcome.status in
          let su = Milp.Status.mip_status_to_string unreduced.Outcome.status in
          Printf.printf
            "bench-smoke (workers=%d, %s%s%s): warm %s obj=%g (%d LP iters, \
             %d/%d/%d warm/cold/fallback, %d cuts, %d rc-fixed, -%d rows -%d cols, %.3g \
             Mw alloc) | cold %s obj=%g (%d LP iters) | no-cuts %s obj=%g (%d nodes vs \
             %d) | no-presolve %s obj=%g\n"
            workers
            (match pricing with Milp.Simplex.Devex -> "devex" | Milp.Simplex.Dantzig -> "dantzig")
            (if harris then "+harris" else "+classic")
            (if presolve then "" else ", no-presolve")
            sw ow w.Milp.Branch_bound.lp_iterations w.Milp.Branch_bound.lp_warm
            w.Milp.Branch_bound.lp_cold w.Milp.Branch_bound.lp_fallback
            w.Milp.Branch_bound.cuts_applied w.Milp.Branch_bound.rc_fixed
            w.Milp.Branch_bound.presolve_rows_removed w.Milp.Branch_bound.presolve_cols_removed
            (default_alloc /. 1e6) sc oc c.Milp.Branch_bound.lp_iterations sp op
            p.Milp.Branch_bound.nodes w.Milp.Branch_bound.nodes su ou;
          let fail = ref false in
          let check name s o =
            if s <> sw then begin
              Printf.eprintf "bench-smoke: status diverged: default=%s %s=%s\n" sw name s;
              fail := true
            end;
            if Float.abs (o -. ow) > 1e-5 *. Float.max 1. (Float.abs ow) then begin
              Printf.eprintf "bench-smoke: objective diverged: default=%.9g %s=%.9g\n" ow name o;
              fail := true
            end
          in
          check "cold-start" sc oc;
          check "no-cuts" sp op;
          check "no-presolve" su ou;
          (match alloc_guard with
          | Some budget when default_alloc > budget ->
              Printf.eprintf
                "bench-smoke: allocation regression: default variant allocated %.0f words \
                 (> committed threshold %.0f)\n"
                default_alloc budget;
              fail := true
          | Some budget ->
              Printf.printf "bench-smoke: alloc guard ok: %.0f words <= %.0f\n" default_alloc
                budget
          | None -> ());
          if !fail then exit 1
      | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e ->
          prerr_endline ("bench-smoke: encode error: " ^ e);
          exit 1)
