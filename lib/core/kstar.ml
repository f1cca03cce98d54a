type step = { kstar : int; outcome : Outcome.t; objective : float option }

type result = {
  steps : step list;
  best : (int * Solution.t) option;
  stopped_because : [ `Time_threshold | `No_improvement | `Schedule_exhausted ];
}

let default_schedule = [ 1; 3; 5; 10; 20 ]

let search ?(schedule = default_schedule) ?(time_threshold_s = 60.)
    ?(min_improvement = 0.005) (config : Solver_config.t) inst =
  (* One session for the whole sweep: pools, model, incumbent and cut
     pool persist across steps.  Localization pruning is fixed at the
     schedule's widest K* so every step's model is a strict superset of
     the previous one. *)
  let loc_kstar = List.fold_left Int.max 1 schedule in
  let session =
    Session.start (Solver_config.with_approx ~loc_kstar () config) inst
  in
  let steps = ref [] in
  let best = ref None in
  let best_obj = ref None in
  let prev_obj = ref None in
  let stopped = ref `Schedule_exhausted in
  let rec go = function
    | [] -> ()
    | kstar :: rest -> (
        match Session.grow session ~kstar with
        | Error _ ->
            (* Pool generation failed for this K*; try a larger one. *)
            go rest
        | Ok () ->
            let outcome = Session.solve session in
            let direction = Milp.Model.direction outcome.Outcome.model in
            (* [before] is better than [after] by more than [eps]? *)
            let better before after eps =
              match direction with
              | Milp.Model.Minimize -> before < after -. eps
              | Milp.Model.Maximize -> before > after +. eps
            in
            let objective =
              Option.map
                (fun _ -> outcome.Outcome.mip.Milp.Branch_bound.objective)
                outcome.Outcome.solution
            in
            steps := { kstar; outcome; objective } :: !steps;
            (match (outcome.Outcome.solution, objective) with
            | Some sol, Some obj ->
                let is_best =
                  match !best_obj with None -> true | Some b -> better obj b 1e-9
                in
                if is_best then begin
                  best := Some (kstar, sol);
                  best_obj := Some obj
                end
            | _ -> ());
            if outcome.Outcome.stats.Outcome.solve_time_s > time_threshold_s then
              stopped := `Time_threshold
            else begin
              match objective with
              | None ->
                  (* An infeasible/unsolved step neither improves nor
                     stalls: keep prev_obj and walk on. *)
                  go rest
              | Some now ->
                  let improved =
                    match !prev_obj with
                    | None -> true
                    | Some before ->
                        better now before
                          (min_improvement *. Float.max 1e-9 (Float.abs before))
                  in
                  prev_obj := Some now;
                  if improved then go rest else stopped := `No_improvement
            end)
  in
  go schedule;
  { steps = List.rev !steps; best = !best; stopped_because = !stopped }
