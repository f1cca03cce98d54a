module BB = Milp.Branch_bound
module Model = Milp.Model
module Clock = Milp.Clock

type enc = {
  e_ctx : Encode_common.t;
  e_routes : Approx_encoding.route_state list;
}

type t = {
  s_inst : Instance.t;
  mutable s_config : Solver_config.t;
  s_loc_kstar : int;
  s_gen : Path_gen.state;
  mutable s_generation : Path_gen.result option;
  mutable s_enc : enc option;
  mutable s_kstar : int;
  mutable s_pool_total : int;
  (* Carry across steps: the last incumbent in model-variable space
     with its objective, and the solver's cut carry-out. *)
  mutable s_carry : (float array * float) option;
  mutable s_carry_cuts : Milp.Cuts.cut list;
  (* One simplex workspace for the whole session: LP buffers and the CSC
     image survive across sweep steps. *)
  s_ws : Milp.Simplex.workspace;
  (* Encode work done since the last solve, reported by that solve. *)
  mutable s_pending_encode_s : float;
  mutable s_pending_delta : int;
}

let config t = t.s_config

(* Per-request reconfiguration of a warm session (the daemon's cache
   hands the same session to successive requests with different time
   limits, gaps, interrupt flags and streaming hooks).  Only knobs that
   leave the carried state valid may change: the encoding strategy
   kind and localization depth are structural, so a mismatch is a
   caller bug. *)
let reconfigure t config =
  (match Solver_config.loc_kstar config with
  | Some l when l = t.s_loc_kstar -> ()
  | Some _ -> invalid_arg "Session.reconfigure: loc_kstar cannot change mid-session"
  | None -> invalid_arg "Session.reconfigure: sessions need the approximate strategy");
  t.s_config <- config

let start (config : Solver_config.t) inst =
  let loc_kstar =
    match Solver_config.loc_kstar config with
    | Some l -> l
    | None ->
        invalid_arg "Session.start: sessions need the approximate strategy (Approx)"
  in
  {
    s_inst = inst;
    s_config = config;
    s_loc_kstar = loc_kstar;
    s_gen = Path_gen.init inst;
    s_generation = None;
    s_enc = None;
    s_kstar = 0;
    s_pool_total = 0;
    s_carry = None;
    s_carry_cuts = [];
    s_ws = Milp.Simplex.create_workspace ();
    s_pending_encode_s = 0.;
    s_pending_delta = 0;
  }

let pool_total (generation : Path_gen.result) =
  List.fold_left
    (fun acc (p : Path_gen.route_pool) -> acc + List.length p.Path_gen.pool)
    0 generation.Path_gen.pools

(* Fresh encode of the cumulative pools — the session's first step. *)
let build_fresh t (generation : Path_gen.result) =
  let ctx = Encode_common.create t.s_inst in
  let routes =
    List.map
      (fun (p : Path_gen.route_pool) ->
        let rs = Approx_encoding.init_route p in
        Approx_encoding.grow_route ctx rs p.Path_gen.pool;
        rs)
      generation.Path_gen.pools
  in
  Encode_common.set_localization_candidates ctx
    (Path_gen.localization_candidates t.s_inst ~kstar:t.s_loc_kstar);
  Encode_common.finalize ctx;
  t.s_enc <- Some { e_ctx = ctx; e_routes = routes }

let grow t ~kstar =
  match Path_gen.extend t.s_gen ~kstar with
  | Error e -> Error e
  | Ok generation ->
      let t0 = Clock.now () in
      t.s_generation <- Some generation;
      t.s_kstar <- kstar;
      (match t.s_enc with
      | Some enc ->
          (* Delta encode into the live model: new selector columns and
             rows only, staged usage flushed once at the end. *)
          List.iter2
            (fun rs (p : Path_gen.route_pool) ->
              Approx_encoding.grow_route enc.e_ctx rs p.Path_gen.pool)
            enc.e_routes generation.Path_gen.pools;
          Encode_common.flush_usage enc.e_ctx
      | None -> build_fresh t generation);
      let total = pool_total generation in
      t.s_pending_delta <- t.s_pending_delta + (total - t.s_pool_total);
      t.s_pool_total <- total;
      t.s_pending_encode_s <- t.s_pending_encode_s +. (Clock.now () -. t0);
      Ok ()

let create (config : Solver_config.t) inst =
  let kstar =
    match Solver_config.kstar config with
    | Some k -> k
    | None ->
        invalid_arg "Session.create: sessions need the approximate strategy (Approx)"
  in
  let t = start config inst in
  match grow t ~kstar with Ok () -> Ok t | Error e -> Error e

let solve t =
  match t.s_enc with
  | None -> invalid_arg "Session.solve: grow the session successfully first"
  | Some enc ->
      let options = Solver_config.bb_options t.s_config in
      let model = Encode_common.model enc.e_ctx in
      let direction = Model.direction model in
      (* Primal matheuristic: on the first solve (no carried incumbent
         yet) run the tabu search and adopt its best solution as a warm
         incumbent + cutoff.  The tree search keeps the optimality
         proof; the heuristic only accelerates the primal side. *)
      let heur, heuristic_time_s =
        if
          t.s_carry <> None
          || t.s_config.Solver_config.heuristic.Solver_config.h_mode
             = Solver_config.H_off
        then (None, 0.)
        else begin
          let t_h0 = Clock.now () in
          let heur =
            Matheuristic.attempt t.s_config.Solver_config.heuristic enc.e_ctx
              (List.map Approx_encoding.selection_of enc.e_routes)
          in
          (heur, Clock.now () -. t_h0)
        end
      in
      (match heur with
      | Some { Matheuristic.mh_warm = Some (hx, hobj); _ } ->
          (match t.s_config.Solver_config.on_incumbent with
          | Some f ->
              f hobj (match direction with Model.Minimize -> neg_infinity | Model.Maximize -> infinity)
          | None -> ());
          t.s_carry <- Some (Array.copy hx, hobj)
      | _ -> ());
      let warm, cutoff =
        match t.s_carry with
        | None -> (None, options.BB.cutoff)
        | Some (x, obj) ->
            (* Zero-extend the previous incumbent over any new
               selector/auxiliary columns: old one-path/rank rows keep
               their values and the new candidates simply stay
               unselected, so the point remains feasible with the same
               objective (Branch_bound re-validates it anyway). *)
            let n = Model.nvars model in
            let x' = Array.make n 0. in
            Array.blit x 0 x' 0 (Int.min n (Array.length x));
            let cutoff =
              if Float.is_nan options.BB.cutoff then obj
              else
                match direction with
                | Model.Minimize -> Float.min options.BB.cutoff obj
                | Model.Maximize -> Float.max options.BB.cutoff obj
            in
            (Some x', cutoff)
      in
      let options = { options with BB.cutoff } in
      (* The outcome keeps the model: hand it over without growth slack. *)
      Model.compact model;
      let t1 = Clock.now () in
      let mip =
        BB.solve ~options ~seed_cuts:t.s_carry_cuts
          ~separators:(Struct_cuts.separators enc.e_ctx)
          ?warm_solution:warm ~ws:t.s_ws
          ?interrupt:t.s_config.Solver_config.interrupt
          ?on_incumbent:t.s_config.Solver_config.on_incumbent
          ?scheduler:t.s_config.Solver_config.scheduler model
      in
      (* The carry-out cuts stay in the session for its next solve; the
         outcome goes without them, so a kept outcome does not hold the
         cut pool alive. *)
      t.s_carry_cuts <- mip.BB.carry_cuts;
      let mip = { mip with BB.carry_cuts = [] } in
      let t2 = Clock.now () in
      let solution =
        match mip.BB.solution with
        | None -> None
        | Some _ ->
            let approx =
              {
                Approx_encoding.ctx = enc.e_ctx;
                selections = List.map Approx_encoding.selection_of enc.e_routes;
                generation = Option.get t.s_generation;
              }
            in
            Some (Solution.of_approx approx mip)
      in
      let t3 = Clock.now () in
      (match mip.BB.solution with
      | Some x -> t.s_carry <- Some (Array.copy x, mip.BB.objective)
      | None -> ());
      (* A previous carry stays valid even when this solve found
         nothing: the model only grew and the vector re-validates. *)
      let outcome =
        {
          Outcome.solution;
          status = mip.BB.status;
          mip;
          model;
          stats =
            {
              Outcome.nvars = Model.nvars model;
              nconstrs = Model.nconstrs model;
              encode_time_s = t.s_pending_encode_s;
              solve_time_s = t2 -. t1;
              extract_time_s = t3 -. t2;
              kstar = t.s_kstar;
              delta_paths = t.s_pending_delta;
              pool_size = t.s_pool_total;
              workers = options.BB.nworkers;
              heuristic_time_s;
            };
        }
      in
      t.s_pending_encode_s <- 0.;
      t.s_pending_delta <- 0;
      outcome
