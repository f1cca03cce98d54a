module Clock = Milp.Clock

type strategy = Solver_config.strategy =
  | Full_enum
  | Approx of { kstar : int; loc_kstar : int }

let approx = Solver_config.approx

type encoding = E_full of Full_encoding.t | E_approx of Approx_encoding.t

let ctx_of = function
  | E_full e -> e.Full_encoding.ctx
  | E_approx e -> e.Approx_encoding.ctx

let encode inst = function
  | Full_enum -> Ok (E_full (Full_encoding.encode inst))
  | Approx { kstar; loc_kstar } -> (
      match Approx_encoding.encode ~kstar ~loc_kstar inst with
      | Ok e -> Ok (E_approx e)
      | Error e -> Error e)

let encode_size inst strategy =
  match encode inst strategy with
  | Error e -> Error e
  | Ok enc ->
      let m = Encode_common.model (ctx_of enc) in
      Ok (Milp.Model.nvars m, Milp.Model.nconstrs m)

let run (config : Solver_config.t) inst =
  match config.Solver_config.strategy with
  | Approx _ -> (
      (* One-shot wrapper over a single-step session.  A fresh session's
         first step has no carry, so options (cutoff included) pass
         through to the solver untouched. *)
      match Session.create config inst with
      | Error e -> Error e
      | Ok session -> Ok (Session.solve session))
  | Full_enum ->
      let options = Solver_config.bb_options config in
      let t0 = Clock.now () in
      let enc = Full_encoding.encode inst in
      let t1 = Clock.now () in
      let model = Encode_common.model enc.Full_encoding.ctx in
      Milp.Model.compact model;
      let mip =
        Milp.Branch_bound.solve ~options
          ~separators:(Struct_cuts.separators enc.Full_encoding.ctx)
          ?interrupt:config.Solver_config.interrupt
          ?on_incumbent:config.Solver_config.on_incumbent
          ?scheduler:config.Solver_config.scheduler model
      in
      let t2 = Clock.now () in
      let solution =
        match mip.Milp.Branch_bound.solution with
        | None -> None
        | Some _ -> Some (Solution.of_full enc mip)
      in
      let t3 = Clock.now () in
      Ok
        {
          Outcome.solution;
          status = mip.Milp.Branch_bound.status;
          stats =
            {
              Outcome.nvars = Milp.Model.nvars model;
              nconstrs = Milp.Model.nconstrs model;
              encode_time_s = t1 -. t0;
              solve_time_s = t2 -. t1;
              extract_time_s = t3 -. t2;
              kstar = 0;
              delta_paths = 0;
              pool_size = 0;
              workers = options.Milp.Branch_bound.nworkers;
              heuristic_time_s = 0.;
            };
          mip;
          model;
        }

let run_exn config inst =
  match run config inst with
  | Error e -> failwith ("Solve.run_exn: encoding failed: " ^ e)
  | Ok { Outcome.solution = None; status; _ } ->
      failwith
        ("Solve.run_exn: no solution (" ^ Milp.Status.mip_status_to_string status ^ ")")
  | Ok { Outcome.solution = Some s; _ } -> s
