(* Command-line front-end, mirroring the paper's tool inputs: a problem
   description (pattern spec), a component library (text format) and a
   floor plan (SVG).  Compiles everything into a MILP, solves it with
   the chosen path-encoding strategy, reports the synthesized
   architecture, and optionally emits a result SVG and the LP file. *)

let role_of_class cls =
  (* Circle classes in the floor-plan SVG: "sensor", "relay", "sink",
     "anchor" place template nodes; "eval" marks evaluation points. *)
  Components.Component.role_of_name cls

let template_of_svg (parsed : Geometry.Svg.parsed) =
  let counters = Hashtbl.create 4 in
  let next role =
    let c = Option.value ~default:0 (Hashtbl.find_opt counters role) in
    Hashtbl.replace counters role (c + 1);
    c
  in
  let nodes, evals =
    List.fold_left
      (fun (nodes, evals) (cls, loc) ->
        if String.lowercase_ascii cls = "eval" then (nodes, loc :: evals)
        else
          match role_of_class cls with
          | Some role ->
              let name =
                Printf.sprintf "%s%d" (Components.Component.role_name role) (next cls)
              in
              let fixed =
                match role with
                | Components.Component.Sensor | Components.Component.Sink -> true
                | Components.Component.Relay | Components.Component.Anchor -> false
              in
              ({ Archex.Template.name; role; loc; fixed } :: nodes, evals)
          | None -> (nodes, evals))
      ([], []) parsed.Geometry.Svg.nodes
  in
  (Archex.Template.create (List.rev nodes), Array.of_list (List.rev evals))

let get_setting settings key =
  List.assoc_opt key settings

let num_setting settings key default =
  match get_setting settings key with
  | Some (Spec.Ast.Num f) -> f
  | Some _ | None -> default

let main spec_file library_file plan_file kstar loc_kstar full time_limit gap sweep
    cold_start pricing no_harris cuts cut_max_applied cut_max_age cut_pool_size
    cut_min_violation no_rc_fixing no_presolve presolve_passes heuristic tabu_iters
    tabu_time tabu_tenure tabu_seed workers seed out_svg out_lp verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  (* Ctrl-C / SIGTERM interrupt the search cooperatively: the solver
     notices the flag at its node boundary and returns the best
     incumbent and bound it has instead of dying mid-tree. *)
  let interrupt = Atomic.make false in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set interrupt true))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  let ( let* ) = Result.bind in
  let result =
    (* Every engine knob goes through [with_options]'s range checks
       here, before any input is read; the strategy (which the spec's
       settings may adjust) is set once the spec is elaborated. *)
    let* config =
      let open Archex.Solver_config in
      match
        default |> with_time_limit time_limit |> with_rel_gap gap
        |> with_options (fun o ->
               let ( |? ) v d = Option.value v ~default:d in
               {
                 o with
                 warm_start = not cold_start;
                 cut_families = cuts |? o.cut_families;
                 max_applied_cuts = cut_max_applied |? o.max_applied_cuts;
                 cut_max_age = cut_max_age |? o.cut_max_age;
                 cut_pool_size = cut_pool_size |? o.cut_pool_size;
                 cut_min_violation = cut_min_violation |? o.cut_min_violation;
                 rc_fixing = not no_rc_fixing;
                 pricing;
                 harris = not no_harris;
                 presolve = not no_presolve;
                 presolve_passes = presolve_passes |? o.presolve_passes;
                 log = verbose;
                 nworkers = workers;
                 seed;
               })
        |> (if heuristic then
              with_heuristic
                (tabu ~iters:tabu_iters ~time_s:tabu_time ~tenure:tabu_tenure ~seed:tabu_seed ())
            else Fun.id)
        |> with_interrupt interrupt
      with
      | config -> Ok config
      | exception Invalid_argument e -> Error e
    in
    let* ast = Spec.Parser.parse_file spec_file in
    let* library =
      match library_file with
      | Some f -> Components.Parser.parse_file f
      | None -> Ok Components.Library.builtin
    in
    let* parsed = Geometry.Svg.parse_file plan_file in
    let template, evals = template_of_svg parsed in
    if Archex.Template.nnodes template = 0 then Error "floor plan contains no nodes"
    else
      let* elab =
        Spec.Elaborate.elaborate
          ~eval_points:(if Array.length evals = 0 then [||] else evals)
          ~template ast
      in
      let settings = elab.Spec.Elaborate.settings in
      let modulation =
        match get_setting settings "modulation" with
        | Some (Spec.Ast.Ident m) | Some (Spec.Ast.Str m) ->
            Option.value ~default:Radio.Modulation.Qpsk (Radio.Modulation.of_name m)
        | Some (Spec.Ast.Num _) | None -> Radio.Modulation.Qpsk
      in
      let protocol =
        Energy.Tdma.make
          ~slots_per_frame:(int_of_float (num_setting settings "slots_per_frame" 16.))
          ~slot_s:(num_setting settings "slot_ms" 1. /. 1000.)
          ~packet_bytes:(int_of_float (num_setting settings "packet_bytes" 50.))
          ~report_period_s:(num_setting settings "report_period_s" 30.)
          ()
      in
      let battery =
        {
          Energy.Lifetime.voltage_v = num_setting settings "battery_v" 3.0;
          capacity_mah = num_setting settings "battery_mah" 1500.;
        }
      in
      let* inst =
        Archex.Instance.create
          ~noise_dbm:(num_setting settings "noise_dbm" (-100.))
          ~modulation ~protocol ~battery ~template ~library
          ~channel:(Radio.Channel.multi_wall_2_4ghz parsed.Geometry.Svg.plan)
          ~requirements:elab.Spec.Elaborate.requirements
          ~objective:elab.Spec.Elaborate.objective ()
      in
      (* The spec's settings override the --kstar/--loc-kstar defaults. *)
      let strategy =
        if full then Archex.Solver_config.Full_enum
        else
          Archex.Solver_config.Approx
            {
              kstar = int_of_float (num_setting settings "kstar" (float_of_int kstar));
              loc_kstar = int_of_float (num_setting settings "loc_kstar" (float_of_int loc_kstar));
            }
      in
      let config = Archex.Solver_config.with_strategy strategy config in
      let* out =
        if sweep then begin
          let r = Archex.Kstar.search config inst in
          List.iter
            (fun (st : Archex.Kstar.step) ->
              Format.printf "sweep k*=%d: %s obj=%s encode=%.2fs solve=%.2fs extract=%.2fs@."
                st.Archex.Kstar.kstar
                (Milp.Status.mip_status_to_string st.Archex.Kstar.outcome.Archex.Outcome.status)
                (match st.Archex.Kstar.objective with
                | Some o -> Printf.sprintf "%.6g" o
                | None -> "-")
                st.Archex.Kstar.outcome.Archex.Outcome.stats.Archex.Outcome.encode_time_s
                st.Archex.Kstar.outcome.Archex.Outcome.stats.Archex.Outcome.solve_time_s
                st.Archex.Kstar.outcome.Archex.Outcome.stats.Archex.Outcome.extract_time_s)
            r.Archex.Kstar.steps;
          Format.printf "sweep stopped: %s@."
            (match r.Archex.Kstar.stopped_because with
            | `Time_threshold -> "time threshold"
            | `No_improvement -> "no improvement"
            | `Schedule_exhausted -> "schedule exhausted");
          let step_for k =
            List.find_opt (fun st -> st.Archex.Kstar.kstar = k) r.Archex.Kstar.steps
          in
          match r.Archex.Kstar.best with
          | Some (k, _) -> (
              match step_for k with
              | Some st -> Ok st.Archex.Kstar.outcome
              | None -> Error "sweep: best step missing")
          | None -> (
              match List.rev r.Archex.Kstar.steps with
              | st :: _ -> Ok st.Archex.Kstar.outcome
              | [] -> Error "sweep: no schedule step produced a model")
        end
        else Archex.Solve.run config inst
      in
      Ok (inst, out)
  in
  match result with
  | Error e ->
      Format.eprintf "error: %s@." e;
      1
  | Ok (inst, out) -> (
      if Atomic.get interrupt then
        Format.printf "interrupted: best incumbent %s, bound %.6g@."
          (match out.Archex.Outcome.solution with
          | Some _ ->
              Printf.sprintf "%.6g" out.Archex.Outcome.mip.Milp.Branch_bound.objective
          | None -> "-")
          out.Archex.Outcome.mip.Milp.Branch_bound.bound;
      Format.printf "encoding: %d variables, %d constraints (%.2f s)@."
        out.Archex.Outcome.stats.Archex.Outcome.nvars out.Archex.Outcome.stats.Archex.Outcome.nconstrs
        out.Archex.Outcome.stats.Archex.Outcome.encode_time_s;
      Format.printf "solve: %s in %.2f s (%d nodes, %d simplex iterations)@."
        (Milp.Status.mip_status_to_string out.Archex.Outcome.status)
        out.Archex.Outcome.stats.Archex.Outcome.solve_time_s
        out.Archex.Outcome.mip.Milp.Branch_bound.nodes
        out.Archex.Outcome.mip.Milp.Branch_bound.lp_iterations;
      Format.printf "extract: %.2f s@." out.Archex.Outcome.stats.Archex.Outcome.extract_time_s;
      (match out_lp with
      | Some path ->
          Milp.Lp_format.to_file path out.Archex.Outcome.model;
          Format.printf "LP model written to %s@." path
      | None -> ());
      match out.Archex.Outcome.solution with
      | None ->
          Format.printf "no solution found@.";
          2
      | Some sol ->
          Format.printf "@.%a@." (Archex.Solution.pp_summary inst) sol;
          Format.printf "@.Component mapping:@.";
          Array.iter
            (fun (i, c) ->
              Format.printf "  %-10s -> %s@."
                (Archex.Template.node inst.Archex.Instance.template i).Archex.Template.name
                c.Components.Component.name)
            sol.Archex.Solution.devices;
          Format.printf "@.Routes:@.";
          Array.iter
            (fun rr ->
              Format.printf "  %d.%d: %a@." rr.Archex.Solution.rr_req
                rr.Archex.Solution.rr_replica Netgraph.Path.pp rr.Archex.Solution.rr_path)
            sol.Archex.Solution.routes;
          (match Archex.Solution.check inst sol with
          | Ok () -> Format.printf "@.validation: all requirements hold@."
          | Error errs ->
              Format.printf "@.validation FAILED:@.";
              List.iter (Format.printf "  %s@.") errs);
          (match out_svg with
          | Some path ->
              let template = inst.Archex.Instance.template in
              let plan =
                Radio.Channel.floorplan inst.Archex.Instance.channel
              in
              let w = match plan with Some p -> Geometry.Floorplan.width p | None -> 100. in
              let h = match plan with Some p -> Geometry.Floorplan.height p | None -> 100. in
              let sc = Geometry.Svg.scene ~width:w ~height:h in
              Option.iter (Geometry.Svg.add_floorplan sc) plan;
              Array.iter
                (fun (i, j) ->
                  let a = (Archex.Template.node template i).Archex.Template.loc in
                  let b = (Archex.Template.node template j).Archex.Template.loc in
                  Geometry.Svg.add sc
                    (Geometry.Svg.Line
                       ( Geometry.Segment.make a b,
                         {
                           Geometry.Svg.default_style with
                           stroke = "#2266cc";
                           stroke_width = 1.5;
                         } )))
                sol.Archex.Solution.active_edges;
              Array.iteri
                (fun i (n : Archex.Template.node) ->
                  let used = Array.mem i sol.Archex.Solution.used_nodes in
                  let fill =
                    match (n.Archex.Template.role, used) with
                    | Components.Component.Sensor, _ -> "#2a2"
                    | Components.Component.Sink, _ -> "#c22"
                    | _, true -> "#26c"
                    | _, false -> "none"
                  in
                  Geometry.Svg.add sc
                    (Geometry.Svg.Circle
                       ( n.Archex.Template.loc,
                         0.5,
                         { Geometry.Svg.default_style with fill; stroke = "#333" } )))
                (Archex.Template.nodes template);
              Geometry.Svg.write_file path sc;
              Format.printf "topology written to %s@." path
          | None -> ());
          0)

open Cmdliner

let spec_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc:"Pattern specification file.")

let library_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "l"; "library" ] ~docv:"FILE" ~doc:"Component library (default: built-in).")

let plan_file =
  Arg.(
    required
    & opt (some file) None
    & info [ "p"; "plan" ] ~docv:"SVG" ~doc:"Floor plan SVG with walls and node circles.")

let kstar =
  Arg.(value & opt int 10 & info [ "k"; "kstar" ] ~doc:"Candidate paths per route (Algorithm 1).")

let loc_kstar =
  Arg.(value & opt int 20 & info [ "loc-kstar" ] ~doc:"Candidate anchors per evaluation point.")

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Use exhaustive path enumeration instead of Algorithm 1.")

let time_limit =
  Arg.(value & opt float 120. & info [ "t"; "time-limit" ] ~doc:"MILP time limit in seconds.")

let gap = Arg.(value & opt float 1e-4 & info [ "gap" ] ~doc:"Relative MIP gap.")

let out_svg =
  Arg.(value & opt (some string) None & info [ "o"; "out-svg" ] ~doc:"Write the topology SVG here.")

let out_lp =
  Arg.(value & opt (some string) None & info [ "out-lp" ] ~doc:"Export the MILP in CPLEX LP format.")

let cold_start =
  Arg.(
    value & flag
    & info [ "cold-start" ]
        ~doc:"Disable warm-started node LP re-solves in branch and bound (ablation).")

let pricing =
  let rule =
    Arg.enum [ ("devex", Milp.Simplex.Devex); ("dantzig", Milp.Simplex.Dantzig) ]
  in
  Arg.(
    value
    & opt rule Milp.Simplex.Devex
    & info [ "pricing" ] ~docv:"RULE"
        ~doc:
          "Simplex entering-column rule: $(b,devex) (default, reference-framework \
           steepest-edge weights) or $(b,dantzig) (PR5 partial candidate-list scan, \
           ablation).")

let no_harris =
  Arg.(
    value & flag
    & info [ "no-harris" ]
        ~doc:
          "Disable the Harris two-pass ratio test and the bound-flipping dual ratio test; \
           use the classic smallest-ratio tests (ablation).")

let families_conv =
  Arg.conv
    ( (fun s ->
        match Milp.Cuts.families_of_string s with
        | Ok fs -> Ok fs
        | Error e -> Error (`Msg e)),
      fun ppf fs -> Format.pp_print_string ppf (Milp.Cuts.families_to_string fs) )

let cuts =
  Arg.(
    value
    & opt (some families_conv) None
    & info [ "cuts" ] ~docv:"FAMILIES"
        ~doc:
          "Comma-separated cut families to separate (default: all).  Known families: \
           $(b,gmi), $(b,cover), $(b,clique), $(b,power); $(b,all) and $(b,none) (cutting \
           planes off) are recognized.")

let cut_max_applied =
  Arg.(
    value
    & opt (some int) None
    & info [ "cut-max-applied" ] ~docv:"N"
        ~doc:"Cut rows appended to the LP per separation round (default 32).")

let cut_max_age =
  Arg.(
    value
    & opt (some int) None
    & info [ "cut-max-age" ] ~docv:"N"
        ~doc:"Rounds a pooled cut may stay inactive before eviction (default 5).")

let cut_pool_size =
  Arg.(
    value
    & opt (some int) None
    & info [ "cut-pool-size" ] ~docv:"N"
        ~doc:"Managed cut pool capacity (default 500).")

let cut_min_violation =
  Arg.(
    value
    & opt (some float) None
    & info [ "cut-min-violation" ] ~docv:"EPS"
        ~doc:
          "Minimum violation for a pooled cut to be applied at the root (default 1e-5); \
           node separation uses 10x this.")

let no_rc_fixing =
  Arg.(
    value & flag
    & info [ "no-rc-fixing" ]
        ~doc:"Disable reduced-cost fixing of integer variables in branch and bound (ablation).")

let no_presolve =
  Arg.(
    value & flag
    & info [ "no-presolve" ]
        ~doc:
          "Disable the root presolve reduction stack; branch and bound solves the model \
           verbatim (ablation).")

let presolve_passes =
  let passes_conv =
    Arg.conv
      ( (fun s ->
          match Milp.Presolve.passes_of_string s with
          | Ok ps -> Ok ps
          | Error e -> Error (`Msg e)),
        fun ppf ps ->
          Format.pp_print_string ppf
            (String.concat "," (List.map Milp.Presolve.pass_name ps)) )
  in
  Arg.(
    value
    & opt (some passes_conv) None
    & info [ "presolve-passes" ] ~docv:"PASSES"
        ~doc:
          "Comma-separated presolve passes to run (default: all).  Known passes: \
           $(b,propagate), $(b,probe), $(b,parallel), $(b,fix), $(b,empty), $(b,subst), \
           $(b,strengthen).")

let heuristic =
  Arg.(
    value
    & opt (enum [ ("tabu", true); ("off", false) ]) false
    & info [ "heuristic" ] ~docv:"MODE"
        ~doc:
          "Primal matheuristic mode: $(b,tabu) runs a tabu search over \
           topology and sizing moves before the tree search and adopts its \
           best feasible solution as a warm incumbent and cutoff; $(b,off) \
           (default) goes straight to branch and bound.  The optimality \
           proof always comes from the exact solver.")

let tabu_iters =
  Arg.(
    value & opt int 20000
    & info [ "tabu-iters" ] ~doc:"Tabu search iteration budget.")

let tabu_time =
  Arg.(
    value & opt float 5.
    & info [ "tabu-time" ] ~docv:"SECONDS" ~doc:"Tabu search wall-clock budget.")

let tabu_tenure =
  Arg.(
    value & opt int 0
    & info [ "tabu-tenure" ]
        ~doc:"Tabu tenure in iterations; $(b,0) auto-sizes from the instance.")

let tabu_seed =
  Arg.(
    value & opt int 0
    & info [ "tabu-seed" ] ~doc:"Deterministic seed for the tabu search.")

let sweep =
  Arg.(
    value & flag
    & info [ "sweep" ]
        ~doc:
          "Run the systematic K* sweep (paper §4.3) on one incremental session instead of a \
           single solve, then report the best step.")

let workers =
  Arg.(
    value & opt int 1
    & info [ "w"; "workers" ]
        ~doc:
          "Worker domains for the branch-and-bound tree search.  1 (default) is the \
           deterministic sequential solver; higher values explore the tree in parallel \
           (objectives agree with the sequential solver to optimality tolerances, node \
           counts vary); $(b,0) auto-detects via Domain.recommended_domain_count.")

let seed =
  Arg.(
    value & opt int 0
    & info [ "seed" ]
        ~doc:
          "Diversification seed for the parallel tree search (ignored with \
           $(b,--workers) 1).")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress logging.")

let solve_term =
  Term.(
    const main $ spec_file $ library_file $ plan_file $ kstar $ loc_kstar $ full $ time_limit
    $ gap $ sweep $ cold_start $ pricing $ no_harris $ cuts $ cut_max_applied $ cut_max_age
    $ cut_pool_size $ cut_min_violation $ no_rc_fixing $ no_presolve $ presolve_passes
    $ heuristic $ tabu_iters $ tabu_time $ tabu_tenure $ tabu_seed $ workers $ seed
    $ out_svg $ out_lp $ verbose)

(* ------------------------------------------------------------------ *)
(* Client mode: talk to a running archexd over its Unix socket. *)

let socket_arg =
  Arg.(
    value
    & opt string "archexd.sock"
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")

let pp_result (r : Server.Protocol.result_info) =
  Format.printf "%s: objective %.6g, bound %.6g (gap proof)@." r.Server.Protocol.r_status
    r.Server.Protocol.r_objective r.Server.Protocol.r_bound;
  Format.printf "%d nodes, %d simplex iterations, %.2f s, %d worker%s, %s@."
    r.Server.Protocol.r_nodes r.Server.Protocol.r_lp_iterations
    r.Server.Protocol.r_solve_time_s r.Server.Protocol.r_workers
    (if r.Server.Protocol.r_workers = 1 then "" else "s")
    (if r.Server.Protocol.r_cache_hit then "warm session" else "cold session")

let submit_main socket workload lp_file sub_kstar time_limit gap sub_workers
    sub_seed deadline sub_no_presolve sub_heuristic sub_cuts sub_cut_max_applied
    sub_cut_max_age sub_cut_pool_size sub_cut_min_violation stream =
  let payload =
    match (lp_file, workload) with
    | Some f, _ -> (
        match In_channel.with_open_text f In_channel.input_all with
        | text -> Ok (Server.Protocol.Lp text)
        | exception Sys_error e -> Error e)
    | None, Some name -> Ok (Server.Protocol.Workload { name; kstar = sub_kstar })
    | None, None ->
        Error
          (Printf.sprintf "nothing to submit: name a workload (%s) or pass --lp FILE"
             (String.concat ", " (Server.Workload.names ())))
  in
  match payload with
  | Error e ->
      Format.eprintf "error: %s@." e;
      1
  | Ok payload -> (
      let overrides =
        {
          Server.Protocol.o_time_limit = time_limit;
          o_rel_gap = gap;
          o_workers = sub_workers;
          o_seed = sub_seed;
          o_deadline_s = deadline;
          o_presolve = (if sub_no_presolve then Some false else None);
          o_heuristic = sub_heuristic;
          o_cuts = Option.map Milp.Cuts.families_to_string sub_cuts;
          o_cut_max_applied = sub_cut_max_applied;
          o_cut_max_age = sub_cut_max_age;
          o_cut_pool_size = sub_cut_pool_size;
          o_cut_min_violation = sub_cut_min_violation;
          o_stream = stream;
        }
      in
      match Server.Client.connect socket with
      | Error e ->
          Format.eprintf "error: %s@." e;
          1
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Server.Client.disconnect conn)
            (fun () ->
              let on_update ~objective ~bound ~elapsed_s =
                Format.printf "update: objective %.6g, bound %.6g (%.2f s)@."
                  objective bound elapsed_s
              in
              match Server.Client.solve ~on_update conn payload overrides with
              | Error e ->
                  Format.eprintf "error: %s@." e;
                  1
              | Ok (Server.Protocol.Result r) ->
                  pp_result r;
                  0
              | Ok (Server.Protocol.Interrupted { i_objective; i_bound; i_has_incumbent }) ->
                  Format.printf "interrupted: best incumbent %s, bound %.6g@."
                    (if i_has_incumbent then Printf.sprintf "%.6g" i_objective else "-")
                    i_bound;
                  3
              | Ok (Server.Protocol.Rejected msg) ->
                  Format.eprintf "rejected: %s@." msg;
                  4
              | Ok (Server.Protocol.Error_msg msg) ->
                  Format.eprintf "error: %s@." msg;
                  1
              | Ok (Server.Protocol.Pong _ | Server.Protocol.Update _) ->
                  Format.eprintf "error: unexpected response frame@.";
                  1))

let submit_cmd =
  let workload =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Named scenario from the daemon's catalogue (see $(b,archex submit) \
                with no arguments for the list).")
  in
  let lp_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "lp" ] ~docv:"FILE" ~doc:"Submit this LP-format model instead of a workload.")
  in
  let sub_kstar =
    Arg.(value & opt int 6 & info [ "k"; "kstar" ] ~doc:"Candidate paths per route.")
  in
  let time_limit =
    Arg.(
      value
      & opt (some float) None
      & info [ "t"; "time-limit" ] ~doc:"Override the daemon's per-solve time limit.")
  in
  let gap = Arg.(value & opt (some float) None & info [ "gap" ] ~doc:"Relative MIP gap.") in
  let sub_workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "w"; "workers" ]
          ~doc:"Worker domains for this request ($(b,0) = the daemon's pool size).")
  in
  let sub_seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Parallel diversification seed.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget from receipt; waiting-room time counts against it.")
  in
  let sub_no_presolve =
    Arg.(
      value & flag
      & info [ "no-presolve" ]
          ~doc:
            "Disable the presolve reduction stack for this request only.  A \
             warm cached session re-reduces from scratch on its next \
             presolve-on request.")
  in
  let sub_heuristic =
    Arg.(
      value
      & opt (some (enum [ ("tabu", "tabu"); ("off", "off") ])) None
      & info [ "heuristic" ] ~docv:"MODE"
          ~doc:
            "Primal matheuristic for this request: $(b,tabu) or $(b,off) \
             (default: the daemon's setting).")
  in
  let sub_cuts =
    Arg.(
      value
      & opt (some families_conv) None
      & info [ "cuts" ] ~docv:"FAMILIES"
          ~doc:
            "Cut families to separate for this request ($(b,gmi), $(b,cover), \
             $(b,clique), $(b,power), $(b,all), $(b,none); \
             default: the daemon's setting).")
  in
  let sub_cut_max_applied =
    Arg.(
      value
      & opt (some int) None
      & info [ "cut-max-applied" ] ~docv:"N"
          ~doc:"Cut rows appended per separation round for this request.")
  in
  let sub_cut_max_age =
    Arg.(
      value
      & opt (some int) None
      & info [ "cut-max-age" ] ~docv:"N"
          ~doc:"Pool eviction age for this request, in rounds.")
  in
  let sub_cut_pool_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "cut-pool-size" ] ~docv:"N"
          ~doc:"Managed cut pool capacity for this request.")
  in
  let sub_cut_min_violation =
    Arg.(
      value
      & opt (some float) None
      & info [ "cut-min-violation" ] ~docv:"EPS"
          ~doc:"Root cut application threshold for this request.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ] ~doc:"Print incumbent/bound improvements as they happen.")
  in
  let doc = "submit a solve request to a running archexd" in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const submit_main $ socket_arg $ workload $ lp_file $ sub_kstar $ time_limit
      $ gap $ sub_workers $ sub_seed $ deadline $ sub_no_presolve $ sub_heuristic
      $ sub_cuts $ sub_cut_max_applied $ sub_cut_max_age $ sub_cut_pool_size
      $ sub_cut_min_violation $ stream)

let ping_main socket =
  match Server.Client.connect socket with
  | Error e ->
      Format.eprintf "error: %s@." e;
      1
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Server.Client.disconnect conn)
        (fun () ->
          match Server.Client.ping conn with
          | Ok (Server.Protocol.Pong { version; workers; sessions }) ->
              Format.printf "%s: %d worker domain%s, %d cached session%s@." version
                workers
                (if workers = 1 then "" else "s")
                sessions
                (if sessions = 1 then "" else "s");
              0
          | Ok _ ->
              Format.eprintf "error: unexpected response frame@.";
              1
          | Error e ->
              Format.eprintf "error: %s@." e;
              1)

let ping_cmd =
  let doc = "check a running archexd and report its pool and cache" in
  Cmd.v (Cmd.info "ping" ~doc) Term.(const ping_main $ socket_arg)

let stop_main socket =
  match Server.Client.connect socket with
  | Error e ->
      Format.eprintf "error: %s@." e;
      1
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Server.Client.disconnect conn)
        (fun () ->
          match Server.Client.shutdown conn with
          | Ok _ -> 0
          | Error e ->
              Format.eprintf "error: %s@." e;
              1)

let stop_cmd =
  let doc = "ask a running archexd to drain in-flight solves and exit" in
  Cmd.v (Cmd.info "stop" ~doc) Term.(const stop_main $ socket_arg)

(* ------------------------------------------------------------------ *)
(* Scenario registry inspection. *)

let scenario_main name_opt =
  let module Scenario = Archex.Scenario in
  match name_opt with
  | None ->
      List.iter
        (fun sc ->
          Format.printf "%-20s %-9s %s@." (Scenario.name sc)
            (Scenario.scale_name (Scenario.scale sc))
            (Scenario.descr sc))
        (Scenario.all ());
      0
  | Some n -> (
      match Scenario.find n with
      | Error e ->
          Format.eprintf "error: %s@." e;
          1
      | Ok sc -> (
          Format.printf "name:     %s@." (Scenario.name sc);
          Format.printf "scale:    %s@." (Scenario.scale_name (Scenario.scale sc));
          Format.printf "descr:    %s@." (Scenario.descr sc);
          (match Scenario.expected sc with
          | Some o -> Format.printf "expected: %.6g@." o
          | None -> ());
          match Scenario.instance sc with
          | Error e ->
              Format.eprintf "error: instance build failed: %s@." e;
              1
          | Ok inst ->
              Format.printf "nodes:    %d@."
                (Archex.Template.nnodes inst.Archex.Instance.template);
              Format.printf "links:    %d candidate@."
                (Netgraph.Digraph.nedges inst.Archex.Instance.graph);
              0))

let scenario_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Scenario to inspect; omit to list the whole registry.")
  in
  let doc = "list registered scenarios or inspect one by name" in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const scenario_main $ name_arg)

let doc = "optimized selection of wireless network topologies and components"

let cmd =
  Cmd.group ~default:solve_term (Cmd.info "archex" ~doc)
    [
      Cmd.v (Cmd.info "solve" ~doc:"compile and solve a problem (the default)") solve_term;
      submit_cmd;
      ping_cmd;
      stop_cmd;
      scenario_cmd;
    ]

(* [Cmd.group] reserves the first positional argument for command
   lookup, which would reject the original `archex my.spec ...`
   surface; anything that doesn't name a subcommand keeps routing to
   the plain solve command. *)
let legacy_cmd = Cmd.v (Cmd.info "archex" ~doc) solve_term

let () =
  (* Generated tactical scenarios join the registry up front so
     `archex scenario` lists them and `archex submit NAME` can name
     them (the daemon registers the same set on its side). *)
  Scenario_gen.register_defaults ();
  let grouped =
    Array.length Sys.argv <= 1
    || List.mem Sys.argv.(1)
         [ "solve"; "submit"; "ping"; "stop"; "scenario"; "--help"; "-h"; "--version" ]
  in
  exit (Cmd.eval' (if grouped then cmd else legacy_cmd))
