(* The per-instance pipeline shared by every workload: instance in hand
   -> Algorithm-1 session -> branch & bound -> certified architecture,
   plus the traced run's layer probes. *)

open Archex
module BB = Milp.Branch_bound
module Model = Milp.Model

(* One generated problem: its identity, the K* it is solved at and, for
   budgeted workloads, the node budget. *)
type item = {
  id : string;  (** Generator spec or registry name, seed included. *)
  seed : int;  (** Generator seed drawn from the workload seed. *)
  kstar : int;
  node_limit : int option;  (** [None]: solve to a proved [rel_gap]. *)
  build : unit -> (Instance.t, string) result;
}

let rel_gap = 1e-6

(* Far above any solve here: a budgeted tree must end on its node
   budget, never on the clock, or counts would stop being reproducible. *)
let time_limit = 150.

let config ?on_incumbent item =
  let open Solver_config in
  let c =
    default
    |> with_approx ~kstar:item.kstar ()
    |> with_rel_gap rel_gap |> with_time_limit time_limit |> with_workers 1
    |> with_heuristic no_heuristic
  in
  let c = match item.node_limit with Some n -> with_node_limit n c | None -> c in
  match on_incumbent with Some f -> with_on_incumbent f c | None -> c

let build_instance item =
  match item.build () with Ok inst -> inst | Error e -> failwith (item.id ^ ": " ^ e)

type solved = {
  latency_s : float;  (** Instance in hand to certified architecture. *)
  first_incumbent_s : float;
  result : (Outcome.t * float, string) result;  (** Outcome and its largest violation. *)
  session : Session.t option;
}

(* One operation.  [Session.create] followed by [Session.solve] is
   exactly what [Solve.run] does for the approximate strategy; calling
   the two steps lets the traced run put a span around each. *)
let solve ?(parent = 0) ~req item inst =
  let t0 = Milp.Clock.now () in
  let first = ref nan in
  let on_incumbent _ _ = if Float.is_nan !first then first := Milp.Clock.now () -. t0 in
  let cfg = config ~on_incumbent item in
  let session, result =
    match Span.record ~parent ~req "session.create" (fun _ -> Session.create cfg inst) with
    | Error e -> (None, Error ("encode: " ^ e))
    | Ok s ->
        let o = Span.record ~parent ~req "session.solve" (fun _ -> Session.solve s) in
        let c =
          Span.record ~parent ~req "certify" (fun _ ->
              Check.outcome ~require_optimal:(item.node_limit = None)
                ~options:(Solver_config.bb_options cfg) inst o)
        in
        (Some s, Result.map (fun v -> (o, v)) c)
  in
  let latency_s = Milp.Clock.now () -. t0 in
  let first_incumbent_s = if Float.is_nan !first then latency_s else !first in
  { latency_s; first_incumbent_s; result; session }

let counts (s : solved) =
  match s.result with
  | Ok (o, _) -> (o.Outcome.mip.BB.nodes, o.Outcome.mip.BB.lp_iterations)
  | Error _ -> (-1, -1)

(* Layer probes: extra calls into each layer's public function on the
   same instance, made after the operation itself.  Their spans give
   the per-layer numbers the end-to-end operation hides. *)
type probe = {
  p_paths : int;
  p_nvars : int;
  p_nconstrs : int;
  p_rows_removed : int;
  p_cols_removed : int;
  p_root_lp_s : float;
  p_root_lp_iters : int;
  p_alloc_words : float;
  p_lu : Milp.Lu.stats;
  p_root_s : float;  (** Branch & bound at a node limit of 1. *)
  p_root_nocuts_s : float;
  p_extract_s : float option;
  p_grow_s : float option;  (** [None] when the K* grow found no new disjoint pools. *)
  p_reapplied : bool;
  p_seeded : int;
}

(* Node budget of the re-solve after the probe's K* grow. *)
let grow_probe_nodes = 30

let probe ~parent ~req item inst (s : solved) =
  let sp name f = Span.timed ~parent ~req name f in
  let gen, _ = sp "path_gen.generate" (fun _ -> Path_gen.generate ~kstar:item.kstar inst) in
  let paths =
    match gen with
    | Ok g -> List.fold_left (fun a p -> a + List.length p.Path_gen.pool) 0 g.Path_gen.pools
    | Error _ -> 0
  in
  match sp "encode.encode" (fun _ -> Approx_encoding.encode ~kstar:item.kstar inst) with
  | Error e, _ -> Error ("probe encode: " ^ e)
  | Ok enc, _ -> (
      let ctx = enc.Approx_encoding.ctx in
      let model = Encode_common.model ctx in
      let options = Solver_config.bb_options (config item) in
      let n = Model.nvars model in
      let p = Milp.Simplex.of_model model in
      let integer = Array.init n (Model.is_integer model) in
      let lb = Array.init n (Model.var_lb model) and ub = Array.init n (Model.var_ub model) in
      match
        sp "presolve.reduce" (fun _ ->
            Milp.Presolve.reduce ~passes:options.BB.presolve_passes p ~integer ~lb ~ub)
      with
      | Milp.Presolve.Reduce_infeasible e, _ -> Error ("probe presolve: " ^ e)
      | Milp.Presolve.Reduced r, _ ->
          let rp = r.Milp.Presolve.red_problem in
          Milp.Lu.reset_stats ();
          Milp.Lu.set_stats_enabled true;
          let a0 = Gc.minor_words () in
          let lp, root_lp_s =
            sp "simplex.root_lp" (fun _ ->
                Milp.Simplex.solve ~pricing:options.BB.pricing ~harris:options.BB.harris rp
                  ~lb:r.Milp.Presolve.red_lb ~ub:r.Milp.Presolve.red_ub)
          in
          let alloc = Gc.minor_words () -. a0 in
          Milp.Lu.set_stats_enabled false;
          let lu = Milp.Lu.stats () in
          let separators = Struct_cuts.separators ctx in
          let _, root_s =
            sp "branch_bound.root" (fun _ ->
                BB.solve ~options:{ options with BB.node_limit = 1 } ~separators model)
          in
          let _, nocuts_s =
            sp "branch_bound.root_nocuts" (fun _ ->
                BB.solve ~options:{ options with BB.node_limit = 1; cuts = false } ~separators model)
          in
          let extract_s =
            match s.result with
            | Ok (o, _) when Model.nvars o.Outcome.model = n ->
                Some (snd (sp "solution.extract" (fun _ -> Solution.of_approx enc o.Outcome.mip)))
            | _ -> None
          in
          let grow_s, reapplied, seeded =
            match s.session with
            | None -> (None, false, 0)
            | Some session -> (
                Session.reconfigure session
                  (Solver_config.with_node_limit grow_probe_nodes (config item));
                match sp "session.grow" (fun _ -> Session.grow session ~kstar:(item.kstar + 1)) with
                | Error _, _ -> (None, false, 0)
                | Ok (), g ->
                    let o, _ = sp "session.resolve" (fun _ -> Session.solve session) in
                    (Some g, o.Outcome.mip.BB.presolve_reapplied, o.Outcome.mip.BB.cuts_seeded))
          in
          Ok
            {
              p_paths = paths;
              p_nvars = n;
              p_nconstrs = Model.nconstrs model;
              p_rows_removed = Array.length p.Milp.Simplex.rows - Array.length rp.Milp.Simplex.rows;
              p_cols_removed = p.Milp.Simplex.ncols - rp.Milp.Simplex.ncols;
              p_root_lp_s = root_lp_s;
              p_root_lp_iters = lp.Milp.Simplex.iterations;
              p_alloc_words = alloc;
              p_lu = lu;
              p_root_s = root_s;
              p_root_nocuts_s = nocuts_s;
              p_extract_s = extract_s;
              p_grow_s = grow_s;
              p_reapplied = reapplied;
              p_seeded = seeded;
            })
