module BB = Milp.Branch_bound

type strategy = Full_enum | Approx of { kstar : int; loc_kstar : int }

type heuristic_mode = H_off | H_tabu

type heuristic = {
  h_mode : heuristic_mode;
  h_iters : int;
  h_time_s : float;
  h_tenure : int;
  h_seed : int;
}

type t = {
  strategy : strategy;
  options : BB.options;
  scheduler : Milp.Scheduler.t option;
  heuristic : heuristic;
  interrupt : bool Atomic.t option;
  on_incumbent : (float -> float -> unit) option;
}

let approx ?(kstar = 10) ?(loc_kstar = 20) () = Approx { kstar; loc_kstar }

let no_heuristic =
  { h_mode = H_off; h_iters = 20_000; h_time_s = 5.; h_tenure = 0; h_seed = 0 }

let tabu ?(iters = 20_000) ?(time_s = 5.) ?(tenure = 0) ?(seed = 0) () =
  { h_mode = H_tabu; h_iters = iters; h_time_s = time_s; h_tenure = tenure; h_seed = seed }

let heuristic_mode_name = function H_off -> "off" | H_tabu -> "tabu"

let heuristic_mode_of_string = function
  | "off" -> Ok H_off
  | "tabu" -> Ok H_tabu
  | s -> Error (Printf.sprintf "unknown heuristic %S (known: tabu, off)" s)

let default =
  {
    strategy = approx ();
    options = BB.default_options;
    scheduler = None;
    heuristic = no_heuristic;
    interrupt = None;
    on_incumbent = None;
  }

(* ---- setters ---- *)

let with_options f c =
  let o = f c.options in
  let need ok what =
    if not ok then invalid_arg ("Solver_config.with_options: need " ^ what)
  in
  need (o.BB.max_applied_cuts >= 1) "max_applied_cuts >= 1";
  need (o.BB.cut_max_age >= 1) "cut_max_age >= 1";
  need (o.BB.cut_pool_size >= 1) "cut_pool_size >= 1";
  need (o.BB.cut_min_violation > 0.) "cut_min_violation > 0";
  need (o.BB.nworkers >= 0) "nworkers >= 0 (0 = auto-detect)";
  { c with options = o }

let with_strategy strategy c = { c with strategy }

let with_approx ?kstar ?loc_kstar () c =
  let k0, l0 =
    match c.strategy with
    | Approx { kstar; loc_kstar } -> (kstar, loc_kstar)
    | Full_enum -> (10, 20)
  in
  {
    c with
    strategy =
      Approx
        {
          kstar = Option.value kstar ~default:k0;
          loc_kstar = Option.value loc_kstar ~default:l0;
        };
  }

let with_heuristic heuristic c = { c with heuristic }

let with_scheduler scheduler c = { c with scheduler = Some scheduler }

let with_interrupt interrupt c = { c with interrupt = Some interrupt }

let with_on_incumbent on_incumbent c = { c with on_incumbent = Some on_incumbent }

let with_time_limit time_limit = with_options (fun o -> { o with BB.time_limit })

let with_node_limit node_limit = with_options (fun o -> { o with BB.node_limit })

let with_rel_gap rel_gap = with_options (fun o -> { o with BB.rel_gap })

let with_cutoff cutoff = with_options (fun o -> { o with BB.cutoff })

let with_workers nworkers = with_options (fun o -> { o with BB.nworkers })

(* ---- accessors ---- *)

let bb_options c =
  if c.options.BB.nworkers = 0 then
    { c.options with BB.nworkers = Domain.recommended_domain_count () }
  else c.options

let kstar c = match c.strategy with Approx { kstar; _ } -> Some kstar | Full_enum -> None

let loc_kstar c =
  match c.strategy with Approx { loc_kstar; _ } -> Some loc_kstar | Full_enum -> None

let same_presolve a b =
  a.options.BB.presolve = b.options.BB.presolve
  && a.options.BB.presolve_passes = b.options.BB.presolve_passes
