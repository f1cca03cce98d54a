module BB = Milp.Branch_bound

type strategy = Full_enum | Approx of { kstar : int; loc_kstar : int }

type kernel = {
  k_warm_start : bool;
  k_cut_families : Milp.Cuts.family list;
  k_max_applied_cuts : int;
  k_cut_max_age : int;
  k_cut_pool_size : int;
  k_cut_min_violation : float;
  k_rc_fixing : bool;
  k_pricing : Milp.Simplex.pricing;
  k_harris : bool;
}

type presolve = {
  ps_enabled : bool;
  ps_passes : Milp.Presolve.pass list;
  ps_template : bool;
}

type parallel = {
  par_workers : int;
  par_seed : int;
  par_scheduler : Milp.Scheduler.t option;
}

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
  kernel : kernel;
  presolve : presolve;
  parallel : parallel;
  heuristic : heuristic;
  interrupt : bool Atomic.t option;
  on_incumbent : (float -> float -> unit) option;
}

let approx ?(kstar = 10) ?(loc_kstar = 20) () = Approx { kstar; loc_kstar }

(* The kernel group carved out of a full options record. *)
let kernel_of_options (o : BB.options) =
  {
    k_warm_start = o.BB.warm_start;
    k_cut_families = o.BB.cut_families;
    k_max_applied_cuts = o.BB.max_applied_cuts;
    k_cut_max_age = o.BB.cut_max_age;
    k_cut_pool_size = o.BB.cut_pool_size;
    k_cut_min_violation = o.BB.cut_min_violation;
    k_rc_fixing = o.BB.rc_fixing;
    k_pricing = o.BB.pricing;
    k_harris = o.BB.harris;
  }

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
    kernel = kernel_of_options BB.default_options;
    presolve =
      {
        ps_enabled = BB.default_options.BB.presolve;
        ps_passes = BB.default_options.BB.presolve_passes;
        ps_template = true;
      };
    parallel = { par_workers = 1; par_seed = 0; par_scheduler = None };
    heuristic = no_heuristic;
    interrupt = None;
    on_incumbent = None;
  }

(* ---- group setters (the primary API) ---- *)

let with_strategy strategy c = { c with strategy }

let with_full_enum c = { c with strategy = Full_enum }

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

let with_kernel kernel c =
  let need ok what = if not ok then invalid_arg ("Solver_config.with_kernel: need " ^ what) in
  need (kernel.k_max_applied_cuts >= 1) "k_max_applied_cuts >= 1";
  need (kernel.k_cut_max_age >= 1) "k_cut_max_age >= 1";
  need (kernel.k_cut_pool_size >= 1) "k_cut_pool_size >= 1";
  need (kernel.k_cut_min_violation > 0.) "k_cut_min_violation > 0";
  { c with kernel }

let with_presolving presolve c = { c with presolve }

let with_parallelism parallel c =
  if parallel.par_workers < 0 then
    invalid_arg "Solver_config.with_parallelism: need a worker count >= 0 (0 = auto-detect)";
  { c with parallel }

let with_heuristic heuristic c = { c with heuristic }

let with_interrupt interrupt c = { c with interrupt = Some interrupt }

let with_on_incumbent on_incumbent c = { c with on_incumbent = Some on_incumbent }

(* ---- scalar setters ---- *)

let with_time_limit time_limit c = { c with options = { c.options with BB.time_limit } }

let with_node_limit node_limit c = { c with options = { c.options with BB.node_limit } }

let with_rel_gap rel_gap c = { c with options = { c.options with BB.rel_gap } }

let with_cutoff cutoff c = { c with options = { c.options with BB.cutoff } }

let with_log log c = { c with options = { c.options with BB.log } }

let with_workers nworkers c =
  if nworkers < 0 then
    invalid_arg "Solver_config.with_workers: need a worker count >= 0 (0 = auto-detect)";
  { c with parallel = { c.parallel with par_workers = nworkers } }

(* ---- the single override merge ---- *)

type override = {
  o_strategy : strategy option;
  o_time_limit : float option;
  o_rel_gap : float option;
  o_cutoff : float option;
  o_kernel : kernel option;
  o_presolve : presolve option;
  o_heuristic : heuristic option;
  o_workers : int option;
  o_seed : int option;
  o_scheduler : Milp.Scheduler.t option;
  o_interrupt : bool Atomic.t option;
  o_on_incumbent : (float -> float -> unit) option;
}

let no_override =
  {
    o_strategy = None;
    o_time_limit = None;
    o_rel_gap = None;
    o_cutoff = None;
    o_kernel = None;
    o_presolve = None;
    o_heuristic = None;
    o_workers = None;
    o_seed = None;
    o_scheduler = None;
    o_interrupt = None;
    o_on_incumbent = None;
  }

let override o c =
  let opt v d = Option.value v ~default:d in
  let c = { c with strategy = opt o.o_strategy c.strategy } in
  let c =
    match o.o_time_limit with None -> c | Some tl -> with_time_limit tl c
  in
  let c = match o.o_rel_gap with None -> c | Some g -> with_rel_gap g c in
  let c = match o.o_cutoff with None -> c | Some cu -> with_cutoff cu c in
  let c = match o.o_kernel with None -> c | Some k -> with_kernel k c in
  let c = { c with presolve = opt o.o_presolve c.presolve } in
  let c = { c with heuristic = opt o.o_heuristic c.heuristic } in
  let c = match o.o_workers with None -> c | Some w -> with_workers w c in
  let c =
    {
      c with
      parallel =
        {
          c.parallel with
          par_seed = opt o.o_seed c.parallel.par_seed;
          par_scheduler =
            (match o.o_scheduler with None -> c.parallel.par_scheduler | Some _ as s -> s);
        };
    }
  in
  let c =
    match o.o_interrupt with None -> c | Some i -> with_interrupt i c
  in
  match o.o_on_incumbent with None -> c | Some f -> with_on_incumbent f c

(* ---- accessors ---- *)

let effective_workers c =
  if c.parallel.par_workers = 0 then Domain.recommended_domain_count ()
  else c.parallel.par_workers

let bb_options c =
  {
    c.options with
    BB.warm_start = c.kernel.k_warm_start;
    cut_families = c.kernel.k_cut_families;
    max_applied_cuts = c.kernel.k_max_applied_cuts;
    cut_max_age = c.kernel.k_cut_max_age;
    cut_pool_size = c.kernel.k_cut_pool_size;
    cut_min_violation = c.kernel.k_cut_min_violation;
    rc_fixing = c.kernel.k_rc_fixing;
    pricing = c.kernel.k_pricing;
    harris = c.kernel.k_harris;
    presolve = c.presolve.ps_enabled;
    presolve_passes = c.presolve.ps_passes;
    nworkers = effective_workers c;
    seed = c.parallel.par_seed;
  }

let scheduler c = c.parallel.par_scheduler

let kstar c = match c.strategy with Approx { kstar; _ } -> Some kstar | Full_enum -> None

let loc_kstar c =
  match c.strategy with Approx { loc_kstar; _ } -> Some loc_kstar | Full_enum -> None

(* Structural equality of the presolve group; scheduler-free so it can
   be compared with [=].  Used by {!Session.reconfigure} to decide when
   a cached reduction trace must be invalidated. *)
let same_presolve a b =
  a.presolve.ps_enabled = b.presolve.ps_enabled
  && a.presolve.ps_passes = b.presolve.ps_passes
  && a.presolve.ps_template = b.presolve.ps_template
