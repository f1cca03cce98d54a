(** One self-contained solver configuration.

    Everything that used to be threaded through the driver stack as
    scattered optional arguments lives in a single immutable record,
    now organised as nested sub-records:

    - {!kernel} — simplex/B&B kernel toggles (warm starts, cut
      families and pool limits, reduced-cost fixing, pricing, ratio
      tests);
    - {!presolve} — the reduction stack (on/off, pass list, template
      trace reuse);
    - {!parallel} — worker domains, diversification seed, shared
      scheduler;
    - {!heuristic} — the primal matheuristic (tabu search) budget.

    Remaining scalar knobs (time/node limits, gaps, logging) stay in
    the raw {!Milp.Branch_bound.options} record under [options] and
    have one-field setters.

    Build a config with {!default}, the group setters and [|>]:

    {[
      let cfg =
        Solver_config.(
          default |> with_approx ~kstar:6 () |> with_time_limit 30.
          |> with_parallelism { default.parallel with par_workers = 4 }
          |> with_heuristic (tabu ~time_s:2. ()))
      in
      Solve.run cfg inst
    ]}

    Per-request deltas against a base config (the daemon's cached
    sessions) go through the single {!override} merge instead of ad-hoc
    setter chains. *)

type strategy =
  | Full_enum  (** Exhaustive encoding (paper §2). *)
  | Approx of { kstar : int; loc_kstar : int }
      (** Algorithm 1 with [K*] route candidates and [loc_kstar]
          localization candidates per test point. *)

(** Kernel toggles for the LP/B&B engine.  Defaults mirror
    {!Milp.Branch_bound.default_options}. *)
type kernel = {
  k_warm_start : bool;  (** Warm-started dual simplex re-solves. *)
  k_cut_families : Milp.Cuts.family list;
      (** Which separators run ([Milp.Cuts.all_families] by default):
          GMI, cover, clique and power/RSS cuts; [[]] turns cutting
          planes off. *)
  k_max_applied_cuts : int;  (** Rows appended per round (default 32). *)
  k_cut_max_age : int;
      (** Pool evictions: rounds a cut may stay inactive (default 5). *)
  k_cut_pool_size : int;  (** Managed pool capacity (default 500). *)
  k_cut_min_violation : float;
      (** Minimum violation for a pooled cut to be applied at the root
          (default 1e-5); node separation uses 10x this. *)
  k_rc_fixing : bool;  (** Reduced-cost variable fixing. *)
  k_pricing : Milp.Simplex.pricing;  (** Entering-column rule. *)
  k_harris : bool;  (** Harris/bound-flip ratio tests. *)
}

(** The presolve reduction stack. *)
type presolve = {
  ps_enabled : bool;  (** Root presolve (default [true]). *)
  ps_passes : Milp.Presolve.pass list;  (** Pass restriction. *)
  ps_template : bool;
      (** Incremental sessions presolve the template once and re-apply
          the reduction trace to each K* sweep step's delta (default);
          [false] presolves every step from scratch. *)
}

(** Parallel tree search. *)
type parallel = {
  par_workers : int;
      (** Worker domains (default 1); [0] = auto-detect via
          [Domain.recommended_domain_count] at solve time. *)
  par_seed : int;  (** Diversification seed; ignored at 1 worker. *)
  par_scheduler : Milp.Scheduler.t option;
      (** Run tree searches on this shared domain pool (the daemon's)
          instead of domains owned by each solve. *)
}

type heuristic_mode = H_off | H_tabu

(** Primal matheuristic budget.  With [h_mode = H_tabu], {!Session}
    runs a tabu search over topology+sizing moves before the first
    B&B solve and installs its incumbent as warm solution + cutoff. *)
type heuristic = {
  h_mode : heuristic_mode;
  h_iters : int;  (** Tabu iteration budget (default 20000). *)
  h_time_s : float;  (** Tabu wall-clock budget in seconds (default 5). *)
  h_tenure : int;  (** Tabu tenure; [0] = auto-size from the instance. *)
  h_seed : int;  (** Deterministic restart/diversification seed. *)
}

type t = {
  strategy : strategy;
  options : Milp.Branch_bound.options;
      (** Scalar limits (time/node/gap/log...).  Fields that
          belong to a group below ([warm_start], [presolve], [nworkers],
          ...) are shadowed by the groups — {!bb_options} resolves the
          authoritative merge. *)
  kernel : kernel;
  presolve : presolve;
  parallel : parallel;
  heuristic : heuristic;
  interrupt : bool Atomic.t option;
      (** Cooperative cancellation flag threaded into every solve this
          config drives: set it from a signal handler or another thread
          and the search returns its current incumbent. *)
  on_incumbent : (float -> float -> unit) option;
      (** Streaming hook, fired on each strict incumbent improvement
          with (objective, best bound) in the model's direction; must be
          thread-safe when running parallel. *)
}

val default : t
(** [Approx { kstar = 10; loc_kstar = 20 }],
    {!Milp.Branch_bound.default_options}, one worker, seed 0,
    heuristic off. *)

val approx : ?kstar:int -> ?loc_kstar:int -> unit -> strategy
(** [Approx] with defaults [kstar = 10], [loc_kstar = 20]. *)

val no_heuristic : heuristic
(** [H_off] with default budget knobs. *)

val tabu :
  ?iters:int -> ?time_s:float -> ?tenure:int -> ?seed:int -> unit -> heuristic
(** A tabu-search heuristic group with the given budget. *)

val heuristic_mode_name : heuristic_mode -> string
(** ["off"] / ["tabu"] — the [--heuristic] CLI spelling. *)

val heuristic_mode_of_string : string -> (heuristic_mode, string) result

(** Setters take the config {e last} so they chain with [|>]. *)

val with_strategy : strategy -> t -> t

val with_full_enum : t -> t

val with_approx : ?kstar:int -> ?loc_kstar:int -> unit -> t -> t
(** Switch to (or adjust) the approximate strategy; an omitted field
    keeps its current value when the strategy already is [Approx], else
    the {!approx} default. *)

val with_kernel : kernel -> t -> t
(** @raise Invalid_argument on [k_max_applied_cuts < 1],
    [k_cut_max_age < 1], [k_cut_pool_size < 1] or
    [k_cut_min_violation <= 0]. *)

val with_presolving : presolve -> t -> t

val with_parallelism : parallel -> t -> t
(** @raise Invalid_argument on [par_workers < 0]. *)

val with_heuristic : heuristic -> t -> t
(** Select the primal matheuristic, e.g.
    [with_heuristic (tabu ~time_s:2. ())] or
    [with_heuristic no_heuristic]. *)

val with_time_limit : float -> t -> t

val with_node_limit : int -> t -> t

val with_rel_gap : float -> t -> t

val with_cutoff : float -> t -> t

val with_log : bool -> t -> t

val with_interrupt : bool Atomic.t -> t -> t

val with_on_incumbent : (float -> float -> unit) -> t -> t

val with_workers : int -> t -> t
(** Set [parallel.par_workers]; [0] = auto-detect at solve time.
    @raise Invalid_argument on [n < 0]. *)

(** {2 Per-request overrides}

    A sparse delta merged onto a base config in one step — what
    {!Session.reconfigure} and the daemon's per-request knobs use
    instead of rebuilding a config from scratch. *)

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

val no_override : override
(** All fields [None] — [override no_override c = c]. *)

val override : override -> t -> t
(** [override o c] applies every [Some] field of [o] onto [c], group by
    group, in one merge.
    @raise Invalid_argument where the matching setter would. *)

(** {2 Accessors} *)

val effective_workers : t -> int
(** The worker count solves actually use: [parallel.par_workers], or
    [Domain.recommended_domain_count ()] when it is [0]. *)

val bb_options : t -> Milp.Branch_bound.options
(** The options record actually handed to {!Milp.Branch_bound.solve}:
    [t.options] with the {!kernel}, {!presolve} and {!parallel} group
    fields layered on top ([par_workers] resolved via
    {!effective_workers}). *)

val scheduler : t -> Milp.Scheduler.t option

val kstar : t -> int option
(** [Some k] for the approximate strategy, [None] for [Full_enum]. *)

val loc_kstar : t -> int option

val same_presolve : t -> t -> bool
(** Whether two configs agree on the whole {!presolve} group —
    {!Session.reconfigure} uses this to decide when a cached reduction
    trace must be invalidated. *)
