(** One self-contained solver configuration.

    Everything that used to be threaded through the driver stack as
    scattered optional arguments lives in a single immutable record:
    the encoding {!strategy}, the engine settings (one
    {!Milp.Branch_bound.options} record — limits, gaps, warm starts,
    cut families and pool limits, reduced-cost fixing, pricing, ratio
    tests, presolve passes, worker count and seed), the shared
    scheduler, the primal {!heuristic}, and the interrupt and streaming
    hooks.  Each engine setting lives only in [options].

    Build a config with {!default}, the setters and [|>]; the record is
    private, so every config goes through {!with_options}'s range
    checks:

    {[
      let cfg =
        Solver_config.(
          default |> with_approx ~kstar:6 () |> with_time_limit 30.
          |> with_options (fun o -> { o with nworkers = 4; pricing = Dantzig })
          |> with_heuristic (tabu ~time_s:2. ()))
      in
      Solve.run cfg inst
    ]} *)

type strategy =
  | Full_enum  (** Exhaustive encoding (paper §2). *)
  | Approx of { kstar : int; loc_kstar : int }
      (** Algorithm 1 with [K*] route candidates and [loc_kstar]
          localization candidates per test point. *)

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

type t = private {
  strategy : strategy;
  options : Milp.Branch_bound.options;
      (** Every engine setting.  [nworkers = 0] means auto-detect;
          {!bb_options} resolves it at solve time. *)
  scheduler : Milp.Scheduler.t option;
      (** Run tree searches on this shared domain pool (the daemon's)
          instead of domains owned by each solve. *)
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
    {!Milp.Branch_bound.default_options} (one worker, seed 0), no
    shared scheduler, heuristic off. *)

val approx : ?kstar:int -> ?loc_kstar:int -> unit -> strategy
(** [Approx] with defaults [kstar = 10], [loc_kstar = 20]. *)

val no_heuristic : heuristic
(** [H_off] with default budget knobs. *)

val tabu :
  ?iters:int -> ?time_s:float -> ?tenure:int -> ?seed:int -> unit -> heuristic
(** A tabu-search heuristic with the given budget. *)

val heuristic_mode_name : heuristic_mode -> string
(** ["off"] / ["tabu"] — the [--heuristic] CLI spelling. *)

val heuristic_mode_of_string : string -> (heuristic_mode, string) result

(** Setters take the config {e last} so they chain with [|>]. *)

val with_options : (Milp.Branch_bound.options -> Milp.Branch_bound.options) -> t -> t
(** [with_options f c] replaces [c.options] by [f c.options] — the one
    setter for engine settings, and the one place they are checked.
    @raise Invalid_argument when the result has [max_applied_cuts < 1],
    [cut_max_age < 1], [cut_pool_size < 1], [cut_min_violation <= 0]
    or [nworkers < 0]. *)

val with_strategy : strategy -> t -> t

val with_approx : ?kstar:int -> ?loc_kstar:int -> unit -> t -> t
(** Switch to (or adjust) the approximate strategy; an omitted field
    keeps its current value when the strategy already is [Approx], else
    the {!approx} default. *)

val with_heuristic : heuristic -> t -> t
(** Select the primal matheuristic, e.g.
    [with_heuristic (tabu ~time_s:2. ())] or
    [with_heuristic no_heuristic]. *)

val with_scheduler : Milp.Scheduler.t -> t -> t

val with_interrupt : bool Atomic.t -> t -> t

val with_on_incumbent : (float -> float -> unit) -> t -> t

(** One-field shorthands for {!with_options}. *)

val with_time_limit : float -> t -> t

val with_node_limit : int -> t -> t

val with_rel_gap : float -> t -> t

val with_cutoff : float -> t -> t

val with_workers : int -> t -> t
(** Set [options.nworkers]; [0] = auto-detect at solve time.
    @raise Invalid_argument on [n < 0]. *)

(** {2 Accessors} *)

val bb_options : t -> Milp.Branch_bound.options
(** The options record handed to {!Milp.Branch_bound.solve}:
    [t.options] with [nworkers = 0] resolved to
    [Domain.recommended_domain_count ()]. *)

val kstar : t -> int option
(** [Some k] for the approximate strategy, [None] for [Full_enum]. *)

val loc_kstar : t -> int option
