(** Systematic selection of [K*] (paper §4.3).

    "K* can be systematically selected by a search algorithm that
    generates multiple topologies for different values of K* and
    terminates once the execution time becomes higher than a predefined
    threshold or there is no further improvement in the objective."

    The search walks an increasing [K*] schedule on one incremental
    {!Session}: each step extends the candidate pools, appends the delta
    to the live model, and re-solves carrying the previous incumbent and
    cut pool, stopping on timeout, lack of improvement, or schedule
    exhaustion.  Localization pruning is fixed at the schedule's widest
    [K*] for the whole sweep so the per-step models nest. *)

type step = {
  kstar : int;
  outcome : Outcome.t;
  objective : float option;  (** Incumbent objective if one was found. *)
}

type result = {
  steps : step list;  (** In schedule order. *)
  best : (int * Solution.t) option;  (** Best [K*] and its solution. *)
  stopped_because : [ `Time_threshold | `No_improvement | `Schedule_exhausted ];
}

val default_schedule : int list
(** [1; 3; 5; 10; 20] — the paper's Table 4 sweep. *)

val search :
  ?schedule:int list ->
  ?time_threshold_s:float ->
  ?min_improvement:float ->
  Solver_config.t ->
  Instance.t ->
  result
(** [search config inst] runs the schedule under [config] (solver
    options and parallel knobs; the strategy's
    [loc_kstar] is overridden with the schedule's widest [K*] so the
    per-step models nest).  Stops early when a solve exceeds
    [time_threshold_s] (default 60 s) or when the objective improves by
    less than [min_improvement] (relative, default 0.5%) over the
    previous step.  The improvement test follows the model's objective
    direction, and a step without an incumbent neither counts as
    improvement nor trips the stall detector.  Pool-generation failures
    for a given [K*] are skipped. *)
