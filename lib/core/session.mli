(** Incremental solve sessions over the K* sweep.

    A session keeps everything alive that {!Kstar.search} used to throw
    away between schedule steps: the per-route Yen/BalanceDive state
    ({!Path_gen.state}), the live {!Encode_common} context and
    {!Milp.Model.t} (grown in place via the watermark/append API), the
    last incumbent, and the solver's cut pool.  Each step then costs a
    pool {e extension}, a {e delta} encode (only the new candidate
    paths' columns and rows), and a solve that starts from the previous
    incumbent — wired into {!Milp.Branch_bound.solve} as a warm solution
    plus cutoff — with the surviving cover cuts re-certified against the
    grown model and re-seeded.

    The session is configured once, by the {!Solver_config.t} it is
    created with: the strategy's [loc_kstar] fixes localization pruning
    for the whole session (deliberately {e not} swept, so grown models
    stay strict supersets), and {!Solver_config.bb_options} (including
    [nworkers]/[seed]) governs every {!solve}.

    A step reaches the same optimum as a fresh {!create} at its [K*]:
    both see identical cumulative pools (path generation state is
    shared machinery), and the carried incumbent and cuts only prune. *)

type t

val start : Solver_config.t -> Instance.t -> t
(** A session with empty pools and no model yet.
    @raise Invalid_argument if the config's strategy is [Full_enum]
    (sessions only make sense for the approximate encoding). *)

val create : Solver_config.t -> Instance.t -> (t, string) result
(** [start] followed by a first {!grow} at the config strategy's
    [kstar].
    @raise Invalid_argument if the config's strategy is [Full_enum]. *)

val grow : t -> kstar:int -> (unit, string) result
(** Extend every route's candidate pool by a further BalanceDive round
    set at [kstar] ({!Path_gen.extend}) and bring the model up to date
    with the delta (the first successful grow encodes it).  On [Error] (a pool still
    cannot supply its disjoint replicas) the model is left untouched but
    the path-generation progress is kept, so a later [grow] with a
    larger [kstar] continues from there; the session stays solvable if a
    previous grow succeeded. *)

val solve : t -> Outcome.t
(** Solve the current model with the session config's solver options.
    The previous step's incumbent (zero-extended
    over new columns) is installed as warm solution and cutoff — so a
    step that cannot improve still returns the carried solution rather
    than [Mip_unknown] — and the carried cover cuts are offered for
    re-certification.  A caller [cutoff] in the config is combined
    direction-aware with the carried objective.
    @raise Invalid_argument if no {!grow} has succeeded yet. *)

val config : t -> Solver_config.t

val reconfigure : t -> Solver_config.t -> unit
(** Swap the session's config between solves — how the daemon applies
    per-request overrides (time limit, gap, workers, seed, interrupt
    flag, streaming hook, shared scheduler) to a warm cached session.
    Structural knobs must not change: the new config must use the
    approximate strategy with the same [loc_kstar].
    @raise Invalid_argument on a structural mismatch. *)
