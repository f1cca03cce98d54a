(** Branch & bound MILP solver on top of {!Simplex} and {!Presolve}.

    Best-bound node selection (min-heap on the parent LP bound) with
    most-fractional branching (integrality tolerance 1e-6), a root
    presolve, and a periodic rounding and diving heuristic for early
    incumbents.  Works for minimization and maximization models
    (internally everything is minimized).

    Node LPs are warm started: every node carries its parent's optimal
    {!Basis.t}, so a child — which differs from its parent by a single
    bound change — is re-solved by a few dual simplex pivots instead of
    a cold two-phase solve.  The diving heuristic threads the basis
    through its fix-and-resolve loop the same way.  Disable with
    [warm_start = false] (the [archex --cold-start] flag; [bench/smoke.exe]
    runs a cold variant).

    Cutting planes ride the same machinery ({!Cuts}): the root LP is
    tightened by rounds of Gomory mixed-integer and knapsack cover cuts
    drawn from a managed pool, and shallow nodes get occasional cover
    separation.  Applied cuts become permanent rows of the working
    problem — row appends extend a standing basis in place
    ({!Basis.append_row}), so every post-cut re-solve is a warm dual
    simplex repair, not a cold solve.  Once an incumbent exists,
    reduced-cost fixing pins integer variables whose reduced cost proves
    they cannot leave their bound in an improving solution.  Disable
    with [cut_families = []] / [rc_fixing = false] (the [archex --cuts none]
    / [--no-rc-fixing] flags); [cuts = false] also skips the
    root cut loop itself, which otherwise runs at most 20 rounds.

    A solve runs in four stages over one per-solve record: the
    reduction (presolve or the identity, then the carried-in incumbent
    and cuts), the root (the root LP, its cut
    loop, rounding, dive and first branching — or, with every row
    presolved away, the box LP in closed form), a drive that searches
    the rest of the tree (the plain loop, a chain of one-node tasks on a
    shared {!Scheduler}, or the parallel drive), and the finish that
    builds the result.  The root is node 1 of the tallies, so
    [node_limit = 1] runs the reduction and the root alone. *)

type options = {
  time_limit : float;  (** Wall-clock seconds; [infinity] = none. *)
  node_limit : int;
  rel_gap : float;  (** Stop when (incumbent - bound)/|incumbent| <= rel_gap. *)
  abs_gap : float;
  presolve : bool;
      (** Run the root reduction stack ({!Presolve.reduce}) and solve
          the reduced problem, postsolving incumbents back before
          reporting (default [true]); [false] solves the model verbatim
          — the [--no-presolve] flag of [archex] and [bench/smoke.exe]. *)
  presolve_passes : Presolve.pass list;
      (** Which reduction passes run (default {!Presolve.all_passes});
          ignored when [presolve = false]. *)
  cutoff : float;
      (** Known objective bound in the model's own direction (an
          incumbent value from a related run): nodes that cannot beat it
          are pruned, and any solution reported is strictly better.
          Default [nan] = none. *)
  warm_start : bool;
      (** Re-solve node LPs from the parent's optimal basis via dual
          simplex (default [true]); [false] forces cold two-phase
          solves everywhere — the [archex --cold-start] flag. *)
  cuts : bool;
      (** Run the root cut loop and node separation at all (default
          [true]).  Solver configs above this library leave it on and
          use an empty [cut_families] as their off switch; it stays for
          callers that time the root without its cut loop. *)
  cut_families : Cuts.family list;
      (** Which separation families run (default {!Cuts.all_families}):
          Gomory mixed-integer, knapsack cover, conflict-clique, and the
          caller-supplied structural [separators] (gated by
          {!Cuts.F_power}), in a root cut loop plus periodic
          cover/clique separation at shallow nodes.  The per-family
          ablation axis ([archex --cuts gmi,cover,...], swept by
          [bench/cuts_smoke.exe]); [[]] turns cutting
          planes off. *)
  max_applied_cuts : int;
      (** Total cap on cuts promoted to problem rows (default 32):
          every applied cut permanently grows the row set, taxing each
          subsequent O(m²) warm restore. *)
  cut_max_age : int;
      (** Pool eviction age (default 5): selection rounds a pooled cut
          may go unviolated before eviction ({!Cuts.create_pool}). *)
  cut_pool_size : int;
      (** Pool size cap (default 500); overflow evicts the least
          violated members first. *)
  cut_min_violation : float;
      (** Minimum violation for a pooled cut to be applied at the root
          (default 1e-5); node separation uses 10× this value. *)
  rc_fixing : bool;
      (** Reduced-cost fixing of integer variables at nodes once an
          incumbent exists (default [true]). *)
  pricing : Simplex.pricing;
      (** Entering-column rule for every LP (default [Devex]);
          [Dantzig] restores the PR5 partial candidate-list scan — the
          [--pricing dantzig] flag of [archex] and [bench/smoke.exe]. *)
  harris : bool;
      (** Harris two-pass primal ratio test plus bound-flipping dual
          ratio test (default [true]); [false] restores the classic
          smallest-ratio tests — the [--no-harris] flag of [archex] and
          [bench/smoke.exe]. *)
  log : bool;  (** Print a progress line every ~500 nodes via [Logs]. *)
  nworkers : int;
      (** Worker domains for the tree search (default [1]).  With
          [nworkers = 1] the solver runs today's exact sequential loop —
          node order and every tally are bit-identical run to run.  With
          [nworkers > 1] the root phase (presolve, root cut loop, first
          incumbent dive) still runs sequentially, then the frontier is
          dealt to a work-stealing {!Scheduler} solve (an owned one, or
          the shared pool passed via [?scheduler]) and explored by OCaml
          5 domains: each worker owns a private simplex workspace, parent
          bases travel with the nodes, the incumbent lives in an
          [Atomic], and no cuts are separated after the handoff (the
          working problem is frozen — see DESIGN.md §5e).  Node counts
          then vary run to run, but returned objectives agree with the
          sequential solver to optimality tolerances. *)
  seed : int;
      (** Perturbs the per-worker heuristic schedule (which nodes each
          domain dives from) to diversify parallel exploration.  Ignored
          when [nworkers = 1].  Default [0]. *)
}

val default_options : options
(** 60 s, 200_000 nodes, [rel_gap = 1e-6], [abs_gap = 1e-9],
    presolve, warm starts, cuts (all families, 32 applied, pool age 5 /
    size 500, min violation 1e-5) and reduced-cost fixing on, devex
    pricing with Harris ratio tests, log off, [nworkers = 1],
    [seed = 0]. *)

type result = {
  status : Status.mip_status;
  objective : float;
      (** Incumbent objective in the model's own direction; meaningless
          for [Mip_infeasible]/[Mip_unknown]. *)
  bound : float;  (** Best proven bound (model direction). *)
  solution : float array option;  (** Values indexed by variable id. *)
  nodes : int;  (** Branch & bound nodes processed. *)
  lp_iterations : int;  (** Total simplex iterations. *)
  lp_warm : int;  (** LP solves served by the warm dual-simplex path. *)
  lp_cold : int;  (** LP solves that ran cold (root, no basis). *)
  lp_fallback : int;  (** Warm attempts that fell back to a cold solve. *)
  cuts_separated : int;  (** Cuts accepted into the pool. *)
  cuts_applied : int;  (** Cuts promoted to problem rows. *)
  cuts_seeded : int;
      (** Carried-in cuts that re-certified against this model and
          entered the pool (see [seed_cuts] on {!solve}). *)
  carry_cuts : Cuts.cut list;
      (** Carry-out for an incremental session: every cut applied this
          solve followed by the pool's survivors.  All are globally
          valid for this model; feed them back as [seed_cuts] after the
          model grows.  [Session.solve] keeps them in its session for
          the next solve and returns this field empty. *)
  bound_pruned : int;
      (** Nodes pruned against the incumbent/cutoff bound — before the
          LP (parent bound already too poor) or right after it. *)
  rc_fixed : int;  (** Integer variables fixed by reduced cost. *)
  root_lp_bound : float;
      (** Root LP relaxation objective (model direction) before any
          cuts, whether or not the cut loop runs; the closed-form box
          optimum when presolve removed every row.  [nan] if the root
          LP did not solve to optimality or the root never ran
          ([node_limit = 0], or a timeout or interrupt first). *)
  root_cut_bound : float;
      (** Root objective after the root cut loop; with [root_lp_bound]
          and the final incumbent this yields the root gap closed.
          Equal to [root_lp_bound] when the loop applies no cut (as
          under [cut_families = []]); [nan] when [cuts = false], when
          the root LP failed, or when presolve removed every row. *)
  presolve_rows_removed : int;  (** Rows of the model absent from the reduced problem. *)
  presolve_cols_removed : int;  (** Columns eliminated by the reduction. *)
  presolve_reapplied : bool;
      (** Always [false]: every solve presolves from scratch.  The field
          stays only because the benchmark harness still reads it. *)
  elapsed : float;  (** Wall-clock seconds. *)
}

val gap : result -> float
(** Relative optimality gap of a result ([infinity] without incumbent). *)

val solve :
  ?options:options ->
  ?seed_cuts:Cuts.cut list ->
  ?separators:Cuts.separator list ->
  ?warm_solution:float array ->
  ?ws:Simplex.workspace ->
  ?interrupt:bool Atomic.t ->
  ?on_incumbent:(float -> float -> unit) ->
  ?scheduler:Scheduler.t ->
  Model.t ->
  result
(** Solve the model.  The model is not mutated.

    [interrupt] is a cooperative cancellation flag, checked between
    nodes exactly where the deadline is: once set (from a signal
    handler or another thread) the search stops like a timeout — the
    current incumbent is returned with an honest, non-exhausted bound,
    so the status is [Mip_feasible]/[Mip_unknown], never a false
    [Mip_optimal]/[Mip_infeasible].

    [on_incumbent] fires on every strict incumbent improvement with
    (objective, best proven bound) in the model's own direction — the
    daemon's streaming update hook.  The bound covers the node in hand
    (whose rounding or dive found the incumbent) as well as every other
    open node, so it never passes the final proven optimum.  With
    [nworkers > 1] it runs on a worker domain, so it must be
    thread-safe.

    [scheduler] runs the tree search on a shared {!Scheduler} (a
    daemon's resident domain pool) instead of domains owned by this
    call.  With [options.nworkers <= 1] the search becomes a chain of
    one-node tasks that replays the sequential tree bit-identically —
    node order and all tallies are unchanged; with [nworkers > 1] the
    post-ramp frontier is dealt to the shared pool, sized by the
    scheduler's worker count, and explored exactly as the owned
    parallel drive would.

    [seed_cuts] carries a previous solve's cut pool into this one, in
    original variable ids: each cut is first mapped onto the reduced
    problem ({!Cuts.restrict}; cuts touching a substituted column are
    dropped), then each literal-form cut that re-certifies against the
    (possibly grown) model's base rows under its root bounds
    ({!Cuts.certify_cover}) is pooled before the root cut loop;
    Gomory cuts, cuts of a disabled family, and uncertifiable rows
    (structural power cuts usually — their validity spans several rows,
    so they are re-separated fresh instead) are silently dropped.
    [result.carry_cuts] comes back lifted to original ids again.

    [separators] are problem-structure separation oracles
    ({!Cuts.separator}, e.g. the power/RSS strengthening built from the
    instance data): called during the root cut loop with the postsolved
    (original-space) fractional point, their cuts are mapped onto the
    reduced columns and pooled like any other family.  Gated by
    [options.cuts] and {!Cuts.F_power} membership in
    [options.cut_families].

    [warm_solution] carries a previous incumbent (zero-extended over any
    new columns by the caller).  It is re-validated against the new
    bounds, rows and integrality, restricted through the reduction; when
    valid and at least as good as any [cutoff], it is installed as the
    starting incumbent — so it prunes exactly like a cutoff but is
    returned as a real solution if nothing better is found (instead of
    [Mip_unknown]).

    [ws] lends the solver a persistent {!Simplex.workspace} so LP
    buffers and the CSC image survive across an incremental session's
    solves. *)

val value : result -> int -> float
(** [value r v] is the incumbent value of variable [v].
    @raise Invalid_argument if the result carries no solution. *)
