(** Presolve: a composable reduction stack over {!Simplex.problem}s.

    Two entry points share the same propagation core:

    - {!run} is the light per-node engine used inside branch & bound —
      activity-based bound propagation plus row-redundancy detection,
      nothing that would need an index mapping.
    - {!reduce} is the full root reduction stack: worklist
      bound propagation, probing over the 0-1 routing structure,
      parallel-row collapsing, fixed/empty column elimination, free
      column-singleton substitution, and coefficient strengthening.  It
      returns a genuinely smaller {!Simplex.problem} together with a
      {!Postsolve.t} record that maps reduced solutions (and cuts) back
      to the original index space.

    Every tolerance in this module derives from the single [tol]
    parameter: bound improvements must exceed [tol]; infeasibility is
    declared beyond [100 * tol]; integer rounding and unit-width tests
    use [1000 * tol].  At the default [tol = 1e-9] these equal the
    historical hard-coded slacks (1e-7 feasibility, 1e-6 rounding). *)

type outcome =
  | Feasible of {
      lb : float array;  (** Tightened lower bounds. *)
      ub : float array;  (** Tightened upper bounds. *)
      active : bool array;  (** Per-row: still required after presolve. *)
      rounds : int;  (** Number of propagation passes performed. *)
    }
  | Proven_infeasible of string
      (** Human-readable reason (first violated row or empty domain). *)

val run :
  ?max_rounds:int ->
  ?tol:float ->
  Simplex.problem ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  outcome
(** [run p ~integer ~lb ~ub] propagates to fixpoint (at most [max_rounds]
    passes, default 16).  Input arrays are not mutated.  Rows are never
    rewritten, only deactivated, so indices stay stable.  It is
    {!run_flat} on [flatten p]. *)

type flat
(** A flat (CSR) image of a problem's rows, read by {!run_flat}:
    immutable, so one image may serve every domain. *)

val flatten : Simplex.problem -> flat
(** O(rows + nonzeros); build it once per problem, not per call. *)

val run_flat :
  ?max_rounds:int ->
  ?tol:float ->
  flat ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  outcome
(** The engine {!Branch_bound} runs at every node and dive step.  Each
    pass evaluates the active rows in index order; from the second pass
    on it skips a row when no bound of its variables has changed since
    the row was last evaluated, which reproduces that evaluation's
    (empty) effect.  The result, [rounds] included, is exactly that of
    evaluating every active row in every pass. *)

val strengthen :
  ?tol:float ->
  Simplex.problem ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  Simplex.problem * int
(** Coefficient strengthening on inequality rows: for an integer
    variable on a finite box of width at least 1 whose coefficient
    exceeds what the row's max activity can support
    ([d = rhs - amax + |a| > 0]), pull the coefficient toward zero and
    adjust the rhs so every integer point in the box is preserved while
    the LP relaxation tightens.  [>=] rows are handled through negation;
    [=] rows are skipped.  Returns the (possibly shared) problem and the
    number of coefficients changed; [p] itself is never mutated.  Only
    sound under bounds valid for the whole tree — call it once at the
    root. *)

val reduced_problem : Simplex.problem -> bool array -> Simplex.problem * int array
(** [reduced_problem p active] drops inactive rows.  Also returns the
    row index map: entry [k] of the second component is the original
    index of reduced row [k]. *)

(** {1 Reduction stack} *)

type pass =
  | Propagate  (** Worklist bound propagation + row redundancy. *)
  | Probe
      (** Clique/implication mining over 0-1 rows; fixes binaries that
          conflict with every member of an exactly-one set. *)
  | Parallel_rows  (** Collapse duplicate / dominated parallel rows. *)
  | Fix_columns  (** Eliminate columns whose domain shrank to a point. *)
  | Empty_columns
      (** Eliminate columns absent from every surviving row, parked at
          their objective-preferred bound. *)
  | Substitute
      (** Solve continuous column singletons out of equality rows
          (implied-free check; the row is consumed). *)
  | Strengthen  (** Coefficient strengthening on the reduced problem. *)

val all_passes : pass list
(** Every pass, in execution order — the default for {!reduce}. *)

val pass_name : pass -> string

val pass_of_name : string -> pass option

val passes_of_string : string -> (pass list, string) result
(** Parse a comma-separated pass list, e.g. ["propagate,fix,strengthen"]. *)

type pass_stats = {
  ps_pass : pass;
  ps_rows_removed : int;
  ps_cols_removed : int;
  ps_changes : int;
      (** Pass-specific change count: bound tightenings for
          [Propagate], probing fixings for [Probe], coefficients
          changed for [Strengthen]. *)
}

type reduction = {
  red_problem : Simplex.problem;
      (** The reduced problem.  Its [obj_const] already folds the
          objective contribution of every eliminated column, so reduced
          objective values equal original ones exactly. *)
  red_integer : bool array;
  red_lb : float array;
  red_ub : float array;
  red_post : Postsolve.t;
  red_stats : pass_stats list;  (** One entry per pass in {!all_passes}. *)
}

type reduce_outcome = Reduced of reduction | Reduce_infeasible of string

val reduce :
  ?max_rounds:int ->
  ?tol:float ->
  ?passes:pass list ->
  ?essential:bool array ->
  Simplex.problem ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  reduce_outcome
(** [reduce p ~integer ~lb ~ub] runs the enabled [passes] (default
    {!all_passes}) to fixpoint and assembles the reduced problem plus
    its postsolve record.  Input arrays are not mutated.

    [?essential] marks original columns that must survive in the
    reduced problem (e.g. variables referenced by warm-start cuts);
    they are never substituted out. *)
