(** Bounded-variable primal simplex for linear programs.

    Solves [min c^T x  s.t.  A x {<=,>=,=} b,  l <= x <= u] using the
    two-phase method: artificial variables give an identity starting
    basis; phase 1 minimizes total artificial value, phase 2 the true
    objective.  The basis is maintained as a sparse LU factorization
    with Forrest–Tomlin updates ({!Lu}): each iteration prices via one
    sparse BTRAN, forms the entering column via one sparse FTRAN whose
    spike becomes the update of the pivot, and refactorizes once an
    update fails its stability test or the update log outgrows the
    factorization.

    Pricing defaults to devex (reference-framework weights approximating
    steepest edge, maintained reduced costs updated from the pivot row,
    periodic reference resets), with the PR5 partial candidate-list
    Dantzig scan kept behind [~pricing:Dantzig] as an ablation.  Either
    way an automatic switch to Bland's full lowest-index rule under
    prolonged degeneracy guarantees termination.  The primal ratio test
    defaults to the Harris two-pass test (tolerance-relaxed first pass,
    max-|pivot| second pass) with a bound-flipping (long-step) ratio
    test in the dual repair loop; [~harris:false] restores the classic
    smallest-ratio tests.

    Hot working storage (bounds, statuses, scratch vectors, the CSC
    image of the constraint matrix and a CSR image of its rows) lives
    in a {!workspace} arena that callers may reuse across re-solves —
    branch & bound keeps one per worker domain — eliminating per-solve
    allocation on node re-solves.

    Variable bounds may be infinite.  Maximization is handled by the
    caller negating the objective (see {!Branch_bound} and {!solve_model}).

    The solver works on an immutable {!problem} snapshot so that branch &
    bound can re-solve with modified bounds without rebuilding rows.

    Re-solves can additionally be warm started from a prior optimal
    {!Basis.t}: the snapshot's factor is reopened under the new bounds
    and primal feasibility is restored by a bounded-variable {e dual}
    simplex loop — a handful of pivots when only a few bounds changed —
    before the primal phase confirms optimality.  The dual loop picks
    its leaving row by dual devex weights, whatever the [pricing]
    setting.  It keeps its reduced costs up to date from pivot to
    pivot, so after the first pivot of a call each pivot costs one BTRAN
    for a row of [B⁻¹] and a pivot row built from that row's nonzero
    entries.  A stale, singular, or stalling basis silently falls back
    to the cold two-phase path. *)

type problem = {
  ncols : int;  (** Number of structural variables. *)
  rows : (int * float) array array;  (** Sparse rows: [(col, coef)] lists. *)
  senses : Model.sense array;
  rhs : float array;
  obj : float array;  (** Minimization coefficients, length [ncols]. *)
  obj_const : float;
}

type pricing =
  | Dantzig  (** Partial candidate-list largest-reduced-cost scan (PR5). *)
  | Devex  (** Reference-framework devex weights (default). *)

type workspace
(** Reusable per-solve arena: the CSC image of the constraint matrix,
    a CSR image of its rows, plus every working array of the solver
    state.  A workspace may be used by one solve at a time and must not
    be shared across domains; reusing one across re-solves (same or
    different problems — buffers resize on shape change) eliminates
    per-solve allocation. *)

val create_workspace : unit -> workspace
(** A fresh, empty workspace.  Cheap; buffers grow on first use. *)

type warm_kind =
  | Cold  (** No basis given (or an empty box): two-phase solve. *)
  | Warm  (** The given basis was restored and dual-repaired. *)
  | Warm_fallback  (** The given basis was unusable; cold solve ran. *)

type result = {
  status : Status.lp_status;
  objective : float;  (** Meaningful when [status = Lp_optimal]. *)
  primal : float array;  (** Length [ncols]; variable values. *)
  iterations : int;
  basis : Basis.t option;
      (** Optimal basis snapshot, reusable as [?basis] for a re-solve
          after bound changes; [None] unless [status = Lp_optimal]. *)
  warm : warm_kind;  (** Which path produced the result. *)
}

val of_model : Model.t -> problem
(** Snapshot a model's rows into solver form.  Maximization objectives
    are negated (callers must negate reported objectives back). *)

val solve :
  ?basis:Basis.t ->
  ?max_iterations:int ->
  ?feas_tol:float ->
  ?deadline:float ->
  ?pricing:pricing ->
  ?harris:bool ->
  ?ws:workspace ->
  problem ->
  lb:float array ->
  ub:float array ->
  result
(** Solve the LP relaxation with the given working bounds (arrays of
    length [ncols]; entries may be [neg_infinity]/[infinity]).
    [basis], when given, must come from a prior solve of the {e same}
    [problem] (any bounds); the solver then warm starts from it and
    falls back to the cold path automatically if it cannot (the result's
    [warm] field says which happened).
    [max_iterations] defaults to [50_000 + 50 * (rows + cols)].
    [feas_tol] (default [1e-7]) is the primal feasibility tolerance.
    [deadline] is an absolute {!Clock.now} instant after which
    the solve aborts with [Lp_iteration_limit] (checked every few
    iterations) — branch & bound uses it to make its wall-clock limit
    hold even when a single LP is huge.
    [pricing] (default [Devex]) selects the entering-column rule;
    [harris] (default [true]) enables the Harris two-pass primal ratio
    test and the bound-flipping dual ratio test.  All combinations agree
    on the optimum to solver tolerances; they differ in iteration count
    and numerical robustness.
    [ws], when given, supplies the working-storage arena ({!workspace});
    when absent a private one is allocated.  Pass the same workspace to
    successive re-solves to eliminate per-solve allocation. *)

val add_rows : problem -> ((int * float) array * Model.sense * float) list -> problem
(** [add_rows p extra] appends constraint rows (sparse row, sense, rhs)
    to the snapshot.  Bases from the original problem are {e not}
    compatible with the grown one — grow them alongside with
    {!Basis.append_row} (one call per appended row, in order) to keep
    warm starting across cutting-plane rounds. *)

type tableau = {
  t_ncols : int;  (** Structural columns. *)
  t_nrows : int;  (** Rows. *)
  t_basic : int array;  (** Column basic in each row. *)
  t_xb : float array;  (** Value of the basic variable per row. *)
  t_stat : Basis.vstat array;  (** Status per column, length [ncols + 2*nrows]. *)
  t_lb : float array;  (** Working bounds per column (slacks included). *)
  t_ub : float array;
  t_row : int -> (int * float) array;
      (** [t_row i] is the tableau row [alpha = B⁻¹A] of basis position
          [i], restricted to nonbasic columns that are not fixed
          ([lb < ub]); entries below [1e-9] are dropped.  Column indices
          cover structurals [[0,n)] and slacks [[n,n+m)] (artificials are
          sealed, hence fixed, hence absent).  One sparse BTRAN plus a
          pass over the rows where that row of [B⁻¹] is nonzero, per
          call. *)
}

val tableau : problem -> lb:float array -> ub:float array -> Basis.t -> tableau option
(** Tableau-row access for cut separation: restores the state an optimal
    basis describes (the same path a warm start takes) and exposes basic
    values plus on-demand rows of [B⁻¹A].  [None] if the basis is stale,
    malformed, or singular. *)

val reduced_costs : problem -> Basis.t -> float array option
(** Phase-2 reduced costs [c - c_B B⁻¹ A] of the structural columns
    under an optimal basis — one sparse BTRAN against the snapshot's
    factor — the inputs to reduced-cost fixing.  [None] if the basis
    shape does not match the problem or its matrix cannot be
    factorized. *)

val solve_model : ?max_iterations:int -> Model.t -> result
(** Convenience wrapper: snapshot the model, use its declared bounds and
    solve, converting the objective sign back for maximization models.
    Integrality is ignored (LP relaxation). *)

(** A view into one warm-started solver state, for the equivalence
    tests of the dual loop's pivot row, maintained reduced costs and
    devex row weights.  Not part of the solving API. *)
module Probe : sig
  type t

  val warm : problem -> lb:float array -> ub:float array -> Basis.t -> t option
  (** The state {!solve} restores from the basis before its dual loop
      (devex pricing, bound-flipping ratio test, a private workspace);
      [None] where [solve] would fall back to a cold solve first. *)

  val updates : t -> int
  (** Forrest–Tomlin updates on the state's factor. *)

  val dual : t -> max_pivots:int -> int
  (** Runs the warm dual loop as one call of at most [max_pivots]
      pivots; returns the pivots made. *)

  val binv_row : t -> int -> float array
  (** [rho = e_r B⁻¹], one BTRAN against the state's factor. *)

  val pivot_row : t -> float array -> (int * float) array
  (** The row-wise pivot row [rhoᵀ[A I]] over the rows where [rho] is
      nonzero: [(j, alpha_j)] for every column it touches, each once;
      an absent column has [alpha_j = 0]. *)

  val rho_dot : t -> float array -> int -> float
  (** [rhoᵀ[A I]_j], one walk over column [j]. *)

  val weights : t -> float array
  (** The dual devex row weights, by basis position, as the last
      {!dual} call left them (all 1 at the start of each call). *)

  val dual_row : t -> int option
  (** The basis position the next dual pivot would leave by the dual
      devex rule; [None] when every basic value is within its bounds. *)

  val entering_column : t -> float array
  (** [B⁻¹a_q] for the entering column [q] of the last dual pivot,
      position-indexed, against the basis before that pivot. *)

  val reduced_costs : t -> (int * float * float) array
  (** [(j, maintained, fresh)] for every nonbasic, non-fixed column:
      the reduced cost the dual loop maintained, and one recomputed
      from fresh duals.  The state keeps the fresh ones. *)
end
