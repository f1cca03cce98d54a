(** Cutting-plane separation with a managed cut pool.

    Four families of globally valid cuts for the paper's MILPs (binary
    edge/path routing rows 1a–1e, covering-style localization rows
    4a–4b):

    - {b Gomory mixed-integer cuts} read off fractional basic rows of
      the final simplex tableau ({!Simplex.tableau}).  Derived under the
      root bounds they are valid for every integer-feasible point, so
      they may be appended to the global row set.
    - {b Knapsack cover cuts} separated combinatorially from ≤-rows
      whose support is all-binary (hop-count bounds, sizing and
      anchor-covering rows): a cover [C] with [sum a_j > rhs] yields
      [sum_{j in C} x_j <= |C| - 1], extended by every variable at
      least as heavy as the heaviest cover member.
    - {b Clique cuts} from the mined conflict table ({!Conflicts}):
      pairwise-conflicting sets give [sum_{j in Q} x_j <= 1], separated
      by greedy extension from high-value vertices.
    - {b Structural power/RSS/energy cuts} built outside this module
      (from the instance data, see the core library) and injected
      through {!separator} closures; they carry the {!Power} origin.

    Every separated cut passes through a {b pool} that scores violation
    (geometric distance, rows are L2-normalized), filters duplicates and
    near-parallel rows, and evicts members that have not been violated
    for a number of selection rounds.  Selected cuts leave the pool and
    become permanent rows of the working problem; the warm dual simplex
    re-solves after each round by appending rows to the standing basis
    ({!Basis.append_row}), so a separation round costs a handful of dual
    pivots instead of a cold solve. *)

type origin = Gomory | Cover | Clique | Power

type cut = {
  c_row : (int * float) array;
      (** Sparse ≤-row over structural variables, L2-normalized. *)
  c_rhs : float;
  c_origin : origin;
}

(** {1 Families} *)

type family = F_gmi | F_cover | F_clique | F_power
(** The ablation axis: which separation families may run.  Each
    produces the cuts of the origin it names. *)

val all_families : family list

val family_name : family -> string
(** ["gmi"], ["cover"], ["clique"], ["power"]. *)

val family_of_string : string -> (family, string) result

val families_of_string : string -> (family list, string) result
(** Parse a comma-separated family list; ["all"] and ["none"]/[""] are
    recognized.  Duplicates collapse, order is preserved. *)

val families_to_string : family list -> string

val family_of_origin : origin -> family

type separator = float array -> cut list
(** A problem-structure separation oracle: given the {e original-space}
    fractional point (after {!Postsolve.restore}), return violated cuts
    over original column ids.  {!Branch_bound.solve} maps them onto the
    reduced space with {!restrict} before pooling. *)

val make : (int * float) array -> float -> origin -> cut option
(** [make row rhs origin] builds a cut from a ≤-row: sorts the support,
    L2-normalizes, and rejects near-empty rows ([None]).  The public
    constructor for external separators. *)

val violation : cut -> float array -> float
(** [violation c x] = [a·x - rhs]; positive means [x] violates the cut.
    Rows are unit-norm, so this is the Euclidean distance cut off. *)

val satisfied : ?tol:float -> cut -> float array -> bool
(** [a·x <= rhs + tol] (default [tol = 1e-6]).  Used by the validity
    property tests: no integer-feasible point may ever violate a cut. *)

(** {1 Separation} *)

val gomory :
  Simplex.problem ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  Basis.t ->
  max_cuts:int ->
  cut list
(** Separate Gomory mixed-integer cuts from the optimal basis of the
    (possibly cut-augmented) problem under the {e root} bounds.  Rows
    whose basic variable is a non-fixed integer structural with
    fractional value are eligible; slack contributions are substituted
    out through their defining rows so the result is purely structural.
    Rows with free nonbasics, tiny fractionality, or wild coefficient
    ranges are skipped for numerical safety.  At most [max_cuts]
    most-fractional rows are used. *)

val covers :
  Simplex.problem ->
  nrows:int ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  x:float array ->
  max_cuts:int ->
  cut list
(** Separate knapsack cover cuts from the first [nrows] rows of the
    problem (the base rows — never from other cuts) against the
    fractional point [x].  Only rows whose non-fixed support is entirely
    binary under the given (root) bounds are eligible; negative
    coefficients are complemented, fixed variables folded into the rhs.
    Returns the [max_cuts] most violated cuts. *)

val cliques : Conflicts.t -> x:float array -> max_cuts:int -> cut list
(** Separate clique inequalities [sum_{j in Q} x_j <= 1] from the
    conflict table against the fractional point [x].  Greedy clique
    extension (by decreasing LP value) seeded from the highest-value
    conflict vertices; only cliques violated by more than 1e-4 are
    returned, most violated first. *)

(** {1 Pool} *)

type pool

val create_pool : ?max_age:int -> ?max_size:int -> unit -> pool
(** A fresh pool.  [max_age] (default 5) is the number of selection
    rounds a member may go unviolated before eviction; [max_size]
    (default 500) caps the pool, evicting the least violated members
    first. *)

val add : pool -> cut -> bool
(** Offer a cut to the pool.  Returns [false] — and does not store it —
    when an identical cut is already pooled, or a near-parallel one
    (cosine > 0.999) at least as tight exists; a near-parallel strictly
    weaker member is replaced.  Every accepted cut counts as
    separated. *)

val select : pool -> x:float array -> max_cuts:int -> min_violation:float -> cut list
(** One selection round: return up to [max_cuts] pool members violated
    at [x] (violation above [min_violation]), removing them from the
    pool (they become problem rows and count as applied).  Selection is
    {e origin-fair}: a round-robin across the origins present, each
    origin's queue ordered by decreasing violation, so one prolific
    family cannot crowd every other out of the applied-cuts cap.
    Members not violated this round age by one and are evicted past
    [max_age]; violated-but-unselected members stay young. *)

val stats : pool -> int * int
(** [(separated, applied)] counters over the pool's life. *)

val members : pool -> cut list
(** Snapshot of the cuts currently pooled (for carrying across solves). *)

(** {1 Carrying cuts across model growth} *)

val certify_cover :
  Simplex.problem ->
  nrows:int ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  cut -> bool
(** [certify_cover p ~nrows ~integer ~lb ~ub c] re-proves a pooled
    literal-form cut ({!Cover}, {!Clique} or {!Power} —
    anything of the shape [sum_l y_l <= d] with [y_l] a binary variable
    or its complement) against the first [nrows] (base) rows of a
    {e grown} problem under its root bounds, without reference to the
    model the cut was separated from.  The cut is decoded back to
    literal form and accepted iff some base row, relaxed over the box
    to a valid inequality [sum_l w_l y_l <= b] with [w_l >= 0], has its
    [d+1] smallest literal weights already exceeding [b] — which makes
    more than [d] literals at 1 impossible, so the cut is globally
    valid for the new model.  Cliques mined from exactly-one rows
    certify from those same rows; power cuts usually do {e not} certify
    (their validity needs several rows at once) and are re-separated
    fresh instead.  Returns [false] for Gomory cuts (their derivation
    is basis-specific and does not survive new columns) and whenever no
    row certifies: the test is sound but deliberately conservative. *)

(** {1 Mapping cuts through a presolve reduction} *)

val lift : Postsolve.t -> cut -> cut
(** Re-express a cut separated on the {e reduced} problem over original
    column ids ([col_of_red] is injective, so validity and normalization
    are untouched).  Lifted cuts are what {!Branch_bound} reports and
    carries across solves. *)

val restrict : Postsolve.t -> cut -> cut option
(** Map an original-space cut onto the reduced columns: kept columns
    translate, fixed columns fold into the rhs, and a cut touching a
    substituted column is dropped ([None], also returned when nothing
    of the support survives).  Sound because every reduced-feasible
    point restores to an original-feasible one with exactly the folded
    values. *)
