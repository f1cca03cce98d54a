(** Sparse LU factorization of a simplex basis with Forrest–Tomlin
    updates.

    The basis matrix [B] is given column-wise by basis {e position}: the
    column basic in row slot [i] of the simplex state.  [factorize] runs
    a right-looking sparse Gaussian elimination with Markowitz pivot
    ordering (cheapest fill estimate first) under threshold pivoting
    (a pivot must carry a fixed fraction of its column's largest active
    magnitude), producing permuted triangular factors [P_r B P_c = L U]
    stored sparsely: [L] as per-step multiplier columns, [U] as per-step
    rows.  Both solves are O(factor nonzeros):

    - {!ftran}: [x := B⁻¹ x] — input indexed by row, output by position;
    - {!btran}: [x := B⁻ᵀ x] — input indexed by position, output by row.

    After a simplex pivot replaces the column at position [r],
    {!replace} applies a Forrest–Tomlin update instead of refactorizing:
    the entering column's spike [L⁻¹a] (pushed through the earlier row
    etas), kept by the {!ftran_spike} that computed its FTRAN image,
    becomes U's new last column, and one row eta eliminates the replaced
    row's entries in the columns after it.  The core [L] and [U] never
    change; the updates form a log of immutable entries.  The caller
    refactorizes when {!replace} reports an unstable update or {!stale}
    holds.

    A {!factor} is an immutable snapshot of a handle (shared core plus a
    copy of the log's entry pointers, O(updates) words) safe to store in
    {!Basis.t} and to hand across domains; {!of_factor} reopens it as a
    private working handle, and two handles reopened from one snapshot
    never see each other's updates.  {!extend_rows} grows a factor for
    appended constraint rows whose slacks start basic — the grown matrix
    is block triangular, so the old steps and the log's entries are kept
    and solves touching only the original rows keep their values. *)

type t
(** Mutable working handle: triangular core + growing update log.  Owned
    by one solver state; never shared across domains.  Solves borrow
    their step-space vector from the calling domain's scratch. *)

type factor
(** Immutable snapshot of a handle, safe to share and to store in basis
    snapshots. *)

val factorize_csc :
  m:int -> colp:int array -> coli:int array -> colv:floatarray -> int array -> t option
(** [factorize_csc ~m ~colp ~coli ~colv basis] factorizes the [m]×[m]
    matrix whose column at position [i] is column [basis.(i)] of the
    compressed sparse column (CSC) matrix [colp]/[coli]/[colv]: column
    [j] holds the rows [coli.(k)] and values [colv.(k)] for [k] in
    [colp.(j)] to [colp.(j+1) - 1].  A row repeated within a column is
    summed into its first occurrence, as in constraint-column storage;
    entries that sum to zero, or lie outside [0, m), make no entry (the
    latter makes the matrix singular).

    Pivot rule, at each elimination step: among active entries carrying
    at least 0.1 of their column's largest active magnitude (columns
    whose largest is at most 1e-11 offer none), take the smallest fill
    score [(column count - 1) * (row count - 1)], then the largest
    |a|, then the first in scan order (columns by position, entries in
    column order).  A zero score cannot be beaten, so it ends the
    search at the first column in position order that holds one; the
    pivot is that column's zero-score entry of largest |a| (the first
    on ties).  Zero-score pivots are found without a full scan, but
    the choice, and so the factors, are those of the full scan.

    Entry order: a column the elimination rewrites keeps its surviving
    entries in their order, then its fill-ins in the order of the pivot
    column's L entries; a step's U row lists the columns it was
    eliminated from in the reverse of the order they were reached.
    Solves depend on that order bit for bit.

    Allocation: every working array lives in a scratch buffer owned by
    the calling domain and reused across calls, so a factorization
    allocates the returned factor (O(m + nnz(L+U)) words) and a few
    closures; a call that finds its domain's scratch in use (another
    systhread of the domain is mid-call) works on a fresh one.

    Returns [None] when the matrix is singular or fails the
    conditioning probe (solving against the all-ones vector must
    reproduce it to a relative 1e-8), so a caller can fall back to a
    cold start. *)

val factorize : m:int -> (int -> (int * float) array) -> t option
(** [factorize ~m col] is {!factorize_csc} on the matrix whose column
    at position [i] is the sparse vector [col i]: the same factors, bit
    for bit.  It copies the columns into CSC form first, so it suits
    tests and small one-off callers. *)

val dim : t -> int

val nnz : t -> int
(** Nonzeros across [L], [U] and the update log (stats only). *)

val stale : t -> bool
(** The refactorization rule: [true] once the log holds more entries
    than the factorization ([m + nnz(L + U)]) or 100 updates.  The
    caller should refactorize. *)

val ftran : t -> float array -> unit
(** In-place solve [B x' = x]: input indexed by row, output by basis
    position.  Length must be [dim]. *)

val btran : t -> float array -> unit
(** In-place solve [Bᵀ x' = x]: input indexed by basis position, output
    by row.  Length must be [dim]. *)

val btran2 : t -> float array -> float array -> unit
(** [btran2 t x x2] is [btran t x; btran t x2], bit for bit, in one
    sweep over the factors and the update log (the stats book two BTRAN
    calls).  [x] and [x2] must be distinct arrays of length [dim]. *)

val ftran_spike : t -> float array -> unit
(** {!ftran}, which also keeps the spike of [x] for a following
    {!replace}: call it on the entering column. *)

val replace : t -> r:int -> alpha:float -> bool
(** [replace t ~r ~alpha] updates the factorization for a pivot that
    replaced the column at position [r] by the column the last
    {!ftran_spike} solved, where [alpha] is that solve's entry at [r]
    (the pivot element).  The update is always applied — the handle
    stays algebraically consistent with the new basis — but the return
    value is [false] when it fails the stability test (the pivot is
    below 1e-9, or the new diagonal of U departs from the old one times
    [alpha] by more than a relative 1e-8); the caller should
    refactorize.  Raises [Invalid_argument] when no spike was kept since
    the last update. *)

val snapshot : t -> factor
(** Freeze the handle (copies the log's entry pointers; shares the core
    and the entries). *)

val of_factor : factor -> t
(** Reopen a snapshot as a fresh working handle (copies the log's entry
    pointers back; shares the core). *)

val factor_dim : factor -> int

val factor_updates : factor -> int

val factor_stale : factor -> bool
(** {!stale} of the handle the snapshot was taken from. *)

type stats = {
  s_ftran_calls : int;
  s_ftran_nnz : int;  (** Total nonzeros across all FTRAN results. *)
  s_btran_calls : int;
  s_btran_nnz : int;  (** Total nonzeros across all BTRAN results. *)
  s_factorizations : int;  (** Successful {!factorize} runs. *)
}
(** Process-wide kernel counters (atomic; shared by all workers). *)

val set_stats_enabled : bool -> unit
(** Off by default — the per-solve nonzero census costs an extra O(m)
    scan, so only perfbench turns it on. *)

val stats : unit -> stats

val reset_stats : unit -> unit

val extend_rows : factor -> (int * float) array array -> factor
(** [extend_rows f vrows] grows the factor by [k] appended rows whose
    own (slack) columns start basic, where [vrows.(t)] lists the new
    row's coefficients on the {e old basic columns by position}.  The
    grown matrix is the block-triangular [[B 0] [V I]]; the old steps
    are kept verbatim, the update log keeps its entries (its slots
    renumbered past the new steps), and the new rows eliminate
    trivially on their unit diagonal, so FTRAN results on the original
    rows, and BTRAN results on the original positions when the new ones
    are zero, keep their values; FTRAN keeps its bits.
    O(k · (dim + nnz + log)). *)
