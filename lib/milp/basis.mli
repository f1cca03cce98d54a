(** Reusable simplex basis snapshots.

    A snapshot captures which column is basic in each row ([basis]), the
    bound status of every column ([stat]) — structural variables first,
    then one slack and one artificial per row — and, when available, a
    sparse LU {!Lu.factor} of the basis matrix at snapshot time.  The
    basis matrix depends only on which columns are basic, never on
    variable bounds, so a child node that differs from its parent only
    in bounds can reuse the parent's factor verbatim: restoring a
    snapshot costs one sparse FTRAN of the right-hand side instead of an
    O(m³) refactorization.  Restores refactorize lazily once the
    factor's update log is stale by the kernel's own rule
    ({!Lu.factor_stale}, see {!Simplex.solve}).  Storing a factor instead
    of a dense m×m inverse also shrinks every node record carried by
    branch & bound from O(m²) to O(nonzeros). *)

type vstat = Basic | At_lower | At_upper | Free_zero

type t = private {
  ncols : int;  (** Structural columns of the problem snapshotted. *)
  nrows : int;  (** Rows of the problem snapshotted. *)
  basis : int array;  (** Column basic in each row; length [nrows]. *)
  stat : Bytes.t;
      (** Per-column status, one byte each (read it with {!status});
          length [ncols + 2*nrows]. *)
  factor : Lu.factor option;
      (** Sparse LU of the basis matrix at snapshot time, when the
          snapshotting solve had one that passed its stability probe;
          [None] forces the restore to refactorize from the header. *)
}

val make :
  ncols:int -> nrows:int -> basis:int array -> stat:vstat array ->
  factor:Lu.factor option -> t
(** Snapshot (copies the header arrays, packing [stat] one byte per
    column; the factor is immutable and shared). *)

val status : t -> int -> vstat
(** [status b j] is column [j]'s status in the snapshot. *)

val append_rows : t -> (int * float) array array -> t
(** [append_rows b rows] grows the snapshot by [k] appended constraint
    rows (sparse, over structural columns only — cut rows never touch
    slacks) whose slacks all start basic.  The grown basis matrix is the
    block triangular [[B 0] [V I]], where row [t] of [V] is [rows.(t)]
    restricted to the basic columns; the stored factor is grown in place
    via {!Lu.extend_rows} — old elimination steps and the update log are
    kept verbatim, so solves over the original rows stay bit-identical
    and the cost is O(k·(m + nnz)) rather than a full snapshot rebuild.
    The grown snapshot stays dual feasible for the grown problem: every
    appended slack has zero cost and zero dual price, leaving every
    reduced cost unchanged.  Branch & bound uses this to ride the warm
    dual simplex across cutting-plane rounds: appending violated cuts
    leaves only primal bound violations on the new slacks, repaired by a
    few dual pivots. *)

val append_row : t -> (int * float) array -> t
(** [append_row b row] is [append_rows b [| row |]]. *)

val compatible : t -> ncols:int -> nrows:int -> bool
(** Does the snapshot belong to a problem of this shape? *)

val well_formed : t -> bool
(** Structural sanity check: basic columns are in range, distinct, and
    consistent with [stat].  A failing snapshot must be discarded. *)
