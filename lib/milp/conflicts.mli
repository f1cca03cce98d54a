(** Reusable conflict / clique / implication table over the 0-1
    structure of a problem.

    Mined once from the rows under a given set of (root or working)
    bounds, the table answers "can these two binaries both be 1?", "who
    conflicts with [j]?", "which variables does setting [j] to 1
    force?", and enumerates the exactly-one sets — the shared substrate
    for {!Presolve}'s probing fixings and for the structured cut
    family ({!Cuts.cliques}).

    Mining rules (all sound for every integer-feasible point under the
    given bounds):
    - {b Pair conflicts} from ≤/=-rows whose support is all-positive
      binary: [j1] and [j2] conflict when the row's minimum activity
      with both raised to 1 already overflows the rhs.
    - {b Exactly-one cliques} from unit-coefficient =-rows with rhs 1;
      their members are recorded as a clique (and pairwise conflicts).
    - {b Implications} from two-variable rows over binaries: each of
      the four 0/1 assignments is checked against the row; a forbidden
      [(1,0)] corner is the implication [j1 = 1 ⇒ j2 = 1], a forbidden
      [(1,1)] corner a conflict. *)

type t

val build :
  ?max_row_len:int ->
  ?tol:float ->
  ?rows:bool array ->
  Simplex.problem ->
  nrows:int ->
  integer:bool array ->
  lb:float array ->
  ub:float array ->
  t
(** Mine the first [nrows] rows (the base rows — never cut rows) under
    the given bounds.  [max_row_len] (default 64) skips longer rows to
    bound the pairwise scan; [rows], when given, masks rows to consider
    (presolve passes its active set).  [tol] (default 1e-9) derives the
    feasibility slack exactly as in {!Presolve}. *)

val nvars : t -> int

val npairs : t -> int
(** Number of distinct conflicting pairs. *)

val conflict : t -> int -> int -> bool
(** [conflict t a b]: can [a] and [b] not both be 1? *)

val neighbors : t -> int -> int list
(** All variables conflicting with [j] (empty when none). *)

val implied : t -> int -> int list
(** Variables forced to 1 by [j = 1] (empty when none). *)

val vertices : t -> int list
(** Variables with at least one conflict, ascending. *)

val cliques : t -> (int * int array) list
(** Exactly-one sets as [(row index, members)], one per mined row. *)
