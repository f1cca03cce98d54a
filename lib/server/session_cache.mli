(** Template-keyed LRU cache of warm, stateful values (solver
    sessions).

    Cached values are mutable and single-user, so the interface is
    exclusive checkout/checkin: {!checkout} hands the value of a key to
    exactly one caller at a time (a concurrent checkout of the same key
    blocks until the holder checks it back in — serializing on the warm
    session is what makes it warm), and {!checkin} returns it, marking
    the entry most-recently used.  Eviction drops the stalest idle
    entries only; checked-out values are pinned.

    [capacity = 0] disables caching entirely ([archexd --cache 0]):
    every checkout builds fresh, checkin discards. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument on negative capacity. *)

val checkout : ('k, 'v) t -> 'k -> create:(unit -> 'v) -> 'v * bool
(** [checkout t key ~create] returns [(value, hit)].  [hit = true]
    means a warm cached value; [false] means [create] built it (the
    build runs outside the cache lock; concurrent requests for the
    same key wait rather than double-build).  If [create] raises, the
    placeholder is withdrawn and the exception propagates. *)

val checkin : ('k, 'v) t -> 'k -> 'v -> unit
(** Return a checked-out value (or insert a fresh one), making it
    most-recently used and waking blocked checkouts.  May evict the
    stalest idle entries down to capacity. *)

val discard : ('k, 'v) t -> 'k -> unit
(** Drop an entry instead of checking it back in (e.g. the session is
    poisoned by a failed solve). *)

val length : ('k, 'v) t -> int

val stats : ('k, 'v) t -> int * int
(** [(hits, misses)] since creation. *)
