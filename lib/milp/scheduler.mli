(** Cross-solve domain scheduler: many solves, many workers.

    A persistent process serving many concurrent solves cannot afford
    a domain set spawned and joined per search: that thrashes the OS
    scheduler, and a solve that finishes early leaves its domains idle
    while another solve starves.  The scheduler therefore {e owns} a
    fixed pool of worker domains for the life of the process and
    multiplexes them across every concurrently registered solve.

    Structure per registered solve (a {!handle}):

    - One min-heap per worker slot, each under its own mutex — a worker
      pushes children onto its own heap and steals within the solve
      from the non-empty heap with the best advisory minimum key, so
      per-solve expansion order stays close to global best-first.  Any
      queued node is visible and stealable, whatever its key
      ([infinity] included).
    - A per-solve [pending] counter incremented {e before} a node is
      visible and decremented {e after} its children are pushed, so
      [pending = 0] is an exhaustion proof for {e that} solve alone,
      unaffected by its neighbours.
    - Per-solve in-flight key lists under the heap locks, so
      {!best_bound} never misses a node that is mid-LP on some worker
      and gap-based termination stays sound per solve.

    Across solves, victim selection is weighted-fair: a claiming worker
    orders the active solves by [tasks served / weight] and takes work
    from the least-served solve that has any visible node (own heap
    first, then the best advertised minimum).  A solve with weight 2
    therefore receives about twice the worker attention of a weight-1
    neighbour under contention, and an idle pool devotes every domain
    to whichever solve has work.

    Nodes are payload-free closures: the submitting search captures its
    node record in a [worker:int -> unit] thunk, and the worker slot
    index it receives at run time selects per-slot scratch state (the
    simplex workspace arena).  Retirement is automatic — the scheduler
    decrements [pending] when the closure returns (normally or not), so
    the push-before-visible / retire-after-children accounting cannot
    be broken by a forgotten [task_done].

    Workers sleep on one condition variable when no registered solve
    has visible work; every push, retirement-to-drain, submit, stop and
    shutdown broadcasts while holding the same lock, so wakeups cannot
    be lost.  A closure that raises stops its own solve (not the pool)
    and {!await} re-raises in the submitting thread. *)

type t
(** A domain pool plus the set of currently registered solves. *)

type handle
(** One registered solve. *)

val create : nworkers:int -> t
(** Start [nworkers >= 1] worker domains, idle until a solve is
    submitted.  Domains parked by an earlier {!shutdown} are taken
    first; only the rest are spawned.
    @raise Invalid_argument on [nworkers < 1]. *)

val nworkers : t -> int

val submit : ?weight:float -> t -> handle
(** Register a solve with the given fair-share weight (default [1.],
    must be positive).  The handle starts empty and drained; push its
    root node(s) to start work.
    @raise Invalid_argument if the scheduler was shut down or the
    weight is not positive. *)

val push : handle -> worker:int -> float -> (int -> unit) -> unit
(** [push h ~worker key task] queues [task] at priority [key] (smaller
    runs first) on heap [worker mod nworkers] of [h]'s solve.  The task
    runs as [task slot] on some worker slot; children it pushes should
    use that slot as their [~worker].  Safe from any domain or thread,
    including after {!stop} (the node is accepted and simply remains
    queued). *)

val best_bound : handle -> float
(** Minimum key over this solve's queued and in-flight nodes
    ([infinity] when none), read as one snapshot under every heap
    lock. *)

val queued : handle -> int
(** Queued (not in-flight) nodes of this solve. *)

val stop : handle -> unit
(** Make workers ignore this solve's remaining nodes; tasks already
    running finish normally.  Idempotent. *)

val stopped : handle -> bool

val drained : handle -> bool
(** [pending = 0]: every node pushed to this solve was run and retired
    — the per-solve exhaustion proof. *)

val await : handle -> unit
(** Block until this solve is finished: drained, or stopped with no
    task still running.  Deregisters the solve (its heaps stay readable
    for {!best_bound}/{!queued}) and re-raises, with its original
    backtrace, the first exception any of its tasks raised. *)

val shutdown : t -> unit
(** Stop every registered solve, wake the worker domains and wait until
    each has left this pool.  The domains are not joined but parked for
    the next {!create} in the process, so successive pools reuse their
    minor heaps, per-domain scratch and malloc arenas; a parked domain
    sleeps on a condition variable and still takes part in the
    stop-the-world phases of the garbage collector.  Idempotent;
    {!submit} afterwards raises.  Pending {!await} calls return once
    their running tasks finish.  Re-raises the first exception a worker
    loop raised (tasks' own exceptions go to {!await}). *)
