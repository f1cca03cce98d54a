(** Long-lived workers that park between jobs.

    A process that starts short-lived workers again and again (worker
    domains for one pool after another, a thread per accepted
    connection) leaves each new domain or thread to rebuild what the
    last one had: its minor heap, its per-domain solver scratch, and
    the malloc arena the C library gives every new thread, whose pages
    stay resident after the thread ends.  A parking lot keeps the
    workers instead: one that finishes its job sleeps on a condition
    variable until {!run} hands it the next, and new workers are
    started only when none is parked. *)

type t
(** A set of parked workers, all started by one [spawn] function. *)

val create : spawn:((unit -> unit) -> unit) -> t
(** [spawn f] must run [f] on a new domain or thread, e.g.
    [fun f -> ignore (Domain.spawn f)]. *)

val run : t -> (unit -> unit) -> after:(exn option -> unit) -> unit
(** [run lot job ~after] runs [job] on a parked worker, or on a new one
    when none is parked, and returns at once.  When [job] returns or
    raises, the worker parks again and then calls [after] with the
    exception [job] raised, if any; a worker never dies of its job's
    exception. *)
