(** The archexd server core: a persistent solver process multiplexing
    concurrent solve requests over one shared worker-domain pool.

    One {!create} builds the whole serving stack:

    - a {!Milp.Scheduler} domain pool sized by the config's worker
      count ([0] = auto-detect via [Domain.recommended_domain_count]);
      every request's tree search runs on this pool, so two concurrent
      solves share domains under the scheduler's weighted fair
      victim selection instead of oversubscribing the machine;
    - an {!Admission} gate bounding concurrent solves and the waiting
      room, with [Rejected] backpressure frames beyond both;
    - a {!Session_cache} of warm {!Archex.Session}s keyed by workload
      name, so repeated requests for a template reuse its path pools,
      presolve trace, cut carry and incumbent;
    - a Unix-domain listening socket speaking {!Protocol}.

    {!run} owns the accept loop: one handler thread per connection,
    requests on a connection served in order.  Solve handlers block in
    the scheduler while node processing happens on pool domains, so
    handler threads (which share the runtime's domain 0) stay cheap.

    Shutdown is cooperative and drains: {!request_shutdown} (async-
    signal-safe — a single atomic store, so it may be called from a
    SIGINT/SIGTERM handler) stops the accept loop; the daemon then
    closes admission, raises every in-flight request's interrupt flag
    so searches return their current incumbents as [Interrupted]
    frames, waits for handlers to finish, and joins the pool domains.
    {!run} returns [false] if connections failed to drain within the
    configured timeout — the caller should exit nonzero (the CI smoke
    step's leaked-domain check). *)

type config = {
  c_socket : string;  (** Unix-domain socket path to listen on. *)
  c_workers : int;  (** Pool domains; [0] = auto-detect. *)
  c_max_active : int;  (** Concurrent solves admitted. *)
  c_max_waiting : int;  (** Bounded waiting room beyond the lane. *)
  c_cache_capacity : int;
      (** Warm sessions kept; [0] disables the cache (cold mode). *)
  c_time_limit : float;
      (** Default per-solve time limit (seconds) when the request
          carries no override. *)
  c_drain_timeout : float;
      (** Seconds to wait for in-flight work on shutdown before
          declaring the drain failed. *)
  c_verbose : bool;  (** Log to stderr. *)
}

val default_config : config
(** [archexd.sock], one worker, 2 active / 4 waiting, 4 cached
    sessions, 60 s limit, 30 s drain, quiet. *)

val version : string

type t

val create : config -> (t, string) result
(** Resolve the worker count, spin up the scheduler pool and bind the
    listening socket (an existing socket file at the path is
    replaced).  [Error] on socket failures. *)

val workers : t -> int
(** The resolved pool size (after [0] auto-detection). *)

val request_shutdown : t -> unit
(** Flag the daemon to drain and stop.  Async-signal-safe. *)

val run : t -> bool
(** Serve until {!request_shutdown} or a [Shutdown] frame, then drain.
    Returns [true] on a clean drain (all handlers finished, pool
    domains joined, socket removed); [false] if in-flight connections
    outlived the drain timeout. *)
