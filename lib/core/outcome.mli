(** The one result type every driver returns.

    {!Solve.run}, {!Session.solve} and each {!Kstar.search} step used to
    carry two near-duplicate outcome records ([Solve.outcome] /
    [Session.outcome]) bridged by a conversion function; this module is
    the single shared shape.  Fields that only make sense for the
    approximate/session path ([kstar], [delta_paths], [pool_size]) are
    zero for a [Full_enum] solve. *)

type stats = {
  nvars : int;
  nconstrs : int;
  encode_time_s : float;
      (** Pool extension + (delta or full) encode time attributed to
          this solve. *)
  solve_time_s : float;
  extract_time_s : float;  (** Solution extraction + physics validation. *)
  kstar : int;  (** [K*] of the step this outcome belongs to; 0 for full. *)
  delta_paths : int;
      (** Candidate paths added since the previous solve of the same
          session (the whole pool on a first solve); 0 for full. *)
  pool_size : int;
      (** Cumulative candidate paths across all routes; 0 for full. *)
  workers : int;
      (** Worker domains the tree search actually used — the resolved
          count after [--workers 0] auto-detection, so logs and bench
          JSON can report the truth on single-thread hosts. *)
  heuristic_time_s : float;
      (** Wall clock spent in the primal matheuristic (tabu search)
          before the tree search; 0 when the heuristic is off or was
          not run for this solve. *)
}

type t = {
  solution : Solution.t option;  (** Present when an incumbent exists. *)
  status : Milp.Status.mip_status;
  stats : stats;
  mip : Milp.Branch_bound.result;
      (** The solver's result.  From {!Session.solve} its [carry_cuts]
          is empty: the session keeps them for its next solve. *)
  model : Milp.Model.t;
      (** The solved model (e.g. for LP export).  From {!Session.solve}
          it is the session's live model, which later {!Session.grow}
          calls extend in place; [stats.nvars] and [stats.nconstrs]
          give the size that was solved. *)
}
