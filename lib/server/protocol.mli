(** The archexd wire protocol: length-prefixed binary frames.

    Every frame on the socket is [u32 BE payload length][payload]; the
    payload's first byte is a tag.  Integers are big-endian, floats
    travel as IEEE-754 bit patterns (so [infinity] bounds round-trip
    exactly), strings are length-prefixed, options carry a presence
    byte.

    Frame catalogue:

    {v
    tag   direction  frame
    0x01  -> daemon  Ping
    0x02  -> daemon  Solve (LP text or named workload + overrides)
    0x03  -> daemon  Shutdown (drain and exit)
    0x81  <- daemon  Pong (version, workers, cached sessions)
    0x82  <- daemon  Result (status, objective, bound, tallies)
    0x83  <- daemon  Rejected (admission queue full — back off)
    0x84  <- daemon  Error (parse/encode failure, unknown workload)
    0x85  <- daemon  Update (streaming incumbent/bound improvement)
    0x86  <- daemon  Interrupted (shutdown drained this solve)
    v}

    A [Solve] is answered by any number of [Update] frames (when
    streaming was requested) followed by exactly one terminal frame:
    [Result], [Rejected], [Error] or [Interrupted]. *)

type solve_payload =
  | Lp of string
      (** An LP-format model ({!Milp.Lp_format} subset); solved at the
          MILP layer, no session cache. *)
  | Workload of { name : string; kstar : int }
      (** A named scenario from {!Archex.Scenario}; served from the
          template-keyed session cache. *)

type overrides = {
  o_time_limit : float option;
  o_rel_gap : float option;
  o_workers : int option;  (** [0] = auto-detect on the daemon. *)
  o_seed : int option;
  o_deadline_s : float option;
      (** Wall-clock budget for this request, in seconds from receipt,
          enforced on the daemon's monotonic {!Milp.Clock}. *)
  o_presolve : bool option;
      (** Toggle the presolve reduction stack for this request; [None]
          keeps the daemon default; a warm cached session takes it
          through {!Archex.Session.reconfigure}. *)
  o_heuristic : string option;
      (** Primal matheuristic mode for this request: ["tabu"] or
          ["off"]; [None] keeps the daemon default. *)
  o_cuts : string option;
      (** Cut families to separate, in the
          {!Milp.Cuts.families_of_string} spelling (["all"], ["none"],
          ["gmi,cover,..."]); parsed on the daemon, a bad list rejects
          the request.  [None] keeps the daemon default. *)
  o_cut_max_applied : int option;  (** Cut rows appended per round. *)
  o_cut_max_age : int option;  (** Pool eviction age, in rounds. *)
  o_cut_pool_size : int option;  (** Managed pool capacity. *)
  o_cut_min_violation : float option;
      (** Root application threshold; node separation uses 10x this. *)
  o_stream : bool;  (** Request [Update] frames. *)
}

val no_overrides : overrides

type request =
  | Ping
  | Solve of { payload : solve_payload; overrides : overrides }
  | Shutdown

type result_info = {
  r_status : string;  (** {!Milp.Status.mip_status_to_string}. *)
  r_objective : float;
  r_bound : float;
  r_nodes : int;
  r_lp_iterations : int;
  r_solve_time_s : float;
  r_workers : int;  (** Resolved worker count the search used. *)
  r_cache_hit : bool;  (** Served from a warm cached session. *)
}

type response =
  | Pong of { version : string; workers : int; sessions : int }
  | Result of result_info
  | Update of { u_objective : float; u_bound : float; u_elapsed_s : float }
  | Interrupted of { i_objective : float; i_bound : float; i_has_incumbent : bool }
  | Rejected of string
  | Error_msg of string

val encode_request : request -> Bytes.t
(** Payload bytes of a request frame (no length prefix). *)

val decode_request : Bytes.t -> (request, string) result
(** Inverse of {!encode_request}; rejects unknown tags, truncated
    payloads and trailing bytes. *)

val encode_response : response -> Bytes.t

val decode_response : Bytes.t -> (response, string) result

exception Bad of string
(** Framing failure on a socket (short write, truncated frame). *)

val send : Unix.file_descr -> Bytes.t -> unit
(** Write one frame (length prefix + payload) with a single [write]
    per frame.  Callers sharing a descriptor across threads must still
    serialize whole frames.  @raise Bad on short writes. *)

val recv : Unix.file_descr -> (Bytes.t option, string) result
(** Read one frame's payload.  [Ok None] = clean EOF before a frame;
    [Error _] = oversized/negative length or mid-frame EOF. *)

val recv_exn : Unix.file_descr -> Bytes.t option
(** {!recv}, raising {!Bad} instead of returning [Error]. *)

val max_frame : int
(** Upper bound on accepted payload length (64 MiB). *)
