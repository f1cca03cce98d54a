(** The scenario registry: one first-class catalogue of named, buildable
    problem instances shared by the CLI, the daemon, the benches, the
    examples and the scenario generator.

    {!Scenarios} stays the low-level builder toolkit, the six Table-1
    entries are registered at module initialisation, and
    [Scenario_gen.register_defaults] adds the generated tactical
    families — which makes them addressable by name over the daemon
    protocol with no server changes: the daemon looks request names up
    in this table, and the name doubles as its session-cache key.

    The registry is process-global and intended to be populated during
    start-up (module init / main), before any concurrent lookups. *)

type scale =
  | Test  (** Seconds-fast; CI smoke and regression pins. *)
  | Bench  (** The Table-1 bench scale. *)
  | Tactical  (** Hundreds of candidates; pure B&B times out. *)

type t = {
  sc_name : string;  (** Unique lookup key; doubles as the daemon's session-cache key. *)
  sc_descr : string;
  sc_scale : scale;
  sc_expected : float option;
      (** Known-optimal objective, when one is pinned (used by smoke
          checks to assert agreement). *)
  sc_build : unit -> (Instance.t, string) result;
      (** Instance thunk; deterministic — building twice must yield
          identical instances. *)
}

val register : t -> unit
(** @raise Invalid_argument on a duplicate or empty name. *)

val names : unit -> string list
(** All registered names, in registration order. *)

val all : unit -> t list

val find : string -> (t, string) result
(** The entry, or an error listing the known names. *)

val instance : t -> (Instance.t, string) result
(** Build the scenario's instance (runs the thunk). *)

val name : t -> string

val descr : t -> string

val scale : t -> scale

val expected : t -> float option

val scale_name : scale -> string
(** ["test"] / ["bench"] / ["tactical"]. *)

val test_data_collection_params : Scenarios.data_collection_params
(** The test-scale Table-1 parameters (3 sensors, 3x2 relay grid) behind
    the [dc-small-*] entries — exported for regression suites that pin
    node counts against exactly this instance. *)
