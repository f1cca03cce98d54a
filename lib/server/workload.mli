(** Thin view over the process-global scenario registry
    ({!Archex.Scenario}) — kept so the daemon code keeps reading
    "workload" where it means "named scenario a request can address".

    The registry always holds the Table-1 catalogue: [dc-dollar],
    [dc-energy], [dc-mixed] (bench scale) and [dc-small-dollar],
    [dc-small-energy], [dc-small-mixed] (the parallel-regression test
    scale used by CI smoke and the daemon tests).  Daemons that
    register more scenarios (e.g. via [Scenario_gen.register_defaults])
    serve them by name with no server changes.  The workload name
    doubles as the daemon's session-cache key. *)

type t = Archex.Scenario.t

val names : unit -> string list

val find : string -> (t, string) result

val instance : t -> (Archex.Instance.t, string) result

val name : t -> string

val descr : t -> string
