(** Typed solutions extracted from a solved MILP, with physics-level
    metrics recomputed from first principles (not from solver values) —
    the paper's "correctness guarantees" are checked against the radio
    and energy models, not just against the encoding. *)

type route_result = {
  rr_req : int;  (** Requirement (route) index. *)
  rr_replica : int;
  rr_path : Netgraph.Path.t;
}

(** An outcome keeps its solution for as long as it is kept, so the
    per-node and per-route collections are arrays: a slot per element
    where a list spends a cell, and floats unboxed. *)
type t = {
  mip : Milp.Branch_bound.result;
  used_nodes : int array;  (** Template indices, ascending. *)
  devices : (int * Components.Component.t) array;
      (** Node -> device, by ascending node: the used nodes given one. *)
  active_edges : (int * int) array;  (** Ascending. *)
  routes : route_result array;
  dollar_cost : float;
  node_count : int;
  avg_current_ma : floatarray;  (** Per entry of [devices]. *)
  lifetimes_years : floatarray;  (** Per entry of [devices]. *)
  reachable_counts : int array;
      (** Localization: per evaluation point, # used anchors whose
          recomputed RSS meets the threshold. *)
}

val device_of : t -> int -> Components.Component.t option

val avg_lifetime_years : ?exclude_sinks:bool -> Instance.t -> t -> float
(** Mean lifetime over used battery nodes ([exclude_sinks] defaults to
    [true]: base stations are mains-powered). *)

val min_lifetime_years : ?exclude_sinks:bool -> Instance.t -> t -> float

val avg_reachable : t -> float
(** Mean of [reachable_counts] (0 when no localization requirement). *)

val total_avg_current_ma : t -> float

val of_approx : Approx_encoding.t -> Milp.Branch_bound.result -> t
(** Extract from a solved approximate encoding.
    @raise Invalid_argument if the result carries no solution. *)

val of_full : Full_encoding.t -> Milp.Branch_bound.result -> t
(** Extract from a solved full encoding. *)

val check : Instance.t -> t -> (unit, string list) result
(** Independent validation: route well-formedness and endpoints,
    replica disjointness, per-link RSS floor, lifetime requirement,
    localization coverage, sizing consistency.  Returns all violations
    found. *)

val pp_summary : Instance.t -> Format.formatter -> t -> unit
