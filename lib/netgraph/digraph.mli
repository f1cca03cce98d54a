(** Weighted directed graphs over a fixed set of nodes [0 .. n-1].

    Edges carry a float weight (the path-loss estimate in the wireless
    encoding; any non-negative cost in general).  Adjacency is stored
    both forward and backward, so successor and predecessor queries are
    O(out-degree) / O(in-degree).  Edge weights are mutable — Algorithm 1
    "disconnects" a path by raising its edge weights to [infinity] —
    but the node set is fixed at creation.

    Each node's neighbours and weights are kept in parallel arrays in
    insertion order (one pair forward, one backward), so an edge costs
    two words per direction and edge lookups scan the node's
    neighbours: O(degree). *)

type t

val create : int -> t
(** [create n] is a graph with nodes [0 .. n-1] and no edges. *)

val nnodes : t -> int

val nedges : t -> int
(** Number of directed edges. *)

val add_edge : t -> ?w:float -> int -> int -> unit
(** [add_edge g u v] adds the directed edge [u -> v] with weight [w]
    (default [1.0]).  Re-adding an existing edge overwrites its weight.
    @raise Invalid_argument on self-loops or out-of-range nodes. *)

val add_undirected : t -> ?w:float -> int -> int -> unit
(** Adds both [u -> v] and [v -> u]. *)

val mem_edge : t -> int -> int -> bool

val weight : t -> int -> int -> float
(** @raise Not_found if the edge is absent. *)

val weight_opt : t -> int -> int -> float option

val set_weight : t -> int -> int -> float -> unit
(** @raise Not_found if the edge is absent. *)

val succ : t -> int -> (int * float) list
(** Successors with weights, in insertion order. *)

val pred : t -> int -> (int * float) list
(** Predecessors with weights, in insertion order. *)

val iter_succ : t -> int -> (int -> float -> unit) -> unit
(** [iter_succ g u f] calls [f v w] on each successor of [u], in the
    order of {!succ}, without building a list. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_edges : (int -> int -> float -> unit) -> t -> unit
(** Iterate over all edges [(u, v, w)]. *)

val fold_edges : (int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a

val edges : t -> (int * int * float) list

val of_edges : int -> (int * int * float) list -> t
(** [of_edges n es] builds the graph in one call. *)

val copy : t -> t
(** Deep copy (edge weights are independent), with the same successor
    and predecessor orders; its arrays are sized to the degrees. *)

val transpose : t -> t
(** Graph with every edge reversed: its successors of [v] are the
    predecessors of [v] in [g], in the same order, and vice versa. *)

val reachable : t -> int -> bool array
(** [reachable g s] marks every node reachable from [s] (including [s]). *)

val pp : Format.formatter -> t -> unit
