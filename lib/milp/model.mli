(** Mutable MILP model builder.

    A model owns a set of variables (continuous, general integer, or
    binary), a set of linear constraints, and a linear objective.  Models
    are consumed by {!Presolve} and {!Branch_bound}, and can be exported
    in CPLEX LP format by {!Lp_format}.

    Storage is packed for models kept after their solve: codes, row
    offsets and term variable ids at the narrowest of 1, 2 or 4 bytes
    that holds them (so a row may not reference a variable id at or
    past 2{^32}, [Invalid_argument]), names end to end in one buffer,
    and every float as an index into the model's distinct values,
    compared by bit pattern. *)

type var_kind =
  | Continuous
  | Integer
  | Binary  (** Integer restricted to bounds [{0, 1}]. *)

type sense = Le | Ge | Eq
(** Constraint sense: [lhs <= rhs], [lhs >= rhs], [lhs = rhs]. *)

type direction = Minimize | Maximize

type t
(** A mutable model under construction. *)

type constr = {
  c_name : string;
  c_expr : Lin.t;  (** Left-hand side; its constant is folded into the rhs. *)
  c_sense : sense;
  c_rhs : float;
}

val create : ?name:string -> unit -> t
(** Fresh empty model. *)

val name : t -> string

val add_var :
  t ->
  ?lb:float ->
  ?ub:float ->
  ?kind:var_kind ->
  ?obj:float ->
  string ->
  int
(** [add_var m name] registers a new variable and returns its id.
    Defaults: [lb = 0.], [ub = infinity] ([0., 1.] for [Binary]),
    [kind = Continuous], objective coefficient [obj = 0.].
    @raise Invalid_argument if [lb > ub]. *)

val add_binary : t -> ?obj:float -> string -> int
(** Shorthand for [add_var ~kind:Binary]. *)

val add_constr : t -> ?name:string -> Lin.t -> sense -> float -> unit
(** [add_constr m lhs sense rhs] adds the constraint
    [lhs sense rhs]; any constant term in [lhs] is moved to the rhs. *)

val add_row : t -> ?name:string -> Lin.t -> sense -> float -> int
(** Like {!add_constr} but returns the new row's index, so the caller can
    later rewrite it with {!set_row} as an incremental encoding grows. *)

val set_row : t -> int -> Lin.t -> sense -> float -> unit
(** [set_row m row lhs sense rhs] replaces the body of constraint [row]
    in place (keeping its name).  The constant term of [lhs] is folded
    into the rhs exactly as in {!add_constr}.
    @raise Invalid_argument if [row] is out of range. *)

val add_range : t -> ?name:string -> float -> Lin.t -> float -> unit
(** [add_range m lo e hi] adds [lo <= e <= hi] as two constraints. *)

val compact : t -> unit
(** Release the spare capacity that growing the model left behind, and
    the terms of rows {!set_row} replaced, so a model kept after its
    solve holds only its contents.  The model can still grow
    afterwards. *)

val set_objective : t -> direction -> Lin.t -> unit
(** Replace the objective.  The expression's constant term is kept and
    reported as part of objective values.
    @raise Invalid_argument if the expression has a term on a variable
    the model does not have. *)

val objective : t -> direction * Lin.t
(** The objective is stored packed, so each call builds the [Lin.t]
    afresh. *)

val direction : t -> direction
(** [fst (objective m)], without building the expression. *)

val set_bounds : t -> int -> float -> float -> unit
(** [set_bounds m v lb ub] overwrites the bounds of variable [v]. *)

val nvars : t -> int

val nconstrs : t -> int

val var_name : t -> int -> string

val var_kind : t -> int -> var_kind

val var_lb : t -> int -> float

val var_ub : t -> int -> float

val is_integer : t -> int -> bool
(** [true] for [Integer] and [Binary] variables. *)

val constr : t -> int -> constr
(** [constr m row] is the current body of constraint [row].  Rows are
    stored packed, so each call builds the [Lin.t] afresh. *)

val row : t -> int -> (int * float) array * sense * float
(** [row m r] is constraint [r] read straight from the packed storage:
    its terms as [(var, coef)] pairs in increasing variable order (those
    of [Lin.terms (constr m r).c_expr]), its sense and its rhs. *)

type watermark
(** A point-in-time marker over a model's variable and constraint
    counts.  Models only ever grow, so everything at an index at or past
    a watermark was added after the watermark was taken. *)

val mark : t -> watermark
(** Record the current variable/constraint counts. *)

val vars_since : t -> watermark -> int list
(** Ids of variables added after [mark], in insertion order. *)

val constrs_since : t -> watermark -> int list
(** Indices of constraints added after [mark], in insertion order.
    Rows rewritten in place via {!set_row} are not reported. *)

val touched_since : t -> watermark -> int list
(** Indices of constraints that existed at [mark] and have since been
    rewritten in place via {!set_row} (deduplicated).
    Together with {!constrs_since} this is the exact row delta since the
    watermark — the input {!Presolve.reduce} needs to re-apply a
    template reduction trace instead of presolving from scratch. *)

val constrs : t -> constr array
(** Snapshot of the current constraints in insertion order. *)

val iter_constrs : (int -> constr -> unit) -> t -> unit

val check_feasible : ?tol:float -> t -> (int -> float) -> (unit, string) result
(** [check_feasible m value] verifies that the assignment satisfies every
    constraint, the variable bounds, and integrality, within tolerance
    [tol] (default [1e-6]).  On failure returns a human-readable
    description of the first violation. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: variable/constraint counts by kind. *)
