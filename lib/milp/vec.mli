(** Minimal growable vector (OCaml 5.1 has no [Dynarray]). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-range index. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument on out-of-range index. *)

val add_last : 'a t -> 'a -> unit

val to_array : 'a t -> 'a array

val trim : 'a t -> unit
(** Release the spare capacity; later appends grow it again. *)

val of_array : 'a array -> 'a t

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** Unboxed growable float vector backed by a flat [floatarray]:
    elements are stored inline, so appending [n] floats allocates
    O(n) words total (the doubling copies) rather than one box per
    element.  Mirrors the polymorphic API plus {!Float.clear} for
    buffer reuse. *)
module Float : sig
  type t

  val create : unit -> t

  val length : t -> int

  val get : t -> int -> float
  (** @raise Invalid_argument on out-of-range index. *)

  val set : t -> int -> float -> unit
  (** @raise Invalid_argument on out-of-range index. *)

  val add_last : t -> float -> unit

  val clear : t -> unit
  (** Reset the length to zero, keeping capacity for reuse. *)

  val to_array : t -> float array

  val trim : t -> unit

  val of_array : float array -> t

  val iteri : (int -> float -> unit) -> t -> unit

  val iter : (float -> unit) -> t -> unit

  val fold_left : ('acc -> float -> 'acc) -> 'acc -> t -> 'acc
end

(** Growable vector of unsigned ints in [[0, 2{^32})], packed into a
    [Bytes.t] at the narrowest width (1, 2 or 4 bytes) that holds every
    value stored so far; storing a wider value re-encodes the vector
    once.  For data kept alive for long, such as a solved model's term
    variable ids.  [add_last] and [set] raise [Invalid_argument] on a
    value outside the range, as [get] and [set] do on an index outside
    [[0, length)]. *)
module Uint : sig
  type t

  val create : unit -> t

  val length : t -> int

  val width : t -> int
  (** Bytes per element: 1, 2 or 4. *)

  val get : t -> int -> int

  val set : t -> int -> int -> unit

  val add_last : t -> int -> unit

  val trim : t -> unit

  val of_array : int array -> t

  val to_array : t -> int array

  val iter : (int -> unit) -> t -> unit
end

(** Growable stream of non-negative ints as LEB128 varints, addressed
    by byte offset: a value under 128 takes one byte, under 16,384 two.
    For sequences read in order, such as a packed model's terms. *)
module Varints : sig
  type t

  val create : unit -> t

  val length : t -> int
  (** Bytes used. *)

  val add_last : t -> int -> unit
  (** @raise Invalid_argument on a negative value. *)

  val get : t -> int -> int
  (** The value whose encoding starts at the given offset. *)

  val next : t -> int -> int
  (** The offset just past the value starting at the given one. *)

  val append_sub : t -> t -> int -> int -> unit
  (** [append_sub dst src pos len] appends bytes [pos .. pos+len-1] of
      [src], whole values, to [dst]. *)

  val add_substring : t -> string -> int -> int -> unit
  (** Raw bytes, for callers that frame them with their own lengths. *)

  val sub_string : t -> int -> int -> string

  val trim : t -> unit
end

(** Growable vector of strings, front-coded in one buffer: each string
    stores only what it does not share with the previous one, plus one
    or two length bytes, and every 16th string is stored whole so that
    [get] decodes at most 16 entries.  Against a block and a pointer
    per string, runs of similar names take a fraction of their bytes. *)
module Str : sig
  type t

  val create : unit -> t

  val length : t -> int

  val get : t -> int -> string
  (** A fresh copy.  @raise Invalid_argument on out-of-range index. *)

  val add_last : t -> string -> unit

  val trim : t -> unit
  (** Release the spare capacity; later appends grow it again. *)
end
