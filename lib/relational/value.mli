(** Typed scalar values stored in relations.

    In DeepDive "all data is stored in a relational database"; this is the
    value domain of our in-memory engine.  Values are totally ordered (with
    [Null] smallest) so tuples can key hash tables and sorted structures. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr

val type_of : t -> ty option
(** [None] for [Null]. *)

val conforms : t -> ty -> bool
(** [Null] conforms to every type. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val ty_to_string : ty -> string

(** Convenience constructors/extractors; extractors raise [Invalid_argument]
    on a type mismatch. *)

val int : int -> t
val str : string -> t

val as_str : t -> string
