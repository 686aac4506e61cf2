(** Relation schemas: ordered, named, typed columns. *)

type column = { name : string; ty : Value.ty }

type t

val make : (string * Value.ty) list -> t
(** Column names must be distinct; raises [Invalid_argument] otherwise. *)

val columns : t -> column array

val arity : t -> int

val names : t -> string list

val conforms : t -> Value.t array -> bool
(** Arity and per-column type check ([Null] always conforms). *)

val pp : Format.formatter -> t -> unit
