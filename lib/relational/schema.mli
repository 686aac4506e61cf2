(** Relation schemas: ordered, named, typed columns. *)

type column = { name : string; ty : Value.ty }

type t

val make : (string * Value.ty) list -> t
(** Column names must be distinct; raises [Invalid_argument] otherwise. *)

val columns : t -> column array

val arity : t -> int

val column_index : t -> string -> int
(** Raises [Not_found] for an unknown column. *)

val mem : t -> string -> bool

val names : t -> string list

val conforms : t -> Value.t array -> bool
(** Arity and per-column type check ([Null] always conforms). *)

val project : t -> string list -> t
(** Schema of a projection; raises [Not_found] on unknown columns. *)

val concat : t -> t -> t
(** Schema of a product; duplicate names raise [Invalid_argument]. *)

val rename : t -> (string * string) list -> t

val pp : Format.formatter -> t -> unit
