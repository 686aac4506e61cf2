(** A database: a mutable catalog of named relations. *)

type t

val create : unit -> t

val create_table : t -> string -> Schema.t -> Relation.t
(** Registers and returns an empty relation.  Raises [Invalid_argument]
    if the name is taken. *)

val register : t -> Relation.t -> unit
(** Register an existing relation under its own name (replacing any previous
    binding). *)

val drop_table : t -> string -> unit

val find : t -> string -> Relation.t
(** Raises [Not_found]. *)

val find_opt : t -> string -> Relation.t option

val mem : t -> string -> bool

val table_names : t -> string list
(** Sorted list of registered names. *)

val insert_rows : t -> string -> Tuple.t list -> unit

val copy : t -> t
(** Deep copy: relations are copied too. *)

val validate : t -> (unit, string) result
(** {!Relation.validate} over every table (first failure wins). *)
