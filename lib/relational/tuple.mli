(** Tuples: immutable arrays of {!Value.t} usable as hash-table keys. *)

type t = Value.t array

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val to_string : t -> string

val project : t -> int array -> t
(** [project tup idxs] picks the components at [idxs] in order. *)

val concat : t -> t -> t

module Hashtbl : Hashtbl.S with type key = t
(** Hash tables keyed by tuples (structural hashing on values). *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
