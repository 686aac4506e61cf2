(** Relational algebra over {!Relation.t}: a reference for bag semantics.

    DeepDive's grounding phase "evaluates a sequence of SQL queries"; the
    engine compiles rule bodies into join plans ({!Dd_datalog.Plan})
    instead, and this algebra is kept under [test/] only.  Operators follow
    bag semantics with derivation counts: selection preserves counts,
    projection sums them, join multiplies them and union adds them — which
    makes the algebra directly usable for counting-based incremental view
    maintenance. *)

open Dd_relational

val select : (Tuple.t -> bool) -> Relation.t -> Relation.t

val select_eq : Relation.t -> string -> Value.t -> Relation.t
(** Select rows whose named column equals a constant. *)

val project : Relation.t -> string list -> Relation.t
(** Projection onto named columns (duplicates allowed in the output order is
    not supported; columns must exist). *)

val rename : Relation.t -> (string * string) list -> Relation.t

val product : Relation.t -> Relation.t -> Relation.t
(** Cartesian product; column names must be disjoint. *)

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Hash join on all shared column names.  The output schema is the left
    schema followed by the right-only columns. *)

val equi_join : Relation.t -> Relation.t -> (string * string) list -> Relation.t
(** [equi_join left right pairs] joins on [left.col = right.col'] for each
    pair; all columns of both inputs appear in the output (right columns
    are prefixed with the right relation's name on clashes). *)

val union : Relation.t -> Relation.t -> Relation.t
(** Schemas must be equal; counts add. *)

val difference : Relation.t -> Relation.t -> Relation.t
(** Set difference on distinct tuples (left counts preserved). *)

val intersect : Relation.t -> Relation.t -> Relation.t

val distinct : Relation.t -> Relation.t
(** Reset all multiplicities to one. *)

type aggregate = Count | Sum of string | Min of string | Max of string | Avg of string

val aggregate :
  Relation.t -> group_by:string list -> aggregate -> output:string -> Relation.t
(** Group rows by the named columns and compute one aggregate over distinct
    tuples per group; the result schema is the group-by columns followed by
    the aggregate output column. *)

val map_rows : Relation.t -> Schema.t -> (Tuple.t -> Tuple.t) -> Relation.t
(** Per-tuple user-defined function (the "feature extractor" hook): applies
    [f] to every distinct tuple, producing a relation with the given
    schema; counts are preserved. *)

val flat_map_rows : Relation.t -> Schema.t -> (Tuple.t -> Tuple.t list) -> Relation.t
(** Like {!map_rows} but each input row may produce any number of rows. *)
