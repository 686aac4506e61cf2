(** Minimal CSV ingestion for base tables.

    Comma-separated, no quoting or escaping (values in KBC base tables are
    identifiers and tokens).  A first line that matches the column names is
    treated as a header and skipped. *)

val parse_value : Value.ty -> string -> Value.t
(** Raises [Invalid_argument] on malformed input; empty string is [Null]. *)

val load_string : Relation.t -> string -> int
(** Load CSV text into a relation; returns the number of rows inserted. *)

val load_file : Relation.t -> string -> int
