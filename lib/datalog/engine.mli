(** Stratified, semi-naive datalog evaluation with derivation counts.

    [run] materializes every IDB predicate of the program into the database,
    bottom-up by stratum.  Each stored tuple carries its derivation count
    (the number of distinct rule groundings deriving it), which is what DRed
    maintains incrementally and what the paper's grounding phase consumes.

    Evaluation executes compiled join plans ({!Plan}): each rule is compiled
    once (or fetched from the caller's {!Plan.Cache}), joins probe the
    relations' column stores on their bound columns, and fixpoint rounds read the
    previous state through snapshot-free [Plan.Patched] views instead of
    copying every stratum relation per round. *)

val lookup_in : Dd_relational.Database.t -> string -> Dd_relational.Relation.t
(** Database lookup that resolves unknown predicates to a shared empty
    relation. *)

val ensure_table :
  Dd_relational.Database.t -> string -> Dd_relational.Tuple.t -> Dd_relational.Relation.t
(** Find the named table, creating it with a schema inferred from the sample
    tuple ([c0], [c1], ... columns) when missing. *)

val eval_stratum : ?plans:Plan.Cache.t -> Dd_relational.Database.t -> Stratify.stratum -> unit
(** Evaluate one stratum to fixpoint against the current database state
    (used by full evaluation and by {!Dred}'s recursive-stratum fallback).
    The stratum's relations are expected to start empty.  [plans] lets the
    caller share compiled full and delta plans across calls (default: a
    fresh throwaway cache). *)

val run :
  ?plans:Plan.Cache.t -> Dd_relational.Database.t -> Ast.program -> (unit, string) result
(** Clear all IDB relations then evaluate the program to fixpoint.
    [Error] on unsafe rules or unstratifiable negation. *)

val run_exn : ?plans:Plan.Cache.t -> Dd_relational.Database.t -> Ast.program -> unit
(** Like {!run}; raises [Invalid_argument] on error. *)
