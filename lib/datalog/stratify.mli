(** Predicate dependency analysis and stratification.

    Negation must be stratified: no predicate may depend negatively on
    itself through a cycle.  Strata are evaluated bottom-up; within a
    stratum, recursion (through positive edges only) is allowed. *)

type stratum = {
  preds : string list;  (** predicates assigned to this stratum *)
  rules : Ast.rule list;  (** rules whose head is in [preds] *)
  recursive : bool;  (** whether some rule's body mentions a same-stratum predicate *)
}

val stratify : Ast.program -> (stratum list, string) result
(** Bottom-up strata; [Error] when negation is not stratifiable. *)
