(** The KBC program over a synthetic corpus — the six rule templates of
    Figure 8, expressed in our DeepDive program model:

    - R1 (candidate generation): every mention pair whose connective phrase
      the candidate dictionary maps to a relation;
    - prior: a weak fixed-weight bias that candidates are false (gives the
      base snapshot a non-empty graph);
    - A1 (error analysis): recompute marginals, no program change;
    - FE1 (shallow features): classifier tied on (relation, phrase);
    - FE2 (deeper features): classifier tied on (relation, context token);
    - I1 (inference rule): same entity-name pair in another sentence is
      correlated (fixed weight);
    - S1/S2 (supervision): distant supervision from the incomplete KB,
      positive via [known], negative via [disjoint] relations.

    [base_program] is the first development snapshot; [update_of] yields
    the update each subsequent snapshot applies, so the six-snapshot
    sequence of Section 4.2 is [List.map update_of snapshot_sequence]. *)

module Ast = Dd_datalog.Ast
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding

type rule_id = A1 | FE1 | FE2 | I1 | S1 | S2

val rule_id_to_string : rule_id -> string

val all_rule_ids : rule_id list
(** [[A1; FE1; FE2; I1; S1; S2]] — the snapshot sequence. *)

val base_program : ?semantics:Dd_fgraph.Semantics.t -> unit -> Program.t
(** Candidates + prior; [semantics] (default Ratio) applies to the feature
    rules added later through {!rules_of}. *)

val rules_of : ?semantics:Dd_fgraph.Semantics.t -> rule_id -> Program.rule list
(** The program rules each snapshot adds (A1 adds none). *)

val update_of : ?semantics:Dd_fgraph.Semantics.t -> rule_id -> Grounding.update

val full_program : ?semantics:Dd_fgraph.Semantics.t -> unit -> Program.t
(** Base program plus all six rule templates. *)

val query_relation : string
(** The query relation name ([q]). *)
