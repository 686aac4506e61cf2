(** Abstract syntax of the datalog core of the DeepDive language.

    DeepDive "supports both SQL and datalog"; grounding, candidate
    generation and supervision rules are all conjunctive queries with
    stratified negation, which is exactly this AST.  Feature-extraction and
    inference rules of the surface language (weights, UDFs) are desugared to
    datalog queries plus factor-graph annotations by [Dd_core]. *)

type term =
  | Var of string
  | Const of Dd_relational.Value.t

type atom = { pred : string; args : term list }

type literal =
  | Pos of atom
  | Neg of atom

(** A guard is an arithmetic/comparison side-condition evaluated over a
    binding, e.g. [m1 <> m2] in a candidate rule.  Guards only constrain
    bindings produced by positive atoms. *)
type guard =
  | Eq of term * term
  | Neq of term * term
  | Lt of term * term
  | Le of term * term

type rule = { head : atom; body : literal list; guards : guard list }

type program = rule list

val atom : string -> term list -> atom

val rule : ?guards:guard list -> atom -> literal list -> rule

val atom_of_literal : literal -> atom

val is_positive : literal -> bool

val term_vars : term -> string list

val atom_vars : atom -> string list

val guard_vars : guard -> string list

val rule_vars : rule -> string list
(** All variables appearing anywhere in the rule. *)

val positive_body_vars : rule -> string list

val head_pred : rule -> string

val body_preds : rule -> string list

val check_program : program -> (unit, string) result

val idb_preds : program -> string list
(** Predicates appearing in some head (sorted, distinct). *)

val rule_to_string : rule -> string
