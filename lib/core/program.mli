(** The DeepDive program model (Section 2 of the paper).

    A program is a set of schema declarations plus rules of four kinds,
    mirroring the paper's rule templates:

    - {b deterministic} rules — candidate generation and feature extraction
      (the "SQL queries with UDFs" of the paper), evaluated by the datalog
      engine and maintained incrementally with DRed;
    - {b supervision} rules — distant supervision populating the [_ev]
      evidence companion of a query relation with a boolean label;
    - {b inference} rules — weighted rules that ground factors, with weight
      tying ([weight = w(f)]), a choice of counting semantics, and optional
      fixed weights.

    Query relations are the relations whose tuples become random variables;
    they are populated by the heads of inference rules (and may also be
    declared with candidate contents). *)

module Ast = Dd_datalog.Ast
module Schema = Dd_relational.Schema
module Value = Dd_relational.Value

type weight_spec =
  | Fixed of float  (** rule-supplied constant weight *)
  | Tied of Ast.term list
      (** learnable weights, one per distinct value of the key terms —
          [Tied []] declares a single learnable weight for the rule *)

type inference_rule = {
  name : string;
  head : Ast.atom;
  body : Ast.literal list;
  guards : Ast.guard list;
  weight : weight_spec;
  semantics : Dd_fgraph.Semantics.t;
  populate_head : bool;
      (** when true (the default for classifier rules), the rule also acts
          as a candidate mapping: its head tuples are materialized and get
          variables.  Correlation rules over existing candidates (e.g. the
          symmetry rule I1) set it to false: groundings whose head or body
          candidates do not exist are silently dropped, exactly as in
          DeepDive where inference rules only connect existing candidate
          variables. *)
}

type rule =
  | Deterministic of string * Ast.rule  (** (name, rule) *)
  | Supervise of string * Ast.rule
      (** the rule's head must target an [_ev] relation whose last column
          is the boolean label *)
  | Infer of inference_rule

type t = {
  input_schemas : (string * Schema.t) list;  (** base tables *)
  query_relations : (string * Schema.t) list;
      (** relations whose tuples become random variables *)
  rules : rule list;
}

val evidence_relation : string -> string
(** Name of the evidence companion ([_ev] suffix). *)

val deterministic_program : t -> Ast.program
(** The datalog program evaluated before grounding: all deterministic and
    supervision rules, plus one candidate-population rule per inference
    rule (the head must exist as a tuple for a variable to exist). *)

val inference_rules : t -> inference_rule list

val is_query_relation : t -> string -> bool

val add_rules : t -> rule list -> t

val validate : t -> (unit, string) result
(** Safety of all rules; inference heads must target query relations;
    supervision heads must target evidence companions of query relations. *)
