module Ast = Dd_datalog.Ast
module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Semantics = Dd_fgraph.Semantics

type rule_id = A1 | FE1 | FE2 | I1 | S1 | S2

let rule_id_to_string = function
  | A1 -> "A1"
  | FE1 -> "FE1"
  | FE2 -> "FE2"
  | I1 -> "I1"
  | S1 -> "S1"
  | S2 -> "S2"

let all_rule_ids = [ A1; FE1; FE2; I1; S1; S2 ]

let query_relation = "q"

let v name = Ast.Var name

let atom = Ast.atom

(* Shared body atoms. *)
let mention0 = atom "mention" [ v "s"; v "m1"; v "n1"; Ast.Const (Value.Int 0) ]
let mention1 = atom "mention" [ v "s"; v "m2"; v "n2"; Ast.Const (Value.Int 1) ]
let sentence = atom "sentence" [ v "d"; v "s"; v "p"; v "c" ]

(* R1: candidate generation through the phrase dictionary. *)
let candidate_rule =
  Ast.rule
    (atom "cand" [ v "r"; v "s"; v "m1"; v "m2" ])
    [ Ast.Pos mention0; Ast.Pos mention1; Ast.Pos sentence; Ast.Pos (atom "phrase_rel" [ v "p"; v "r" ]) ]

let cand_atom = atom "cand" [ v "r"; v "s"; v "m1"; v "m2" ]

let q_head = atom "q" [ v "r"; v "m1"; v "m2" ]

(* Weak prior that a candidate is not a fact. *)
let prior_rule =
  Program.Infer
    {
      Program.name = "prior";
      head = q_head;
      body = [ Ast.Pos cand_atom ];
      guards = [];
      weight = Program.Fixed (-0.5);
      semantics = Semantics.Logical;
      populate_head = true;
    }

let query_schema =
  Schema.make [ ("r", Value.TStr); ("m1", Value.TStr); ("m2", Value.TStr) ]

let base_program ?semantics:_ () =
  {
    Program.input_schemas = Corpus.input_schemas;
    query_relations = [ (query_relation, query_schema) ];
    rules = [ Program.Deterministic ("R1", candidate_rule); prior_rule ];
  }

let fe1 semantics =
  Program.Infer
    {
      Program.name = "FE1";
      head = q_head;
      body = [ Ast.Pos cand_atom; Ast.Pos sentence ];
      guards = [];
      weight = Program.Tied [ v "r"; v "p" ];
      semantics;
      populate_head = true;
    }

let fe2 semantics =
  Program.Infer
    {
      Program.name = "FE2";
      head = q_head;
      body = [ Ast.Pos cand_atom; Ast.Pos sentence ];
      guards = [];
      weight = Program.Tied [ v "r"; v "c" ];
      semantics;
      populate_head = true;
    }

(* I1: mention pairs of the same entity-name pair correlate across
   sentences. *)
let same_pair_rule =
  Ast.rule
    ~guards:[ Ast.Neq (v "s", v "s2") ]
    (atom "same_pair" [ v "m1"; v "m2"; v "m3"; v "m4" ])
    [
      Ast.Pos (atom "mention" [ v "s"; v "m1"; v "n1"; Ast.Const (Value.Int 0) ]);
      Ast.Pos (atom "mention" [ v "s"; v "m2"; v "n2"; Ast.Const (Value.Int 1) ]);
      Ast.Pos (atom "mention" [ v "s2"; v "m3"; v "n1"; Ast.Const (Value.Int 0) ]);
      Ast.Pos (atom "mention" [ v "s2"; v "m4"; v "n2"; Ast.Const (Value.Int 1) ]);
    ]

(* The counting semantics matters most here: a pair mentioned in many
   sentences accumulates one body grounding per alias, so g(n) decides how
   strongly repetition compounds (Example 2.5's voting effect). *)
let i1 semantics =
  [
    Program.Deterministic ("same_pair", same_pair_rule);
    Program.Infer
      {
        Program.name = "I1";
        head = q_head;
        body =
          [
            Ast.Pos (atom "q" [ v "r"; v "m3"; v "m4" ]);
            Ast.Pos (atom "same_pair" [ v "m1"; v "m2"; v "m3"; v "m4" ]);
          ];
        guards = [];
        weight = Program.Fixed 1.5;
        semantics;
        populate_head = false;
      };
  ]

let ev_head label =
  atom "q_ev" [ v "r"; v "m1"; v "m2"; Ast.Const (Value.Bool label) ]

let el1 = atom "el" [ v "n1"; v "e1" ]
let el2 = atom "el" [ v "n2"; v "e2" ]

let s1 =
  Program.Supervise
    ( "S1",
      Ast.rule (ev_head true)
        [
          Ast.Pos cand_atom;
          Ast.Pos mention0;
          Ast.Pos mention1;
          Ast.Pos el1;
          Ast.Pos el2;
          Ast.Pos (atom "known" [ v "r"; v "e1"; v "e2" ]);
        ] )

let s2 =
  Program.Supervise
    ( "S2",
      Ast.rule (ev_head false)
        [
          Ast.Pos cand_atom;
          Ast.Pos mention0;
          Ast.Pos mention1;
          Ast.Pos el1;
          Ast.Pos el2;
          Ast.Pos (atom "disjoint" [ v "r"; v "r2" ]);
          Ast.Pos (atom "known" [ v "r2"; v "e1"; v "e2" ]);
          Ast.Neg (atom "known" [ v "r"; v "e1"; v "e2" ]);
        ] )

let rules_of ?(semantics = Semantics.Ratio) = function
  | A1 -> []
  | FE1 -> [ fe1 semantics ]
  | FE2 -> [ fe2 semantics ]
  | I1 -> i1 semantics
  | S1 -> [ s1 ]
  | S2 -> [ s2 ]

let update_of ?semantics rule_id =
  Grounding.rules_update (rules_of ?semantics rule_id)

let full_program ?semantics () =
  Program.add_rules (base_program ()) (List.concat_map (rules_of ?semantics) all_rule_ids)
