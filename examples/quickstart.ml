(* Quickstart: the HasSpouse example of Section 2 of the paper, end to end.

   A tiny corpus of "news sentences" mentions pairs of people connected by a
   phrase.  The DDlog program below — written in the surface language and
   parsed by [Dd_ddlog.Parser] — generates candidate mention pairs (R1),
   declares a phrase classifier with tied weights (FE1), and distantly
   supervises it from a small list of known married couples (S1/S2).
   We ground it to a factor graph, learn the weights, run Gibbs sampling and
   print the marginal probability of every candidate.

   Run with: dune exec examples/quickstart.exe *)

module Database = Dd_relational.Database
module Value = Dd_relational.Value
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding

let program_source =
  {|
  // Base tables: one sentence per row, two person mentions per sentence.
  input sentence(sid int, phrase text).
  input mention(sid int, mid text, name text, pos int).
  input el(name text, eid text).           // entity linking
  input married(e1 text, e2 text).         // incomplete KB: known couples
  input sibling(e1 text, e2 text).         // disjoint relation for negatives

  query has_spouse(m1 text, m2 text).

  // (R1) candidate generation: every mention pair in a sentence.
  @R1
  spouse_candidate(s, m1, m2) :-
    mention(s, m1, n1, 0), mention(s, m2, n2, 1).

  // (FE1) the phrase between the mentions is a feature with tied weights:
  // "declaring a classifier is a one-liner".
  @FE1
  has_spouse(m1, m2) :-
    spouse_candidate(s, m1, m2), sentence(s, p)
    weight = w(p) semantics = ratio.

  // (S1) distant supervision: mention pairs linking to a known couple are
  // positive evidence.
  @S1
  has_spouse_ev(m1, m2, true) :-
    spouse_candidate(s, m1, m2),
    mention(s, m1, n1, 0), mention(s, m2, n2, 1),
    el(n1, e1), el(n2, e2), married(e1, e2).

  // (S2) pairs known to be siblings are negative evidence.
  @S2
  has_spouse_ev(m1, m2, false) :-
    spouse_candidate(s, m1, m2),
    mention(s, m1, n1, 0), mention(s, m2, n2, 1),
    el(n1, e1), el(n2, e2), sibling(e1, e2).
|}

(* (sentence phrase, person at position 0, person at position 1) *)
let sentences =
  [
    ("and_his_wife", "Barack Obama", "Michelle Obama");
    ("and_his_wife", "George Bush", "Laura Bush");
    ("and_his_wife", "John Kennedy", "Jackie Kennedy");
    ("married_on_oct_3", "Barack Obama", "Michelle Obama");
    ("and_his_brother", "Barack Obama", "Malik Obama");
    ("and_his_brother", "John Kennedy", "Robert Kennedy");
    ("attended_dinner_with", "Barack Obama", "Angela Merkel");
    ("and_his_wife", "Franklin Roosevelt", "Eleanor Roosevelt");
    ("met_with", "George Bush", "Tony Blair");
    (* Unlabeled pairs the system must decide about: *)
    ("and_his_wife", "Harry Truman", "Bess Truman");
    ("and_his_brother", "Harry Truman", "Vivian Truman");
    ("attended_dinner_with", "Harry Truman", "Winston Churchill");
  ]

let known_married =
  [ ("Barack Obama", "Michelle Obama"); ("George Bush", "Laura Bush");
    ("John Kennedy", "Jackie Kennedy"); ("Franklin Roosevelt", "Eleanor Roosevelt") ]

let known_siblings =
  [ ("Barack Obama", "Malik Obama"); ("John Kennedy", "Robert Kennedy") ]

let () =
  let prog =
    match Dd_ddlog.Parser.parse program_source with
    | Ok p -> p
    | Error e -> failwith e
  in
  let db = Database.create () in
  List.iter
    (fun (name, schema) -> ignore (Database.create_table db name schema))
    prog.Dd_core.Program.input_schemas;
  let str = Value.str and int = Value.int in
  List.iteri
    (fun sid (phrase, p1, p2) ->
      Database.insert_rows db "sentence" [ [| int sid; str phrase |] ];
      Database.insert_rows db "mention"
        [
          [| int sid; str (Printf.sprintf "m%d_a" sid); str p1; int 0 |];
          [| int sid; str (Printf.sprintf "m%d_b" sid); str p2; int 1 |];
        ])
    sentences;
  (* Entity linking: names are their own entities here. *)
  let names =
    List.sort_uniq compare (List.concat_map (fun (_, a, b) -> [ a; b ]) sentences)
  in
  List.iter (fun n -> Database.insert_rows db "el" [ [| str n; str n |] ]) names;
  List.iter (fun (a, b) -> Database.insert_rows db "married" [ [| str a; str b |] ]) known_married;
  List.iter (fun (a, b) -> Database.insert_rows db "sibling" [ [| str a; str b |] ]) known_siblings;
  (* Ground, learn, infer. *)
  let engine = Engine.create db prog in
  let stats = Grounding.stats (Engine.grounding engine) in
  Printf.printf "Factor graph: %d variables, %d factors, %d weights, %d evidence variables\n\n"
    stats.Grounding.variables stats.Grounding.factors stats.Grounding.weights
    stats.Grounding.evidence;
  let rng = Dd_util.Prng.create 1 in
  let marginals =
    Dd_inference.Compiled.(marginals ~burn_in:50 rng (compile (Engine.graph engine)) ~sweeps:2000)
  in
  let name_of mid =
    (* Recover the mention's person name for display. *)
    let rel = Database.find db "mention" in
    let result = ref mid in
    Dd_relational.Relation.iter
      (fun t _ -> if Value.equal t.(1) (Value.Str mid) then result := Value.as_str t.(2))
      rel;
    !result
  in
  print_endline "P(has_spouse)  mention pair";
  Grounding.marginals_by_relation (Engine.grounding engine) marginals
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  |> List.iter (fun (_, tuple, p) ->
         Printf.printf "  %.3f        %s -- %s\n" p
           (name_of (Value.as_str tuple.(0)))
           (name_of (Value.as_str tuple.(1))));
  print_newline ();
  print_endline
    "Expectation: the unlabeled Truman pairs follow their phrases — \"and_his_wife\"\n\
     scores high, \"and_his_brother\" low, \"attended_dinner_with\" uncertain."
