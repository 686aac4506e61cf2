(* The full NLP front of the pipeline on raw text (Figure 1, left to
   right): documents are tokenized, sentences split, mentions found with a
   dictionary matcher, and the phrase between each mention pair extracted
   as the classifier feature — then the same DDlog program as the
   quickstart grounds, learns from distant supervision, and infers.

   Run with: dune exec examples/text_pipeline.exe *)

module Database = Dd_relational.Database
module Value = Dd_relational.Value
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Nlp_load = Dd_kbc.Nlp_load

let documents =
  [
    (0, "Barack Obama and his wife Michelle Obama attended the gala. \
         Laura Bush met with Angela Merkel in Berlin.");
    (1, "George Bush and his wife Laura Bush hosted the dinner. \
         John Kennedy and his brother Robert Kennedy debated policy.");
    (2, "Franklin Roosevelt and his wife Eleanor Roosevelt toured the site.");
    (3, "Harry Truman and his wife Bess Truman left early! \
         Harry Truman and his brother Vivian Truman stayed.");
    (4, "Angela Merkel spoke after Winston Churchill was quoted. \
         Barack Obama praised Michelle Obama warmly.");
  ]

let people =
  [
    "Barack Obama"; "Michelle Obama"; "George Bush"; "Laura Bush";
    "John Kennedy"; "Jackie Kennedy"; "Robert Kennedy"; "Franklin Roosevelt";
    "Eleanor Roosevelt"; "Harry Truman"; "Bess Truman"; "Vivian Truman";
    "Angela Merkel"; "Winston Churchill";
  ]

let known_married =
  [ ("Barack Obama", "Michelle Obama"); ("George Bush", "Laura Bush");
    ("Franklin Roosevelt", "Eleanor Roosevelt") ]

let known_siblings = [ ("John Kennedy", "Robert Kennedy") ]

let program_source =
  {|
  input sentence(doc int, sid int, phrase text, ctx text).
  input mention(sid int, mid text, name text, pos int).
  input el(name text, eid text).
  input married(e1 text, e2 text).
  input sibling(e1 text, e2 text).

  query has_spouse(m1 text, m2 text).

  @R1
  spouse_candidate(s, m1, m2) :- mention(s, m1, n1, 0), mention(s, m2, n2, 1).

  @FE1   // the phrase between the mentions, extracted by the NLP front
  has_spouse(m1, m2) :- spouse_candidate(s, m1, m2), sentence(d, s, p, c)
    weight = w(p) semantics = ratio.

  @FE2   // mention distance bucket as a secondary feature
  has_spouse(m1, m2) :- spouse_candidate(s, m1, m2), sentence(d, s, p, c)
    weight = w(c) semantics = ratio.

  @S1
  has_spouse_ev(m1, m2, true) :-
    spouse_candidate(s, m1, m2), mention(s, m1, n1, 0), mention(s, m2, n2, 1),
    el(n1, e1), el(n2, e2), married(e1, e2).

  @S2
  has_spouse_ev(m1, m2, false) :-
    spouse_candidate(s, m1, m2), mention(s, m1, n1, 0), mention(s, m2, n2, 1),
    el(n1, e1), el(n2, e2), sibling(e1, e2).
|}

let () =
  let prog =
    match Dd_ddlog.Parser.parse program_source with
    | Ok p -> p
    | Error e -> failwith e
  in
  let db = Database.create () in
  let stats = Nlp_load.load_documents db ~entity_names:people documents in
  Printf.printf
    "NLP front: %d documents, %d sentences, %d mentions, %d candidate pairs.\n\n"
    stats.Nlp_load.documents stats.Nlp_load.sentences stats.Nlp_load.mentions_found
    stats.Nlp_load.pairs;
  (* Entity linking and the incomplete KB. *)
  List.iter
    (fun (name, schema) ->
      if not (Database.mem db name) then ignore (Database.create_table db name schema))
    prog.Dd_core.Program.input_schemas;
  let str = Value.str in
  List.iter (fun n -> Database.insert_rows db "el" [ [| str n; str n |] ]) people;
  List.iter (fun (a, b) -> Database.insert_rows db "married" [ [| str a; str b |] ]) known_married;
  List.iter (fun (a, b) -> Database.insert_rows db "sibling" [ [| str a; str b |] ]) known_siblings;
  let engine = Engine.create db prog in
  let gstats = Grounding.stats (Engine.grounding engine) in
  Printf.printf "Factor graph: %d variables, %d factors, %d weights.\n\n"
    gstats.Grounding.variables gstats.Grounding.factors gstats.Grounding.weights;
  let rng = Dd_util.Prng.create 2 in
  let marginals =
    Dd_inference.Compiled.(marginals ~burn_in:50 rng (compile (Engine.graph engine)) ~sweeps:2000)
  in
  let name_of mid =
    let rel = Database.find db "mention" in
    let result = ref mid in
    Dd_relational.Relation.iter
      (fun t _ -> if Value.equal t.(1) (Value.Str mid) then result := Value.as_str t.(2))
      rel;
    !result
  in
  print_endline "P(has_spouse)  pair";
  Grounding.marginals_by_relation (Engine.grounding engine) marginals
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  |> List.iter (fun (_, tuple, p) ->
         Printf.printf "  %.3f        %s -- %s\n" p
           (name_of (Value.as_str tuple.(0)))
           (name_of (Value.as_str tuple.(1))));
  print_newline ();
  print_endline
    "The \"and his wife\" phrase feature learned from the distantly supervised\n\
     couples transfers to the unlabeled Truman pair; co-occurrence pairs like\n\
     (Laura Bush, Angela Merkel) stay uncertain and known siblings score low."
