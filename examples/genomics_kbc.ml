(* A second domain: gene-disease association extraction — the shape of the
   paper's Genomics deployment (precise text, linguistically ambiguous
   relations).  Beyond the spouse examples this one shows:

   - two query relations in one program (associations and suppressions),
   - MAP inference (the single most likely knowledge base) next to
     marginals,
   - the error-analysis report driving the next development iteration.

   Run with: dune exec examples/genomics_kbc.exe *)

module Database = Dd_relational.Database
module Value = Dd_relational.Value
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Nlp_load = Dd_kbc.Nlp_load
module Map_inference = Dd_inference.Map_inference

let abstracts =
  [
    (0, "BRCA1 is associated with breast cancer. TP53 mutations cause li fraumeni syndrome.");
    (1, "Overexpression of MDM2 suppresses TP53 in several tumors. \
         BRCA2 is associated with breast cancer.");
    (2, "Studies link APOE to alzheimer disease. HTT expansion causes huntington disease.");
    (3, "BRCA1 was mentioned alongside alzheimer disease with no causal finding. \
         MDM2 suppresses ARF in this pathway.");
    (4, "APOE is associated with alzheimer disease in both cohorts. \
         TP53 is associated with li fraumeni syndrome.");
  ]

let genes = [ "BRCA1"; "BRCA2"; "TP53"; "MDM2"; "APOE"; "HTT"; "ARF" ]

let diseases =
  [ "breast cancer"; "li fraumeni syndrome"; "alzheimer disease"; "huntington disease" ]

(* Incomplete curated KB (distant supervision). *)
let known_assoc =
  [ ("BRCA1", "breast cancer"); ("APOE", "alzheimer disease"); ("HTT", "huntington disease") ]

let known_suppresses = [ ("MDM2", "TP53") ]

let program_source =
  {|
  input sentence(doc int, sid int, phrase text, ctx text).
  input mention(sid int, mid text, name text, pos int).
  input el(name text, eid text).
  input known_assoc(g text, d text).
  input known_suppr(g text, d text).

  query assoc(m1 text, m2 text).
  query suppr(m1 text, m2 text).

  @cand
  pair(s, m1, m2) :- mention(s, m1, n1, 0), mention(s, m2, n2, 1).

  @assoc_fe
  assoc(m1, m2) :- pair(s, m1, m2), sentence(d, s, p, c)
    weight = w(p) semantics = ratio.

  @suppr_fe
  suppr(m1, m2) :- pair(s, m1, m2), sentence(d, s, p, c)
    weight = w(p) semantics = ratio.

  // The two relations are near-exclusive on the same mention pair.
  @exclusive
  assoc(m1, m2) :- suppr(m1, m2), pair(s, m1, m2)
    weight = -2.0 populate = false.

  @assoc_pos
  assoc_ev(m1, m2, true) :-
    pair(s, m1, m2), mention(s, m1, n1, 0), mention(s, m2, n2, 1),
    el(n1, e1), el(n2, e2), known_assoc(e1, e2).

  @suppr_pos
  suppr_ev(m1, m2, true) :-
    pair(s, m1, m2), mention(s, m1, n1, 0), mention(s, m2, n2, 1),
    el(n1, e1), el(n2, e2), known_suppr(e1, e2).

  // Known suppression pairs are negative evidence for association.
  @assoc_neg
  assoc_ev(m1, m2, false) :-
    pair(s, m1, m2), mention(s, m1, n1, 0), mention(s, m2, n2, 1),
    el(n1, e1), el(n2, e2), known_suppr(e1, e2).
|}

let () =
  let prog =
    match Dd_ddlog.Parser.parse program_source with
    | Ok p -> p
    | Error e -> failwith e
  in
  let db = Database.create () in
  let stats = Nlp_load.load_documents db ~entity_names:(genes @ diseases) abstracts in
  Printf.printf "NLP front: %d abstracts, %d sentences, %d mention pairs.\n\n"
    stats.Nlp_load.documents stats.Nlp_load.sentences stats.Nlp_load.pairs;
  List.iter
    (fun (name, schema) ->
      if not (Database.mem db name) then ignore (Database.create_table db name schema))
    prog.Dd_core.Program.input_schemas;
  let str = Value.str in
  List.iter (fun n -> Database.insert_rows db "el" [ [| str n; str n |] ]) (genes @ diseases);
  List.iter
    (fun (g, d) -> Database.insert_rows db "known_assoc" [ [| str g; str d |] ])
    known_assoc;
  List.iter
    (fun (g, d) -> Database.insert_rows db "known_suppr" [ [| str g; str d |] ])
    known_suppresses;
  let engine = Engine.create db prog in
  let gstats = Grounding.stats (Engine.grounding engine) in
  Printf.printf "Factor graph: %d variables, %d factors (%d weights).\n\n"
    gstats.Grounding.variables gstats.Grounding.factors gstats.Grounding.weights;
  let grounding = Engine.grounding engine in
  let rng = Dd_util.Prng.create 4 in
  let marginals =
    Dd_inference.Compiled.(marginals ~burn_in:50 rng (compile (Engine.graph engine)) ~sweeps:2500)
  in
  let name_of mid =
    let rel = Database.find db "mention" in
    let result = ref mid in
    Dd_relational.Relation.iter
      (fun t _ -> if Value.equal t.(1) (Value.Str mid) then result := Value.as_str t.(2))
      rel;
    !result
  in
  List.iter
    (fun relation ->
      Printf.printf "%s (marginal probability):\n" relation;
      Grounding.marginals_by_relation grounding marginals
      |> List.filter (fun (rel, _, _) -> rel = relation)
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
      |> List.iter (fun (_, tuple, p) ->
             Printf.printf "  %.3f  %s -- %s\n" p
               (name_of (Value.as_str tuple.(0)))
               (name_of (Value.as_str tuple.(1))));
      print_newline ())
    [ "assoc"; "suppr" ];
  (* The most probable knowledge base as a whole. *)
  let map = Map_inference.search ~sweeps:400 rng (Engine.graph engine) in
  let accepted =
    Grounding.marginals_by_relation grounding
      (Array.map (fun b -> if b then 1.0 else 0.0) map.Map_inference.assignment)
    |> List.filter (fun (_, _, p) -> p > 0.5)
  in
  Printf.printf "MAP knowledge base (%d facts, log-weight %.2f):\n"
    (List.length accepted) map.Map_inference.log_weight;
  List.iter
    (fun (rel, tuple, _) ->
      Printf.printf "  %s(%s, %s)\n" rel
        (name_of (Value.as_str tuple.(0)))
        (name_of (Value.as_str tuple.(1))))
    accepted
