(* Tests for Dd_core: program validation, grounding (full and incremental,
   with golden equivalence against regrounding from scratch), the three
   materialization strategies, the rule-based optimizer, decomposition and
   the end-to-end engine. *)

module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Database = Dd_relational.Database
module Ast = Dd_datalog.Ast
module Dred = Dd_datalog.Dred
module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Exact = Dd_oracle.Exact
module Metropolis = Dd_inference.Metropolis
module Compiled = Dd_inference.Compiled
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Materialize = Dd_core.Materialize
module Optimizer = Dd_core.Optimizer
module Decompose = Dd_oracle.Decompose
module Strawman = Dd_oracle.Strawman
module Budget_materialize = Dd_oracle.Budget_materialize
module Engine = Dd_core.Engine
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

let s = Value.str
let v name = Ast.Var name
let atom = Ast.atom

(* A miniature KBC program: items have features; a classifier labels items;
   a link relation correlates item pairs.

   input item_feature(item, feature)
   input link(a, b)
   input label_src(item, lbl)
   query is_pos(item)
*)
let item_schema = Schema.make [ ("item", Value.TStr); ("feature", Value.TStr) ]
let link_schema = Schema.make [ ("a", Value.TStr); ("b", Value.TStr) ]
let label_schema = Schema.make [ ("item", Value.TStr); ("lbl", Value.TBool) ]
let query_schema = Schema.make [ ("item", Value.TStr) ]

let classifier_rule semantics =
  Program.Infer
    {
      Program.name = "classify";
      head = atom "is_pos" [ v "x" ];
      body = [ Ast.Pos (atom "item_feature" [ v "x"; v "f" ]) ];
      guards = [];
      weight = Program.Tied [ v "f" ];
      semantics;
      populate_head = true;
    }

let link_rule =
  Program.Infer
    {
      Program.name = "linked";
      head = atom "is_pos" [ v "x" ];
      body =
        [ Ast.Pos (atom "is_pos" [ v "y" ]); Ast.Pos (atom "link" [ v "x"; v "y" ]) ];
      guards = [];
      weight = Program.Fixed 0.8;
      semantics = Semantics.Logical;
      populate_head = false;
    }

let supervision_rule =
  Program.Supervise
    ( "labels",
      Ast.rule
        (atom "is_pos_ev" [ v "x"; v "l" ])
        [ Ast.Pos (atom "label_src" [ v "x"; v "l" ]) ] )

let base_program ?(semantics = Semantics.Linear) () =
  {
    Program.input_schemas =
      [ ("item_feature", item_schema); ("link", link_schema); ("label_src", label_schema) ];
    query_relations = [ ("is_pos", query_schema) ];
    rules = [ classifier_rule semantics ];
  }

let load_features db rows =
  List.iter
    (fun (item, feature) ->
      Database.insert_rows db "item_feature" [ [| s item; s feature |] ])
    rows

let fresh_db () =
  let db = Database.create () in
  ignore (Database.create_table db "item_feature" item_schema);
  ignore (Database.create_table db "link" link_schema);
  ignore (Database.create_table db "label_src" label_schema);
  db

(* --- program validation --------------------------------------------------- *)

let test_program_validate_ok () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate (base_program ())))

let test_program_rejects_non_query_head () =
  let bad =
    {
      (base_program ()) with
      Program.rules =
        [
          Program.Infer
            {
              Program.name = "bad";
              head = atom "not_query" [ v "x" ];
              body = [ Ast.Pos (atom "item_feature" [ v "x"; v "f" ]) ];
              guards = [];
              weight = Program.Fixed 1.0;
              semantics = Semantics.Linear;
              populate_head = true;
            };
        ];
    }
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Program.validate bad))

let test_program_rejects_unbound_weight_var () =
  let bad =
    {
      (base_program ()) with
      Program.rules =
        [
          Program.Infer
            {
              Program.name = "bad";
              head = atom "is_pos" [ v "x" ];
              body = [ Ast.Pos (atom "item_feature" [ v "x"; v "f" ]) ];
              guards = [];
              weight = Program.Tied [ v "unbound" ];
              semantics = Semantics.Linear;
              populate_head = true;
            };
        ];
    }
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Program.validate bad))

let test_program_rejects_bad_supervision_target () =
  let bad =
    {
      (base_program ()) with
      Program.rules =
        [
          Program.Supervise
            ("bad", Ast.rule (atom "foo_ev" [ v "x" ]) [ Ast.Pos (atom "link" [ v "x"; v "y" ]) ]);
        ];
    }
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Program.validate bad))

let test_evidence_naming () =
  Alcotest.(check string) "suffix" "is_pos_ev" (Program.evidence_relation "is_pos")

let test_deterministic_program_respects_populate () =
  let with_link = Program.add_rules (base_program ()) [ link_rule ] in
  let datalog = Program.deterministic_program with_link in
  (* classify populates, linked does not: exactly one candidate rule. *)
  Alcotest.(check int) "one datalog rule" 1 (List.length datalog)

(* --- full grounding -------------------------------------------------------- *)

let test_ground_variables_and_factors () =
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("a", "f2"); ("b", "f1") ];
  let grounding = Grounding.ground db (base_program ()) in
  let stats = Grounding.stats grounding in
  Alcotest.(check int) "two candidates" 2 stats.Grounding.variables;
  (* Factor groups: (item, feature-weight): a#f1, a#f2, b#f1. *)
  Alcotest.(check int) "three factors" 3 stats.Grounding.factors;
  (* Tied weights: f1 shared across a and b, f2 separate. *)
  Alcotest.(check int) "two weights" 2 stats.Grounding.weights;
  Alcotest.(check bool) "var exists" true (Grounding.var_of grounding "is_pos" [| s "a" |] <> None)

let test_ground_weight_tying () =
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("b", "f1"); ("c", "f1") ];
  let grounding = Grounding.ground db (base_program ()) in
  let g = Grounding.graph grounding in
  Alcotest.(check int) "one tied weight" 1 (Graph.num_weights g);
  Alcotest.(check bool) "learnable" true (Graph.weight_learnable g 0)

let test_ground_fixed_weight () =
  let db = fresh_db () in
  load_features db [ ("a", "f1") ];
  Database.insert_rows db "link" [ [| s "a"; s "a" |] ];
  let prog = Program.add_rules (base_program ()) [ link_rule ] in
  let grounding = Grounding.ground db prog in
  let g = Grounding.graph grounding in
  (* One learnable feature weight + one fixed rule weight. *)
  let fixed =
    List.init (Graph.num_weights g) (fun w -> w)
    |> List.filter (fun w -> not (Graph.weight_learnable g w))
  in
  Alcotest.(check int) "one fixed" 1 (List.length fixed);
  Alcotest.(check (float 0.0)) "value" 0.8 (Graph.weight_value g (List.hd fixed))

let test_ground_evidence_majority () =
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("b", "f1"); ("c", "f1") ];
  (* a: one true vote; b: conflicting votes -> stays query; c: false. *)
  Database.insert_rows db "label_src"
    [
      [| s "a"; Value.Bool true |];
      [| s "b"; Value.Bool true |];
      [| s "b"; Value.Bool false |];
      [| s "c"; Value.Bool false |];
    ];
  let prog = Program.add_rules (base_program ()) [ supervision_rule ] in
  let grounding = Grounding.ground db prog in
  let g = Grounding.graph grounding in
  let evidence_of item =
    match Grounding.var_of grounding "is_pos" [| s item |] with
    | Some var -> Graph.evidence_of g var
    | None -> Alcotest.fail ("no var for " ^ item)
  in
  Alcotest.(check bool) "a true" true (evidence_of "a" = Graph.Evidence true);
  Alcotest.(check bool) "b conflicted -> query" true (evidence_of "b" = Graph.Query);
  Alcotest.(check bool) "c false" true (evidence_of "c" = Graph.Evidence false)

let test_ground_body_query_literals () =
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("b", "f2") ];
  Database.insert_rows db "link" [ [| s "a"; s "b" |] ];
  let prog = Program.add_rules (base_program ()) [ link_rule ] in
  let grounding = Grounding.ground db prog in
  let g = Grounding.graph grounding in
  (* The link factor connects both query variables. *)
  let linked =
    List.exists
      (fun fid ->
        let f = Graph.factor g fid in
        List.length (Graph.vars_of_factor f) = 2)
      (List.init (Graph.num_factors g) (fun x -> x))
  in
  Alcotest.(check bool) "pair factor exists" true linked

let test_ground_counts_in_factor_bodies () =
  (* Item with the same feature twice through different rows is impossible
     (set semantics), but two different deterministic supports of the same
     query body must both appear as bodies: n(gamma, I) counts groundings. *)
  let db = fresh_db () in
  load_features db [ ("a", "f1") ];
  (* Second inference rule whose body has a non-query atom with two
     matches for the same head/weight: use link with two rows. *)
  Database.insert_rows db "link" [ [| s "a"; s "x" |]; [| s "a"; s "y" |] ];
  let two_support =
    Program.Infer
      {
        Program.name = "sup";
        head = atom "is_pos" [ v "a" ];
        body =
          [ Ast.Pos (atom "item_feature" [ v "a"; v "f" ]); Ast.Pos (atom "link" [ v "a"; v "z" ]) ];
        guards = [];
        weight = Program.Fixed 0.5;
        semantics = Semantics.Linear;
        populate_head = true;
      }
  in
  let prog = Program.add_rules (base_program ()) [ two_support ] in
  let grounding = Grounding.ground db prog in
  let g = Grounding.graph grounding in
  let max_bodies =
    List.fold_left
      (fun acc fid -> max acc (Array.length (Graph.factor g fid).Graph.bodies))
      0
      (List.init (Graph.num_factors g) (fun x -> x))
  in
  Alcotest.(check int) "two groundings in one factor" 2 max_bodies

(* --- incremental grounding: golden equivalence ------------------------------- *)

(* Compare graphs by their exact distributions: same variables (by origin)
   and same probability for every world. *)
let distributions_agree g1 grounding1 g2 grounding2 =
  let n1 = Graph.num_vars g1 and n2 = Graph.num_vars g2 in
  if n1 <> n2 then false
  else begin
    (* Map g2's vars to g1's through origins. *)
    let mapping = Array.make n2 (-1) in
    let ok = ref true in
    for var2 = 0 to n2 - 1 do
      let rel, tuple = Grounding.origin grounding2 var2 in
      match Grounding.var_of grounding1 rel tuple with
      | Some var1 -> mapping.(var2) <- var1
      | None -> ok := false
    done;
    !ok
    && begin
      let worlds = Exact.enumerate g2 in
      List.for_all
        (fun (world2, p2) ->
          let world1 = Array.make n1 false in
          Array.iteri (fun var2 value -> world1.(mapping.(var2)) <- value) world2;
          let p1 = Exact.world_probability g1 world1 in
          abs_float (p1 -. p2) < 1e-9)
        worlds
    end
  end

let test_extend_data_matches_scratch () =
  (* Ground on a small db, extend with more rows, compare the distribution
     against grounding the final db from scratch. *)
  let db = fresh_db () in
  load_features db [ ("a", "f1") ];
  let prog = base_program () in
  let grounding = Grounding.ground db prog in
  (* Give the learnable weight a value so distributions are non-trivial;
     re-grounding from scratch recreates the same weight keys, so copy
     values over by key. *)
  Graph.set_weight (Grounding.graph grounding) 0 0.9;
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "item_feature" [| s "b"; s "f1" |];
  Dred.Delta.insert delta "item_feature" [| s "a"; s "f2" |];
  let report = Grounding.extend grounding (Grounding.data_update delta) in
  Alcotest.(check bool) "no rebuild" false report.Grounding.needs_rebuild;
  Alcotest.(check int) "one new var" 1 report.Grounding.new_vars;
  (* Scratch grounding over the same final data. *)
  let db2 = fresh_db () in
  load_features db2 [ ("a", "f1"); ("b", "f1"); ("a", "f2") ];
  let scratch = Grounding.ground db2 prog in
  (* Sync weights by key. *)
  let g1 = Grounding.graph grounding and g2 = Grounding.graph scratch in
  for w2 = 0 to Graph.num_weights g2 - 1 do
    let key = Grounding.weight_key_of scratch w2 in
    for w1 = 0 to Graph.num_weights g1 - 1 do
      if Grounding.weight_key_of grounding w1 = key then
        Graph.set_weight g2 w2 (Graph.weight_value g1 w1)
    done
  done;
  Alcotest.(check bool) "distributions equal" true
    (distributions_agree g1 grounding g2 scratch)

let test_extend_new_rule_matches_scratch () =
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("b", "f2") ];
  Database.insert_rows db "link" [ [| s "a"; s "b" |] ];
  let prog = base_program () in
  let grounding = Grounding.ground db prog in
  let report = Grounding.extend grounding (Grounding.rules_update [ link_rule ]) in
  Alcotest.(check bool) "new factors" true (report.Grounding.new_factors > 0);
  let db2 = fresh_db () in
  load_features db2 [ ("a", "f1"); ("b", "f2") ];
  Database.insert_rows db2 "link" [ [| s "a"; s "b" |] ];
  let scratch = Grounding.ground db2 (Program.add_rules prog [ link_rule ]) in
  Alcotest.(check bool) "distributions equal" true
    (distributions_agree (Grounding.graph grounding) grounding (Grounding.graph scratch) scratch)

let test_extend_supervision_updates_evidence () =
  let db = fresh_db () in
  load_features db [ ("a", "f1") ];
  Database.insert_rows db "label_src" [ [| s "a"; Value.Bool true |] ];
  let grounding = Grounding.ground db (base_program ()) in
  let report = Grounding.extend grounding (Grounding.rules_update [ supervision_rule ]) in
  Alcotest.(check int) "one evidence change" 1 report.Grounding.evidence_changed;
  let var = Option.get (Grounding.var_of grounding "is_pos" [| s "a" |]) in
  Alcotest.(check bool) "now evidence true" true
    (Graph.evidence_of (Grounding.graph grounding) var = Graph.Evidence true)

let test_extend_deletion_clamps () =
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("b", "f1") ];
  let grounding = Grounding.ground db (base_program ()) in
  let delta = Dred.Delta.create () in
  Dred.Delta.delete delta "item_feature" [| s "b"; s "f1" |];
  let report = Grounding.extend grounding (Grounding.data_update delta) in
  let var = Option.get (Grounding.var_of grounding "is_pos" [| s "b" |]) in
  Alcotest.(check bool) "clamped false" true
    (Graph.evidence_of (Grounding.graph grounding) var = Graph.Evidence false);
  Alcotest.(check bool) "evidence change recorded" true (report.Grounding.evidence_changed >= 1)

let test_extend_factor_extension_path () =
  (* Adding a second link for the same pair grows the existing factor
     group's bodies rather than creating a new factor. *)
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("b", "f1") ];
  Database.insert_rows db "link" [ [| s "a"; s "b" |] ];
  let prog = Program.add_rules (base_program ()) [ link_rule ] in
  let grounding = Grounding.ground db prog in
  let factors_before = (Grounding.stats grounding).Grounding.factors in
  (* a second deterministic support for the same (head, weight) group:
     another link row with the same endpoints cannot exist (set semantics),
     so instead extend by adding a feature that matches the classifier
     group of item a: different rule -> new factor.  Use a genuinely
     group-sharing update: new feature row for b with feature f1 joins the
     existing classify#b#f1 group?  It is the same tuple, no-op.  Instead
     verify extension through the link rule: link is in the body of
     "linked" with weight fixed (one group per head), so a new link b->a
     creates a new body for head b... which is a NEW group (head b).
     Extension is exercised in the KBC suite; here we check stability. *)
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "link" [| s "b"; s "a" |] ;
  let report = Grounding.extend grounding (Grounding.data_update delta) in
  Alcotest.(check int) "factors grew" (factors_before + 1)
    ((Grounding.stats grounding).Grounding.factors);
  Alcotest.(check bool) "reported" true (report.Grounding.new_factors = 1)

let test_extend_rejects_invalid_rules () =
  let db = fresh_db () in
  load_features db [ ("a", "f1") ];
  let grounding = Grounding.ground db (base_program ()) in
  let bad =
    Program.Infer
      {
        Program.name = "bad";
        head = atom "nope" [ v "x" ];
        body = [ Ast.Pos (atom "item_feature" [ v "x"; v "f" ]) ];
        guards = [];
        weight = Program.Fixed 1.0;
        semantics = Semantics.Linear;
        populate_head = true;
      }
  in
  Alcotest.(check bool) "raises typed malformed-delta error" true
    (match Grounding.extend grounding (Grounding.rules_update [ bad ]) with
    | _ -> false
    | exception Grounding.Error (`Malformed_delta _) -> true)

(* --- materialization ---------------------------------------------------------- *)

let biased_graph () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let wa = Graph.add_weight g 0.6 and wc = Graph.add_weight g 0.9 in
  ignore (Graph.unary g ~weight:wa a);
  ignore (Graph.pairwise g ~weight:wc a b);
  g

let test_strawman_exact_after_change () =
  let g = biased_graph () in
  let strawman = Strawman.materialize g in
  (* Change: weight 0 -> shift the unary weight. *)
  Graph.set_weight g 0 1.4;
  let change = { (Metropolis.unchanged g) with Metropolis.changed_weights = [ (0, 0.6) ] } in
  let updated = Strawman.marginals strawman change in
  let exact = Exact.marginals g in
  Alcotest.(check bool) "exact reweighting" true (Stats.max_abs_diff updated exact < 1e-9)

let test_strawman_rejects_new_vars () =
  let g = biased_graph () in
  let strawman = Strawman.materialize g in
  let fresh = Graph.add_var g in
  let change = { (Metropolis.unchanged g) with Metropolis.new_vars = [ fresh ] } in
  Alcotest.(check bool) "raises" true
    (match Strawman.marginals strawman change with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_materialize_contents () =
  let g = biased_graph () in
  let m =
    Materialize.materialize ~n_samples:50 ~burn_in:20 ~lambda:0.1 ~with_variational:true
      ~domains:1 ~kernel:(Compiled.compile g) (Prng.create 1)
  in
  Alcotest.(check int) "samples" 50 (Array.length m.Materialize.samples);
  Alcotest.(check bool) "variational built" true (m.Materialize.variational <> None);
  Alcotest.(check int) "baseline factors" (Graph.num_factors g)
    (Array.length m.Materialize.base_bodies);
  Alcotest.(check int) "baseline vars" (Graph.num_vars g) (Array.length m.Materialize.base_evidence);
  Alcotest.(check int) "no sample spent" 0 m.Materialize.samples_used

let test_materialize_budget () =
  let g = biased_graph () in
  let m = Budget_materialize.materialize (Prng.create 3) g ~seconds:0.05 in
  Alcotest.(check bool) "some samples" true (Array.length m.Materialize.samples > 10)

let test_cumulative_change () =
  let g = biased_graph () in
  let m =
    Materialize.materialize ~n_samples:20 ~burn_in:20 ~lambda:0.1 ~with_variational:true
      ~domains:1 ~kernel:(Compiled.compile g) (Prng.create 4)
  in
  (* Mutate: new var, new factor, extended base factor, weight change,
     evidence change. *)
  let fresh = Graph.add_var g in
  Graph.set_weight g 0 2.0;
  let w = Graph.add_weight g 0.1 in
  let fid = Graph.unary g ~weight:w fresh in
  Graph.extend_factor g fid [| [| { Graph.var = 0; negated = false } |] |];
  Graph.extend_factor g 1 [| [| { Graph.var = fresh; negated = false } |] |];
  Graph.set_evidence g 0 (Graph.Evidence true);
  let change = Materialize.cumulative_change m g in
  Alcotest.(check (list int)) "new vars" [ fresh ] change.Metropolis.new_vars;
  Alcotest.(check (list int)) "new factors" [ fid ] change.Metropolis.new_factor_ids;
  Alcotest.(check (list (pair int int))) "extended base factor with its original bodies"
    [ (1, m.Materialize.base_bodies.(1)) ] change.Metropolis.extended_factors;
  Alcotest.(check bool) "weight change recorded" true
    (List.mem (0, 0.6) change.Metropolis.changed_weights);
  Alcotest.(check int) "evidence change" 1 (List.length change.Metropolis.evidence_changes)

let test_variational_infer_absorbs_update () =
  let g = biased_graph () in
  let rng = Prng.create 5 in
  let m =
    Materialize.materialize ~n_samples:800 ~burn_in:20 ~lambda:0.01 ~with_variational:true
      ~domains:1 ~kernel:(Compiled.compile g) rng
  in
  (* Add a strongly biased new variable. *)
  let fresh = Graph.add_var g in
  let w = Graph.add_weight g 2.5 in
  let fid = Graph.unary g ~weight:w fresh in
  let change =
    {
      (Metropolis.unchanged g) with
      Metropolis.new_vars = [ fresh ];
      new_factor_ids = [ fid ];
    }
  in
  let approx = Option.get m.Materialize.variational in
  let marginals =
    Materialize.variational_infer ~sweeps:2000 ~burn_in:20 (Prng.create 6) ~approx ~change
  in
  Alcotest.(check bool) "new var biased up" true (marginals.(fresh) > 0.85)

(* The materialization survives the process inside the checkpoint's
   marshalled engine: it must round-trip through [Marshal] and answer
   updates like the original. *)
let test_materialize_save_load () =
  let g = biased_graph () in
  let m =
    Materialize.materialize ~n_samples:30 ~burn_in:20 ~lambda:0.1 ~with_variational:true
      ~domains:1 ~kernel:(Compiled.compile g) (Prng.create 19)
  in
  let back : Materialize.t = Marshal.from_string (Marshal.to_string m []) 0 in
  Alcotest.(check int) "samples" 30 (Array.length back.Materialize.samples);
  Alcotest.(check bool) "sample contents" true (m.Materialize.samples = back.Materialize.samples);
  Alcotest.(check bool) "weights" true (m.Materialize.base_weights = back.Materialize.base_weights);
  Alcotest.(check bool) "body counts" true (m.Materialize.base_bodies = back.Materialize.base_bodies);
  Alcotest.(check bool) "evidence" true (m.Materialize.base_evidence = back.Materialize.base_evidence);
  Alcotest.(check bool) "variational kept" true (back.Materialize.variational <> None);
  Graph.set_weight g 0 2.0;
  let infer (m : Materialize.t) =
    let change = Materialize.cumulative_change m g in
    (Dd_inference.Metropolis.infer (Prng.create 20) change ~stored:m.Materialize.samples ~first:0
       ~proposals:30)
      .Dd_inference.Metropolis.marginals
  in
  Alcotest.(check bool) "answers updates like the original" true (infer back = infer m)

(* --- optimizer ----------------------------------------------------------------- *)

let decision_name = function
  | Optimizer.Exact -> "exact"
  | Optimizer.Sampling -> "sampling"
  | Optimizer.Variational -> "variational"
  | Optimizer.Real_graph_chain -> "real-graph chain"

let after_probe_name = function
  | Optimizer.Mh_chain n -> Printf.sprintf "chain %d" n
  | Optimizer.Resort_to_variational -> "variational"

(* The observation every row of the optimizer tables edits: both
   artifacts built, 200 stored samples of which none used, a chain of 100. *)
let optimizer_observation =
  {
    Optimizer.enumerable = false;
    stored_samples = 200;
    samples_used = 0;
    variational_built = true;
    disable_sampling = false;
    workload_aware = true;
    chain = 100;
    acceptance_floor = 0.02;
  }

(* One table over [Optimizer.decide]: each row's observation, change and
   expected decision.  The changes are on [biased_graph]. *)
let check_decisions rows =
  List.iter
    (fun (name, obs, change, expected) ->
      Alcotest.(check string) name expected (decision_name (Optimizer.decide obs ~change)))
    rows

(* The arms [Optimizer.decide] takes before it reads the change (exact
   first, availability over the store cursor, the lesions), each row
   passing a change that fails the test when read, then
   [Optimizer.probe_length] and every arm of [Optimizer.after_probe].
   A probe reads 151 of the 200 stored worlds: its start and 150
   proposals. *)
let test_optimizer_rules () =
  let o = optimizer_observation in
  let unread = lazy (Alcotest.fail "the change was read") in
  check_decisions
    [
      ("exact first", { o with Optimizer.enumerable = true; disable_sampling = true }, unread, "exact");
      ("NoSampling", { o with Optimizer.disable_sampling = true }, unread, "variational");
      ("no stored samples", { o with Optimizer.stored_samples = 0 }, unread, "variational");
      ( "both artifacts missing",
        { o with Optimizer.disable_sampling = true; variational_built = false },
        unread,
        "real-graph chain" );
      ("NoRelaxation", { o with Optimizer.variational_built = false }, unread, "sampling");
      ( "NoRelaxation exhausted",
        { o with Optimizer.variational_built = false; samples_used = 200 },
        unread,
        "real-graph chain" );
      ("less than a probe left", { o with Optimizer.samples_used = 50 }, unread, "variational");
      ("exhausted", { o with Optimizer.samples_used = 101 }, unread, "variational");
      ("NoWorkloadInfo", { o with Optimizer.workload_aware = false }, unread, "sampling");
      ( "NoWorkloadInfo exhausted",
        { o with Optimizer.workload_aware = false; samples_used = 101 },
        unread,
        "variational" );
    ];
  Alcotest.(check (list int)) "probe length" [ 150; 79; 1 ]
    (List.map
       (fun stored_samples -> Optimizer.probe_length { o with Optimizer.stored_samples })
       [ 200; 80; 0 ]);
  List.iter
    (fun (name, obs, acceptance, expected) ->
      Alcotest.(check string) name expected
        (after_probe_name (Optimizer.after_probe obs ~acceptance)))
    [
      ("below the floor", o, 0.01, "variational");
      ("below the floor, no variational", { o with Optimizer.variational_built = false }, 0.01, "chain 1000");
      ("zero, no variational", { o with Optimizer.variational_built = false }, 0.0, "chain 1000");
      ("at the floor", o, 0.02, "chain 1000");
      ("above the floor", o, 0.3, "chain 334");
      ("full acceptance", o, 1.0, "chain 100");
    ]

(* The Section 3.3 rules, where the change's profile decides: an evidence
   change picks variational (rule 2, also over new structure); no change
   and a structure-only change pick sampling (rules 1 and 3), up to the
   last full probe the fresh stored worlds hold. *)
let test_optimizer_profile () =
  let o = optimizer_observation in
  let unchanged = Metropolis.unchanged (biased_graph ()) in
  let supervision = { unchanged with Metropolis.evidence_changes = [ (0, Graph.Query) ] } in
  check_decisions
    [
      ("rule 1: no structure change", o, lazy unchanged, "sampling");
      ("last full probe", { o with Optimizer.samples_used = 49 }, lazy unchanged, "sampling");
      ("no full probe left", { o with Optimizer.samples_used = 100 }, lazy unchanged, "variational");
      ("rule 2: evidence change", o, lazy supervision, "variational");
      ( "rule 3: structure-only change",
        o,
        lazy { unchanged with Metropolis.new_factor_ids = [ 1 ] },
        "sampling" );
      ( "rule 2 before rule 3",
        o,
        lazy { supervision with Metropolis.new_factor_ids = [ 1 ] },
        "variational" );
    ]

(* --- decomposition --------------------------------------------------------------- *)

let chain_graph n =
  let g = Graph.create () in
  let vars = Graph.add_vars g n in
  for k = 0 to n - 2 do
    let w = Graph.add_weight g 0.5 in
    ignore (Graph.pairwise g ~weight:w vars.(k) vars.(k + 1))
  done;
  (g, vars)

let test_decompose_chain_splits () =
  (* Chain 0-1-2-3-4 with 2 active: inactive components {0,1} and {3,4},
     each with boundary {2}; the merge heuristic (equal boundaries) joins
     them into one group. *)
  let g, vars = chain_graph 5 in
  let groups = Decompose.decompose g ~active:[ vars.(2) ] in
  Alcotest.(check int) "merged to one group" 1 (List.length groups);
  let group = List.hd groups in
  Alcotest.(check (list int)) "boundary" [ vars.(2) ] group.Decompose.active;
  Alcotest.(check int) "four inactive" 4 (List.length group.Decompose.inactive)

let test_decompose_disjoint_boundaries_stay_separate () =
  (* Two disconnected pairs with different active boundaries. *)
  let g = Graph.create () in
  let a0 = Graph.add_var g and a1 = Graph.add_var g in
  let b0 = Graph.add_var g and b1 = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  ignore (Graph.pairwise g ~weight:w a0 a1);
  ignore (Graph.pairwise g ~weight:w b0 b1);
  let groups = Decompose.decompose g ~active:[ a1; b1 ] in
  (* Boundaries {a1} and {b1}: |union| = 2 > max(1,1), no merge. *)
  Alcotest.(check int) "two groups" 2 (List.length groups)

let test_decompose_no_active () =
  let g, _ = chain_graph 4 in
  let groups = Decompose.decompose g ~active:[] in
  Alcotest.(check int) "single component" 1 (List.length groups);
  Alcotest.(check int) "all inactive" 4 (List.length (List.hd groups).Decompose.inactive)

let test_induced_subgraph_energies () =
  let g, vars = chain_graph 3 in
  let wb = Graph.add_weight g 0.7 in
  ignore (Graph.unary g ~weight:wb vars.(0));
  let sub, mapping = Decompose.induced_subgraph g ~vars:[ vars.(0); vars.(1) ] in
  Alcotest.(check int) "two vars" 2 (Graph.num_vars sub);
  (* Factors fully inside: unary(0) and pair(0,1); the pair(1,2) is out. *)
  Alcotest.(check int) "two factors" 2 (Graph.num_factors sub);
  Alcotest.(check int) "mapping excluded" (-1) mapping.(vars.(2));
  (* Energy agreement on a matching assignment. *)
  let full = Graph.total_energy g (fun v -> v = vars.(0) || v = vars.(1)) in
  let sub_energy = Graph.total_energy sub (fun _ -> true) in
  (* Full graph has the extra pair(1,2) factor with v2 false: satisfied? No
     (conjunction needs both): contributes 0, so energies match. *)
  Alcotest.(check (float 1e-9)) "energy" full sub_energy

let test_group_subgraph_clamps_boundary () =
  let g, vars = chain_graph 3 in
  let groups = Decompose.decompose g ~active:[ vars.(1) ] in
  let group = List.hd groups in
  let sub, mapping = Decompose.group_subgraph g group in
  let boundary_sub = mapping.(vars.(1)) in
  Alcotest.(check bool) "boundary clamped" true
    (match Graph.evidence_of sub boundary_sub with Graph.Evidence _ -> true | Graph.Query -> false)

(* --- engine ------------------------------------------------------------------- *)

let engine_fixture () =
  let db = fresh_db () in
  load_features db [ ("a", "f1"); ("b", "f1"); ("c", "f2"); ("d", "f2") ];
  Database.insert_rows db "label_src" [ [| s "a"; Value.Bool true |] ];
  let prog = Program.add_rules (base_program ()) [ supervision_rule ] in
  (db, prog)

(* [engine_fixture] with sixteen items on a chain of [link] rows: the
   linked rule joins the fifteen unlabelled items into one coupled
   component, over the enumeration bound, so the optimizer's §3.2 picks
   (MH over stored worlds, variational) still answer. *)
let coupled_fixture () =
  let db = fresh_db () in
  let items = List.init 16 (Printf.sprintf "i%02d") in
  load_features db (List.mapi (fun i x -> (x, if i mod 2 = 0 then "f1" else "f2")) items);
  List.iteri
    (fun i x -> if i > 0 then Database.insert_rows db "link" [ [| s (List.nth items (i - 1)); s x |] ])
    items;
  Database.insert_rows db "label_src" [ [| s "i00"; Value.Bool true |] ];
  let prog = Program.add_rules (base_program ()) [ supervision_rule; link_rule ] in
  (db, prog)

let quick_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 100;
    inference_chain = 50;
    initial_learning_epochs = 10;
    incremental_learning_epochs = 2;
  }

let check_over_the_bound engine =
  let k = Dd_inference.Compiled.compile (Engine.graph engine) in
  Alcotest.(check bool) "a component over the enumeration bound" false
    (Dd_inference.Compiled.enumerable k
       ~steps:(quick_options.Engine.burn_in + quick_options.Engine.inference_chain))

let test_engine_analysis_update_uses_sampling () =
  let db, prog = coupled_fixture () in
  let engine = Engine.create ~options:quick_options db prog in
  check_over_the_bound engine;
  let report = Engine.apply_update engine (Grounding.rules_update []) in
  Alcotest.(check string) "sampling" "sampling" (Engine.strategy_used_to_string report.Engine.strategy);
  (match report.Engine.acceptance_rate with
  | Some rate -> Alcotest.(check (float 0.0)) "full acceptance" 1.0 rate
  | None -> Alcotest.fail "expected acceptance rate")

let test_engine_exhaustion_switches () =
  let db, prog = coupled_fixture () in
  let engine = Engine.create ~options:quick_options db prog in
  check_over_the_bound engine;
  (* The first analysis update's chain reads all 100 stored worlds (a
     99-proposal probe, already longer than the 50 it needs); the later
     ones find no fresh probe left. *)
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  let report = Engine.apply_update engine (Grounding.rules_update []) in
  Alcotest.(check string) "variational after exhaustion" "variational"
    (Engine.strategy_used_to_string report.Engine.strategy)

let test_engine_lesion_disable_sampling () =
  let db, prog = coupled_fixture () in
  let engine =
    Engine.create ~options:{ quick_options with Engine.disable_sampling = true } db prog
  in
  check_over_the_bound engine;
  let report = Engine.apply_update engine (Grounding.rules_update []) in
  Alcotest.(check string) "forced variational" "variational"
    (Engine.strategy_used_to_string report.Engine.strategy)

let test_engine_lesion_disable_variational () =
  let db, prog = engine_fixture () in
  let engine =
    Engine.create ~options:{ quick_options with Engine.disable_variational = true } db prog
  in
  (* Exhaust samples; without variational the engine must still answer. *)
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  let report = Engine.apply_update engine (Grounding.rules_update []) in
  Alcotest.(check bool) "not variational" true
    (report.Engine.strategy <> Engine.Used_variational)

let test_engine_rematerialize_resets () =
  let db, prog = coupled_fixture () in
  let engine = Engine.create ~options:quick_options db prog in
  check_over_the_bound engine;
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  let (_ : float) = Engine.rematerialize engine in
  let report = Engine.apply_update engine (Grounding.rules_update []) in
  Alcotest.(check string) "sampling again" "sampling"
    (Engine.strategy_used_to_string report.Engine.strategy)

(* The store cursor under NoRelaxation (no variational artifact, so every
   available pick samples), 400 stored worlds and a chain of 200.  An
   analysis update changes nothing, so every proposal is accepted, the
   probe asks for a 200-proposal chain, and the marginals are the mean
   of the proposed stored worlds.  The first pick starts at world 0,
   probes 1..150 and goes on with 151..200; the second starts at 201 and
   stops at the store's end; the third finds no fresh probe and answers
   with the real-graph chain. *)
let test_engine_store_cursor () =
  let db, prog = coupled_fixture () in
  let options =
    {
      quick_options with
      Engine.materialization_samples = 400;
      inference_chain = 200;
      disable_variational = true;
    }
  in
  let engine = Engine.create ~options db prog in
  check_over_the_bound engine;
  let stored = (Engine.materialization engine).Materialize.samples in
  let cursor () = (Engine.materialization engine).Materialize.samples_used in
  let mean lo hi =
    Array.init (Array.length stored.(0)) (fun v ->
        let count = ref 0 in
        for i = lo to hi do
          if stored.(i).(v) then incr count
        done;
        float_of_int !count /. float_of_int (hi - lo + 1))
  in
  let pick name ~strategy ~marginals ~next =
    let report = Engine.apply_update engine (Grounding.rules_update []) in
    Alcotest.(check string) (name ^ ": strategy") strategy
      (Engine.strategy_used_to_string report.Engine.strategy);
    Option.iter
      (fun expected ->
        Alcotest.(check (option (float 0.0))) (name ^ ": acceptance") (Some 1.0)
          report.Engine.acceptance_rate;
        Alcotest.(check bool) (name ^ ": marginals are the proposed worlds") true
          (report.Engine.marginals = expected))
      marginals;
    Alcotest.(check int) (name ^ ": cursor") next (cursor ())
  in
  Alcotest.(check int) "fresh store" 0 (cursor ());
  pick "first pick" ~strategy:"sampling" ~marginals:(Some (mean 1 200)) ~next:201;
  pick "second pick" ~strategy:"sampling" ~marginals:(Some (mean 202 399)) ~next:400;
  pick "store read" ~strategy:"full-gibbs" ~marginals:None ~next:400

(* The MH arm under a transaction.  A fault after inference rolls the
   update back: the materialization, its spent samples included, is the
   pre-update value again, so replaying the update answers as an
   uninterrupted twin does.  The update's new link extends the linked
   factor of i03, a base factor, and the analysis update before it leaves
   samples already spent (a store of 400 outlasts both chains). *)
let test_engine_sampling_rollback () =
  let module Txn = Dd_core.Txn in
  let module Fault = Dd_util.Fault in
  let engine_after_analysis () =
    let db, prog = coupled_fixture () in
    let options = { quick_options with Engine.materialization_samples = 400 } in
    let engine = Engine.create ~options db prog in
    ignore (Engine.apply_update engine (Grounding.rules_update []));
    engine
  in
  let update () =
    let delta = Dred.Delta.create () in
    Dred.Delta.insert delta "link" [| s "i03"; s "i10" |];
    Grounding.data_update delta
  in
  Fault.reset ();
  let engine = engine_after_analysis () in
  check_over_the_bound engine;
  let pre = Engine.materialization engine in
  Alcotest.(check bool) "samples spent before the update" true (pre.Materialize.samples_used > 0);
  let txn =
    Txn.create
      ~options:{ Txn.max_retries = 0; allow_rematerialize = false; allow_rerun = false }
      engine
  in
  Fault.arm "engine.apply_update.post_inference" (Fault.Nth 1);
  let result = Txn.apply txn (update ()) in
  Fault.reset ();
  Alcotest.(check bool) "quarantined" true (Result.is_error result);
  Alcotest.(check bool) "materialization is the pre-update value" true
    (Engine.materialization engine == pre);
  Alcotest.(check int) "samples used restored" pre.Materialize.samples_used
    (Engine.materialization engine).Materialize.samples_used;
  let twin = engine_after_analysis () in
  let clean = Engine.apply_update twin (update ()) in
  Alcotest.(check string) "the update takes the MH arm" "sampling"
    (Engine.strategy_used_to_string clean.Engine.strategy);
  Alcotest.(check int) "one base factor extended" 1 clean.Engine.grounding.Grounding.extended;
  match Txn.replay txn (List.hd (Txn.dead_letters txn)) with
  | Error e -> Alcotest.fail ("replay failed: " ^ Txn.error_message e)
  | Ok outcome ->
    let replayed = outcome.Txn.report in
    Alcotest.(check (option (float 0.0))) "replay acceptance = uninterrupted run"
      clean.Engine.acceptance_rate replayed.Engine.acceptance_rate;
    Alcotest.(check bool) "replay marginals = uninterrupted run" true
      (clean.Engine.marginals = replayed.Engine.marginals);
    Alcotest.(check int) "samples used = uninterrupted run"
      (Engine.materialization twin).Materialize.samples_used
      (Engine.materialization engine).Materialize.samples_used

let test_engine_data_update_report () =
  let db, prog = engine_fixture () in
  let engine = Engine.create ~options:quick_options db prog in
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "item_feature" [| s "e"; s "f1" |];
  let report = Engine.apply_update engine (Grounding.data_update delta) in
  Alcotest.(check int) "one new var" 1 report.Engine.grounding.Grounding.new_vars;
  Alcotest.(check int) "marginal array covers it" (Graph.num_vars (Engine.graph engine))
    (Array.length report.Engine.marginals)

let test_engine_rerun () =
  let db, prog = engine_fixture () in
  let marginals, seconds = Engine.rerun ~options:quick_options db prog in
  Alcotest.(check int) "four vars" 4 (Array.length marginals);
  Alcotest.(check bool) "took time" true (seconds > 0.0)

(* [engine_fixture] with the linked rule over b -> c -> d: one coupled
   component of three, small enough that every update takes the exact
   rule on the real graph. *)
let small_coupled_fixture () =
  let db, prog = engine_fixture () in
  Database.insert_rows db "link" [ [| s "b"; s "c" |]; [| s "c"; s "d" |] ];
  (db, Program.add_rules prog [ link_rule ])

let digest m =
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") m))))

let test_engine_exact_rule () =
  let module Checkpoint = Dd_kbc.Checkpoint in
  let db, prog = small_coupled_fixture () in
  let engine = Engine.create ~options:quick_options db prog in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dd_core_exact_rule" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  let store = Checkpoint.open_store ~fsync:false dir in
  Checkpoint.save store engine;
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "item_feature" [| s "e"; s "f1" |];
  List.iter
    (fun update ->
      let report = Engine.apply_update engine update in
      Alcotest.(check string) "real-graph pick" "full-gibbs"
        (Engine.strategy_used_to_string report.Engine.strategy);
      Alcotest.(check int) "one component enumerated" 1 report.Engine.exact_components;
      let g = Engine.graph engine in
      let exact = Exact.marginals g in
      List.iter
        (fun v ->
          if abs_float (report.Engine.marginals.(v) -. exact.(v)) > 1e-12 then
            Alcotest.failf "var %d reads %.17g, exact %.17g" v report.Engine.marginals.(v) exact.(v))
        (Graph.query_vars g))
    [ Grounding.rules_update []; Grounding.data_update delta ];
  Checkpoint.save store engine;
  Alcotest.(check bool) "both updates appended to the WAL" true
    (Checkpoint.last_save store = Some (Checkpoint.Append 2));
  Checkpoint.abandon store;
  (match Checkpoint.recover (Checkpoint.open_store ~fsync:false dir) with
  | Ok (recovered, applied) ->
    Alcotest.(check int) "both updates replayed" 2 applied;
    Alcotest.(check string) "recovered marginals bit-identical" (digest (Engine.marginals engine))
      (digest (Engine.marginals recovered))
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  (* Learning is sequential and enumeration draws nothing, so the Rerun
     is the same at any domain count. *)
  let rerun domains =
    let db, prog = small_coupled_fixture () in
    digest (fst (Engine.rerun ~options:{ quick_options with Engine.parallel_domains = domains } db prog))
  in
  let once = rerun 1 in
  Alcotest.(check string) "rerun reproduces itself" once (rerun 1);
  Alcotest.(check string) "rerun at 3 domains reproduces itself" (rerun 3) (rerun 3);
  Alcotest.(check string) "and matches 1 domain" once (rerun 3)

(* Every factor of a grounding by tuple key: head and body literals named
   by their candidate tuples, with the weight key and semantics, sorted. *)
let factor_keys grounding =
  let g = Grounding.graph grounding in
  let name v =
    let rel, tuple = Grounding.origin grounding v in
    rel ^ Dd_relational.Tuple.to_string tuple
  in
  let keys = ref [] in
  Graph.iter_factors
    (fun _ f ->
      let body b =
        String.concat "&"
          (Array.to_list
             (Array.map (fun l -> (if l.Graph.negated then "!" else "") ^ name l.Graph.var) b))
      in
      let bodies = List.sort compare (Array.to_list (Array.map body f.Graph.bodies)) in
      keys :=
        Printf.sprintf "%s <= %s [%s %s]"
          (match f.Graph.head with Some h -> name h | None -> "-")
          (String.concat " | " bodies)
          (Grounding.weight_key_of grounding f.Graph.weight_id)
          (Semantics.to_string f.Graph.semantics)
        :: !keys)
    g;
  List.sort compare !keys

(* What a rollback must restore, compared whole. *)
let engine_state e =
  ( digest (Engine.marginals e),
    Dd_oracle.Serialize.to_string (Engine.graph e),
    Engine.marginals_by_relation e,
    Engine.kernel_compiles e )

(* [small_coupled_fixture] plus a link a -> b.  Deleting that row takes
   away the only support of the linked grounding [is_pos(a) <= is_pos(b)],
   and neither variable is clamped by the deletion, so the extended graph
   would keep a stale body ([Grounding.report.needs_rebuild]).  The engine
   grounds again: its graph matches a scratch grounding of the updated
   data by tuple key, its marginals are Rerun's on that data, and a
   rolled-back attempt, a direct application and WAL replay all agree. *)
let test_engine_deletion_regrounds () =
  let module Checkpoint = Dd_kbc.Checkpoint in
  let before_delete () =
    let db, prog = small_coupled_fixture () in
    Database.insert_rows db "link" [ [| s "a"; s "b" |] ];
    (db, prog)
  in
  let update () =
    let delta = Dred.Delta.create () in
    Dred.Delta.delete delta "link" [| s "a"; s "b" |];
    Grounding.data_update delta
  in
  let state = engine_state in
  let engine = Engine.create ~options:quick_options (fst (before_delete ())) (snd (before_delete ())) in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dd_core_deletion_regrounds" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  let store = Checkpoint.open_store ~fsync:false dir in
  Checkpoint.save store engine;
  let pre = state engine in
  let x = Engine.txn_begin engine in
  ignore (Engine.apply_update engine (update ()));
  Engine.txn_rollback engine x;
  Alcotest.(check bool) "rollback restores the engine" true (state engine = pre);
  let report = Engine.apply_update engine (update ()) in
  Alcotest.(check bool) "needs rebuild" true report.Engine.grounding.Grounding.needs_rebuild;
  let db, prog = small_coupled_fixture () in
  Alcotest.(check (list string)) "graph = scratch grounding by tuple key"
    (factor_keys (Grounding.ground db prog))
    (factor_keys (Engine.grounding engine));
  let db, prog = small_coupled_fixture () in
  Alcotest.(check string) "marginals = rerun on the updated data"
    (digest (fst (Engine.rerun ~options:quick_options db prog)))
    (digest (Engine.marginals engine));
  let direct =
    let db, prog = before_delete () in
    Engine.create ~options:quick_options db prog
  in
  ignore (Engine.apply_update direct (update ()));
  Alcotest.(check bool) "retry after rollback = direct application" true (state engine = state direct);
  Checkpoint.save store engine;
  Alcotest.(check bool) "the update appended to the WAL" true
    (Checkpoint.last_save store = Some (Checkpoint.Append 1));
  Checkpoint.abandon store;
  match Checkpoint.recover (Checkpoint.open_store ~fsync:false dir) with
  | Ok (recovered, applied) ->
    Alcotest.(check int) "update replayed" 1 applied;
    let m, g, _, _ = state engine and m', g', _, _ = state recovered in
    Alcotest.(check string) "replayed marginals bit-identical" m m';
    Alcotest.(check string) "replayed graph bytes" g g'
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)

(* The "deletion regrounds" update plus a new item, which alone would add
   a variable and a factor.  The deletion sets [needs_rebuild], so
   [Grounding.extend] grounds no factor into the graph the engine is about
   to discard; a quarantined attempt through [Txn] still restores the
   engine, and replaying the dead letter equals a direct application. *)
let test_rebuild_skips_flush () =
  let module Txn = Dd_core.Txn in
  let module Fault = Dd_util.Fault in
  let fixture () =
    let db, prog = small_coupled_fixture () in
    Database.insert_rows db "link" [ [| s "a"; s "b" |] ];
    (db, prog)
  in
  let update () =
    let delta = Dred.Delta.create () in
    Dred.Delta.delete delta "link" [| s "a"; s "b" |];
    Dred.Delta.insert delta "item_feature" [| s "e"; s "f1" |];
    Grounding.data_update delta
  in
  let grounding = Grounding.ground (fst (fixture ())) (snd (fixture ())) in
  let g = Grounding.graph grounding in
  let factors = Graph.num_factors g and weights = Graph.num_weights g in
  let report = Grounding.extend grounding (update ()) in
  Alcotest.(check bool) "needs rebuild" true report.Grounding.needs_rebuild;
  Alcotest.(check int) "one new variable" 1 report.Grounding.new_vars;
  Alcotest.(check int) "no factor added" factors (Graph.num_factors g);
  Alcotest.(check int) "no weight added" weights (Graph.num_weights g);
  Alcotest.(check int) "none reported" 0 (report.Grounding.new_factors + report.Grounding.extended);
  let engine () =
    let db, prog = fixture () in
    Engine.create ~options:quick_options db prog
  in
  let txn =
    Txn.create
      ~options:{ Txn.max_retries = 0; allow_rematerialize = false; allow_rerun = false }
      (engine ())
  in
  let pre = engine_state (Txn.engine txn) in
  Fault.arm "engine.apply_update.post_ground" (Fault.Nth 1);
  let outcome = Fun.protect ~finally:Fault.reset (fun () -> Txn.apply txn (update ())) in
  Alcotest.(check bool) "quarantined" true (Result.is_error outcome);
  Alcotest.(check bool) "rollback restores the engine" true (engine_state (Txn.engine txn) = pre);
  let direct = engine () in
  ignore (Engine.apply_update direct (update ()));
  match Txn.replay txn (List.hd (Txn.dead_letters txn)) with
  | Ok _ ->
    Alcotest.(check bool) "replay = direct application" true
      (engine_state (Txn.engine txn) = engine_state direct)
  | Error e -> Alcotest.fail (Txn.error_message e)

(* A fresh engine answers as Rerun does: [create] and [rerun] share one
   build (ground, compile once, learn, infer), so their marginals agree
   bit for bit — read in closed form, enumerated, or counted off a
   color-synchronous chain over the enumeration bound. *)
let test_engine_create_is_rerun () =
  let steps = quick_options.Engine.burn_in + quick_options.Engine.inference_chain in
  List.iter
    (fun (shape, fixture, options) ->
      let db, prog = fixture () in
      let engine = Engine.create ~options db prog in
      let k = Compiled.compile (Engine.graph engine) in
      Alcotest.(check string) "fixture shape" shape
        (if Compiled.num_coupled k = 0 then "all isolated"
         else if Compiled.enumerable k ~steps then "enumerable"
         else "over the bound");
      let db, prog = fixture () in
      Alcotest.(check string) (shape ^ ": create = rerun")
        (digest (fst (Engine.rerun ~options db prog)))
        (digest (Engine.marginals engine)))
    [
      ("all isolated", engine_fixture, quick_options);
      ("enumerable", small_coupled_fixture, quick_options);
      ("over the bound", coupled_fixture, { quick_options with Engine.parallel_domains = 2 });
    ]

let test_engine_marginals_by_relation () =
  let db, prog = engine_fixture () in
  let engine = Engine.create ~options:quick_options db prog in
  let by_rel = Engine.marginals_by_relation engine in
  Alcotest.(check int) "four entries" 4 (List.length by_rel);
  List.iter
    (fun (rel, _, p) ->
      Alcotest.(check string) "relation" "is_pos" rel;
      Alcotest.(check bool) "prob range" true (p >= 0.0 && p <= 1.0))
    by_rel

(* --- graph bit-identity pins ----------------------------------------------- *)

(* MD5 digests of the marshalled graph after full grounding and after the six
   Fig. 9 rule updates, on the five Systems presets (base program) and on
   three small News corpora (the full program, as a Rerun grounds it, and the
   base program plus the six updates).  Grounding is a canonical function of
   the facts and rules, so any change to the store, the join plans or
   factor construction must leave every digest unchanged.  The graph lost
   its variable-to-factor index after these were first recorded; the
   current values equal the marshalled evidence, weights, learnable flags,
   factors and journal of the graphs that index was built beside. *)
module Systems = Dd_kbc.Systems
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline

let graph_digest g = Digest.to_hex (Digest.string (Marshal.to_string g [ Marshal.No_sharing ]))

let pinned_graph_digests () =
  let corpus_db config =
    let db = Database.create () in
    Corpus.load (Corpus.generate config) db;
    db
  in
  let ground_and_update label config =
    let g = Grounding.ground (corpus_db config) (Pipeline.base_program ()) in
    let base = graph_digest (Grounding.graph g) in
    List.iter (fun id -> ignore (Grounding.extend g (Pipeline.update_of id))) Pipeline.all_rule_ids;
    [ (label ^ " ground", base); (label ^ " +6 rules", graph_digest (Grounding.graph g)) ]
  in
  let presets =
    List.concat_map (fun config -> ground_and_update config.Corpus.name config) Systems.all
  in
  let news =
    List.concat_map
      (fun seed ->
        let config =
          { Systems.news with Corpus.docs = 60; entities = 24; truth_pairs_per_relation = 10; seed }
        in
        let label = Printf.sprintf "news-%d" seed in
        let full = Grounding.ground (corpus_db config) (Pipeline.full_program ()) in
        ((label ^ " full", graph_digest (Grounding.graph full)) :: ground_and_update label config))
      [ 500; 501; 502 ]
  in
  presets @ news

let expected_graph_digests =
  [
    ("Adversarial ground", "8ea00e4b9d6bbfc5e6d5ac2a01d6151c");
    ("Adversarial +6 rules", "0daa14978212737fecaa8d40854aa0ad");
    ("News ground", "cc82d3dc18fc977e3d9af4001dd197f5");
    ("News +6 rules", "17e8e472f26ede07ece855940c8bd507");
    ("Genomics ground", "c7d6a2152b3d944ff6a4fa81f1aa223c");
    ("Genomics +6 rules", "433703e113ccccc523381f3bf036dea7");
    ("Pharma ground", "756f24593c99a5bc502363f5286c7728");
    ("Pharma +6 rules", "e0ba5c2b27419b23d76fa58c5ad52b3b");
    ("Paleontology ground", "181462fc687e4f9b039dc73cd5bc25dd");
    ("Paleontology +6 rules", "010f95c2a94826adc4b7f08e0fc5577f");
    ("news-500 full", "b8fe0e879116de94b4f7bae33a2116ef");
    ("news-500 ground", "764d15a48522c49b13e043331964ccb7");
    ("news-500 +6 rules", "b8fe0e879116de94b4f7bae33a2116ef");
    ("news-501 full", "aa7b2ecfcf40722c5655973bc2e156b4");
    ("news-501 ground", "7ca3dcd918d9630e8b8594817dcede54");
    ("news-501 +6 rules", "aa7b2ecfcf40722c5655973bc2e156b4");
    ("news-502 full", "f2ddd2d247204a219163d2bc2c688c11");
    ("news-502 ground", "4fff02d0f501601e85e0b7304d600ecd");
    ("news-502 +6 rules", "f2ddd2d247204a219163d2bc2c688c11");
  ]

let test_graph_digest_pins () =
  let actual = pinned_graph_digests () in
  Alcotest.(check (list (pair string string))) "graph digests" expected_graph_digests actual

(* Every graph gets a variational artifact, whatever its size: the
   approximate graph is built one coupled block at a time, so there is
   no variable limit to fence its cost.  News at 450 documents under the
   full program grounds more than 600 variables. *)
let test_engine_artifact_on_large_graph () =
  let db = Database.create () in
  Corpus.load (Corpus.generate { Systems.news with Corpus.docs = 450 }) db;
  let engine = Engine.create ~options:quick_options db (Pipeline.full_program ()) in
  let g = Engine.graph engine in
  Alcotest.(check bool) "more than 600 variables" true (Graph.num_vars g > 600);
  match (Engine.materialization engine).Materialize.variational with
  | None -> Alcotest.fail "no variational artifact"
  | Some approx -> Alcotest.(check int) "same variables" (Graph.num_vars g) (Graph.num_vars approx)

let () =
  Alcotest.run "dd_core"
    [
      ( "program",
        [
          Alcotest.test_case "validate ok" `Quick test_program_validate_ok;
          Alcotest.test_case "non-query head" `Quick test_program_rejects_non_query_head;
          Alcotest.test_case "unbound weight var" `Quick test_program_rejects_unbound_weight_var;
          Alcotest.test_case "bad supervision" `Quick test_program_rejects_bad_supervision_target;
          Alcotest.test_case "evidence naming" `Quick test_evidence_naming;
          Alcotest.test_case "populate_head" `Quick test_deterministic_program_respects_populate;
        ] );
      ( "grounding",
        [
          Alcotest.test_case "variables and factors" `Quick test_ground_variables_and_factors;
          Alcotest.test_case "weight tying" `Quick test_ground_weight_tying;
          Alcotest.test_case "fixed weight" `Quick test_ground_fixed_weight;
          Alcotest.test_case "evidence majority" `Quick test_ground_evidence_majority;
          Alcotest.test_case "body query literals" `Quick test_ground_body_query_literals;
          Alcotest.test_case "grounding counts" `Quick test_ground_counts_in_factor_bodies;
          Alcotest.test_case "graph digest pins" `Quick test_graph_digest_pins;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "data update = scratch" `Quick test_extend_data_matches_scratch;
          Alcotest.test_case "rule update = scratch" `Quick test_extend_new_rule_matches_scratch;
          Alcotest.test_case "supervision updates evidence" `Quick
            test_extend_supervision_updates_evidence;
          Alcotest.test_case "deletion clamps" `Quick test_extend_deletion_clamps;
          Alcotest.test_case "new factor group" `Quick test_extend_factor_extension_path;
          Alcotest.test_case "rejects invalid rules" `Quick test_extend_rejects_invalid_rules;
        ] );
      ( "materialize",
        [
          Alcotest.test_case "strawman exact" `Quick test_strawman_exact_after_change;
          Alcotest.test_case "strawman new vars" `Quick test_strawman_rejects_new_vars;
          Alcotest.test_case "contents" `Quick test_materialize_contents;
          Alcotest.test_case "budget" `Quick test_materialize_budget;
          Alcotest.test_case "cumulative change" `Quick test_cumulative_change;
          Alcotest.test_case "variational infer" `Slow test_variational_infer_absorbs_update;
          Alcotest.test_case "save/load" `Quick test_materialize_save_load;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "rules" `Quick test_optimizer_rules;
          Alcotest.test_case "profile" `Quick test_optimizer_profile;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "chain splits" `Quick test_decompose_chain_splits;
          Alcotest.test_case "disjoint boundaries" `Quick test_decompose_disjoint_boundaries_stay_separate;
          Alcotest.test_case "no active" `Quick test_decompose_no_active;
          Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph_energies;
          Alcotest.test_case "group clamps boundary" `Quick test_group_subgraph_clamps_boundary;
        ] );
      ( "engine",
        [
          Alcotest.test_case "analysis uses sampling" `Quick test_engine_analysis_update_uses_sampling;
          Alcotest.test_case "exhaustion switches" `Quick test_engine_exhaustion_switches;
          Alcotest.test_case "store cursor" `Quick test_engine_store_cursor;
          Alcotest.test_case "lesion no sampling" `Quick test_engine_lesion_disable_sampling;
          Alcotest.test_case "lesion no variational" `Quick test_engine_lesion_disable_variational;
          Alcotest.test_case "rematerialize" `Quick test_engine_rematerialize_resets;
          Alcotest.test_case "sampling rollback + replay" `Quick test_engine_sampling_rollback;
          Alcotest.test_case "data update report" `Quick test_engine_data_update_report;
          Alcotest.test_case "rerun" `Quick test_engine_rerun;
          Alcotest.test_case "marginals by relation" `Quick test_engine_marginals_by_relation;
          Alcotest.test_case "exact rule on small components" `Quick test_engine_exact_rule;
          Alcotest.test_case "create answers as rerun" `Quick test_engine_create_is_rerun;
          Alcotest.test_case "deletion regrounds" `Quick test_engine_deletion_regrounds;
          Alcotest.test_case "regrounding skips the flush" `Quick test_rebuild_skips_flush;
          Alcotest.test_case "artifact on a large graph" `Quick test_engine_artifact_on_large_graph;
        ] );
    ]
