(* Tests for Dd_datalog: AST safety, stratification, the matcher,
   stratified semi-naive evaluation, and — most importantly — golden
   equivalence of DRed incremental maintenance against from-scratch
   re-evaluation. *)

module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Database = Dd_relational.Database
module Ast = Dd_datalog.Ast
module Stratify = Dd_datalog.Stratify
module Matcher = Dd_oracle.Matcher
module Engine = Dd_datalog.Engine
module Dred = Dd_datalog.Dred

let i = Value.int
let v name = Ast.Var name
let c value = Ast.Const value
let atom = Ast.atom

let edge_schema = Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ]

let db_with_edges edges =
  let db = Database.create () in
  let r = Database.create_table db "edge" edge_schema in
  List.iter (fun (a, b) -> Relation.insert r [| i a; i b |]) edges;
  db

(* --- ast -------------------------------------------------------------------- *)

let test_ast_vars () =
  let r =
    Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "q" [ v "x"; v "y" ]) ]
  in
  Alcotest.(check (list string)) "rule vars" [ "x"; "y" ] (Ast.rule_vars r);
  Alcotest.(check (list string)) "positive vars" [ "x"; "y" ] (Ast.positive_body_vars r);
  Alcotest.(check string) "head pred" "p" (Ast.head_pred r);
  Alcotest.(check (list string)) "body preds" [ "q" ] (Ast.body_preds r)

let test_safety_ok () =
  let r = Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "q" [ v "x" ]) ] in
  Alcotest.(check bool) "safe" true (Result.is_ok (Ast.check_program [ r ]))

let test_safety_unbound_head () =
  let r = Ast.rule (atom "p" [ v "z" ]) [ Ast.Pos (atom "q" [ v "x" ]) ] in
  Alcotest.(check bool) "unsafe head" true (Result.is_error (Ast.check_program [ r ]))

let test_safety_unbound_negation () =
  let r =
    Ast.rule (atom "p" [ v "x" ])
      [ Ast.Pos (atom "q" [ v "x" ]); Ast.Neg (atom "r" [ v "y" ]) ]
  in
  Alcotest.(check bool) "unsafe negation" true (Result.is_error (Ast.check_program [ r ]))

let test_safety_unbound_guard () =
  let r =
    Ast.rule ~guards:[ Ast.Lt (v "x", v "w") ] (atom "p" [ v "x" ])
      [ Ast.Pos (atom "q" [ v "x" ]) ]
  in
  Alcotest.(check bool) "unsafe guard" true (Result.is_error (Ast.check_program [ r ]))

let test_rule_to_string () =
  let r =
    Ast.rule
      ~guards:[ Ast.Neq (v "x", v "y") ]
      (atom "p" [ v "x" ])
      [ Ast.Pos (atom "q" [ v "x"; v "y" ]); Ast.Neg (atom "r" [ v "y" ]) ]
  in
  Alcotest.(check string) "printed" "p(x) :- q(x, y), !r(y), x != y." (Ast.rule_to_string r)

(* --- stratification ---------------------------------------------------------- *)

let test_stratify_chain () =
  let program =
    [
      Ast.rule (atom "a" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
      Ast.rule (atom "b" [ v "x" ]) [ Ast.Pos (atom "a" [ v "x" ]) ];
    ]
  in
  match Stratify.stratify program with
  | Error e -> Alcotest.fail e
  | Ok strata ->
    Alcotest.(check int) "two strata" 2 (List.length strata);
    Alcotest.(check (list string)) "a first" [ "a" ] (List.nth strata 0).Stratify.preds;
    List.iter
      (fun stratum -> Alcotest.(check bool) "non-recursive" false stratum.Stratify.recursive)
      strata

let test_stratify_recursion_flag () =
  let program =
    [
      Ast.rule (atom "tc" [ v "x"; v "y" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
      Ast.rule
        (atom "tc" [ v "x"; v "z" ])
        [ Ast.Pos (atom "tc" [ v "x"; v "y" ]); Ast.Pos (atom "edge" [ v "y"; v "z" ]) ];
    ]
  in
  match Stratify.stratify program with
  | Error e -> Alcotest.fail e
  | Ok strata ->
    Alcotest.(check int) "one stratum" 1 (List.length strata);
    Alcotest.(check bool) "recursive" true (List.hd strata).Stratify.recursive

let test_stratify_negation_ok () =
  let program =
    [
      Ast.rule (atom "a" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
      Ast.rule
        (atom "b" [ v "x" ])
        [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Neg (atom "a" [ v "y" ]) ];
    ]
  in
  match Stratify.stratify program with
  | Error e -> Alcotest.fail e
  | Ok strata ->
    (* a must be fully evaluated before b. *)
    let order = List.concat_map (fun st -> st.Stratify.preds) strata in
    Alcotest.(check (list string)) "a before b" [ "a"; "b" ] order

let test_stratify_negative_cycle_rejected () =
  let program =
    [
      Ast.rule (atom "a" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Neg (atom "b" [ v "x" ]) ];
      Ast.rule (atom "b" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Neg (atom "a" [ v "x" ]) ];
    ]
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Stratify.stratify program))

(* --- matcher ------------------------------------------------------------------ *)

let lookup_of db = Engine.lookup_in db

let test_matcher_simple_join () =
  let db = db_with_edges [ (1, 2); (2, 3); (3, 4) ] in
  (* path2(x,z) :- edge(x,y), edge(y,z) *)
  let rule =
    Ast.rule
      (atom "path2" [ v "x"; v "z" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Pos (atom "edge" [ v "y"; v "z" ]) ]
  in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  Alcotest.(check int) "two paths" 2 (List.length result);
  Alcotest.(check bool) "1->3" true
    (List.exists (fun (t, _) -> Tuple.equal t [| i 1; i 3 |]) result)

let test_matcher_constants () =
  let db = db_with_edges [ (1, 2); (2, 3) ] in
  let rule =
    Ast.rule (atom "from1" [ v "y" ]) [ Ast.Pos (atom "edge" [ c (i 1); v "y" ]) ]
  in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  Alcotest.(check int) "one" 1 (List.length result);
  Alcotest.(check bool) "is 2" true (Tuple.equal (fst (List.hd result)) [| i 2 |])

let test_matcher_repeated_variable () =
  let db = db_with_edges [ (1, 1); (1, 2); (3, 3) ] in
  let rule = Ast.rule (atom "self" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "x" ]) ] in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  Alcotest.(check int) "two self loops" 2 (List.length result)

let test_matcher_guards () =
  let db = db_with_edges [ (1, 2); (2, 2); (3, 1) ] in
  let rule =
    Ast.rule
      ~guards:[ Ast.Lt (v "x", v "y") ]
      (atom "up" [ v "x"; v "y" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ]
  in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  Alcotest.(check int) "only ascending" 1 (List.length result)

let test_matcher_guard_against_constant () =
  let db = db_with_edges [ (1, 2); (2, 3) ] in
  let rule =
    Ast.rule
      ~guards:[ Ast.Neq (v "x", c (i 1)) ]
      (atom "not1" [ v "x" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ]
  in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  Alcotest.(check int) "one" 1 (List.length result)

let test_matcher_negation () =
  let db = db_with_edges [ (1, 2); (2, 3) ] in
  let blocked = Database.create_table db "blocked" (Schema.make [ ("n", Value.TInt) ]) in
  Relation.insert blocked [| i 2 |];
  let rule =
    Ast.rule
      (atom "ok" [ v "x"; v "y" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Neg (atom "blocked" [ v "y" ]) ]
  in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  Alcotest.(check int) "one survives" 1 (List.length result);
  Alcotest.(check bool) "2->3 kept" true (Tuple.equal (fst (List.hd result)) [| i 2; i 3 |])

let test_matcher_negation_before_binding () =
  (* The negated atom appears before its variables are bound; matching must
     defer it. *)
  let db = db_with_edges [ (1, 2) ] in
  let blocked = Database.create_table db "blocked" (Schema.make [ ("n", Value.TInt) ]) in
  Relation.insert blocked [| i 9 |];
  let rule =
    Ast.rule (atom "ok" [ v "x" ])
      [ Ast.Neg (atom "blocked" [ v "x" ]); Ast.Pos (atom "edge" [ v "x"; v "y" ]) ]
  in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  Alcotest.(check int) "deferred negation" 1 (List.length result)

let test_matcher_ground_fact () =
  let rule = Ast.rule (atom "fact" [ c (i 7) ]) [] in
  let result = Matcher.eval_rule ~lookup:(fun _ -> Matcher.empty_relation) rule in
  Alcotest.(check int) "one fact" 1 (List.length result);
  Alcotest.(check int) "count one" 1 (snd (List.hd result))

let test_matcher_derivation_counts () =
  (* p(x) :- edge(x, y): two groundings for x=1. *)
  let db = db_with_edges [ (1, 2); (1, 3); (2, 3) ] in
  let rule = Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ] in
  let result = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  let count_of value =
    try snd (List.find (fun (t, _) -> Tuple.equal t [| i value |]) result) with Not_found -> 0
  in
  Alcotest.(check int) "x=1 twice" 2 (count_of 1);
  Alcotest.(check int) "x=2 once" 1 (count_of 2)

let test_matcher_staged_matches_difference () =
  (* Golden: staged evaluation with an insertion delta must produce exactly
     the new groundings (full eval after minus full eval before). *)
  let before_edges = [ (1, 2); (2, 3) ] in
  let new_edge = (3, 4) in
  let rule =
    Ast.rule
      (atom "path2" [ v "x"; v "z" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Pos (atom "edge" [ v "y"; v "z" ]) ]
  in
  let db_before = db_with_edges before_edges in
  let db_after = db_with_edges (new_edge :: before_edges) in
  let eval db = Matcher.eval_rule ~lookup:(lookup_of db) rule in
  let full_before = eval db_before and full_after = eval db_after in
  let merged = Tuple.Hashtbl.create 16 in
  List.iter (fun (t, count) -> Tuple.Hashtbl.replace merged t count) full_after;
  List.iter
    (fun (t, count) ->
      let current = try Tuple.Hashtbl.find merged t with Not_found -> 0 in
      Tuple.Hashtbl.replace merged t (current - count))
    full_before;
  let expected =
    Tuple.Hashtbl.fold (fun t count acc -> if count <> 0 then (t, count) :: acc else acc)
      merged []
  in
  (* Staged evaluation over both delta positions. *)
  let delta = [ ([| i (fst new_edge); i (snd new_edge) |], 1) ] in
  let staged =
    List.concat
      [
        Matcher.eval_rule_staged
          ~before:(lookup_of db_after) ~after:(lookup_of db_before) ~delta_pos:0 ~delta rule;
        Matcher.eval_rule_staged
          ~before:(lookup_of db_after) ~after:(lookup_of db_before) ~delta_pos:1 ~delta rule;
      ]
  in
  let total = Tuple.Hashtbl.create 16 in
  List.iter
    (fun (t, count) ->
      let current = try Tuple.Hashtbl.find total t with Not_found -> 0 in
      Tuple.Hashtbl.replace total t (current + count))
    staged;
  let staged_list =
    Tuple.Hashtbl.fold (fun t count acc -> if count <> 0 then (t, count) :: acc else acc)
      total []
  in
  let normalize l = List.sort compare (List.map (fun (t, n) -> (Tuple.to_string t, n)) l) in
  Alcotest.(check (list (pair string int))) "staged = diff" (normalize expected)
    (normalize staged_list)

let test_matcher_negated_delta_sign () =
  (* ok(x,y) :- edge(x,y), !blocked(y).  When 3 enters blocked, the
     grounding (2,3) is lost: staged eval with flip -1 must report it with
     a negative count. *)
  let db = db_with_edges [ (1, 2); (2, 3) ] in
  let blocked = Database.create_table db "blocked" (Schema.make [ ("n", Value.TInt) ]) in
  Relation.insert blocked [| i 3 |];
  let rule =
    Ast.rule
      (atom "ok" [ v "x"; v "y" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Neg (atom "blocked" [ v "y" ]) ]
  in
  (* The negated literal's delta carries -1 for tuples that entered. *)
  let staged =
    Matcher.eval_rule_staged ~before:(lookup_of db) ~after:(lookup_of db) ~delta_pos:1
      ~delta:[ ([| i 3 |], -1) ]
      rule
  in
  Alcotest.(check int) "one lost" 1 (List.length staged);
  let tuple, count = List.hd staged in
  Alcotest.(check bool) "the 2->3 grounding" true (Tuple.equal tuple [| i 2; i 3 |]);
  Alcotest.(check int) "negative" (-1) count

let test_matcher_body_order_invariance () =
  (* Head tuples and derivation counts must not depend on the order the
     body literals are written in. *)
  let db = db_with_edges [ (1, 2); (2, 3); (2, 4); (3, 4) ] in
  let blocked = Database.create_table db "blocked" (Schema.make [ ("n", Value.TInt) ]) in
  Relation.insert blocked [| i 4 |];
  let body =
    [
      Ast.Pos (atom "edge" [ v "x"; v "y" ]);
      Ast.Pos (atom "edge" [ v "y"; v "z" ]);
      Ast.Neg (atom "blocked" [ v "z" ]);
    ]
  in
  let head = atom "p" [ v "x"; v "z" ] in
  let normalize result =
    List.sort compare (List.map (fun (t, n) -> (Tuple.to_string t, n)) result)
  in
  let reference =
    normalize (Matcher.eval_rule ~lookup:(lookup_of db) (Ast.rule head body))
  in
  (* All 6 permutations of the body. *)
  let permutations = function
    | [ a; b; c ] ->
      [ [ a; b; c ]; [ a; c; b ]; [ b; a; c ]; [ b; c; a ]; [ c; a; b ]; [ c; b; a ] ]
    | _ -> assert false
  in
  List.iter
    (fun permuted ->
      let result =
        normalize (Matcher.eval_rule ~lookup:(lookup_of db) (Ast.rule head permuted))
      in
      Alcotest.(check (list (pair string int))) "order invariant" reference result)
    (permutations body)

(* --- engine -------------------------------------------------------------------- *)

let tc_program =
  [
    Ast.rule (atom "tc" [ v "x"; v "y" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
    Ast.rule
      (atom "tc" [ v "x"; v "z" ])
      [ Ast.Pos (atom "tc" [ v "x"; v "y" ]); Ast.Pos (atom "edge" [ v "y"; v "z" ]) ];
  ]

let test_engine_transitive_closure () =
  let db = db_with_edges [ (1, 2); (2, 3); (3, 4) ] in
  Engine.run_exn db tc_program;
  let tc = Database.find db "tc" in
  Alcotest.(check int) "6 pairs" 6 (Relation.cardinality tc);
  Alcotest.(check bool) "1 reaches 4" true (Relation.mem tc [| i 1; i 4 |])

let test_engine_cycle () =
  let db = db_with_edges [ (1, 2); (2, 1) ] in
  Engine.run_exn db tc_program;
  let tc = Database.find db "tc" in
  Alcotest.(check int) "4 pairs incl self" 4 (Relation.cardinality tc);
  Alcotest.(check bool) "self loop derived" true (Relation.mem tc [| i 1; i 1 |])

let test_engine_same_level_dependency () =
  (* b depends on a, both non-recursive; evaluation must order them. *)
  let program =
    [
      Ast.rule (atom "a" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
      Ast.rule (atom "b" [ v "x" ]) [ Ast.Pos (atom "a" [ v "x" ]) ];
    ]
  in
  let db = db_with_edges [ (1, 2); (5, 6) ] in
  Engine.run_exn db program;
  Alcotest.(check int) "b populated" 2 (Relation.cardinality (Database.find db "b"))

let test_engine_negation_program () =
  (* sink(x) :- edge(y, x), !has_out(x);  has_out(x) :- edge(x, y). *)
  let program =
    [
      Ast.rule (atom "has_out" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
      Ast.rule (atom "sink" [ v "x" ])
        [ Ast.Pos (atom "edge" [ v "y"; v "x" ]); Ast.Neg (atom "has_out" [ v "x" ]) ];
    ]
  in
  let db = db_with_edges [ (1, 2); (2, 3) ] in
  Engine.run_exn db program;
  let sink = Database.find db "sink" in
  Alcotest.(check int) "one sink" 1 (Relation.cardinality sink);
  Alcotest.(check bool) "3 is sink" true (Relation.mem sink [| i 3 |])

let test_engine_counts_diamond () =
  (* p(x) :- edge(x, y): node 1 has two out-edges -> count 2. *)
  let program =
    [ Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ] ]
  in
  let db = db_with_edges [ (1, 2); (1, 3) ] in
  Engine.run_exn db program;
  Alcotest.(check int) "two derivations" 2 (Relation.count (Database.find db "p") [| i 1 |])

let test_engine_rerun_clears () =
  let db = db_with_edges [ (1, 2) ] in
  Engine.run_exn db tc_program;
  (* Remove the edge and rerun: tc must be recomputed, not accumulated. *)
  ignore (Relation.remove (Database.find db "edge") [| i 1; i 2 |]);
  Engine.run_exn db tc_program;
  Alcotest.(check int) "tc empty" 0 (Relation.cardinality (Database.find db "tc"))

(* --- dred: golden equivalence ---------------------------------------------------- *)

(* Apply changes via DRed and compare the database against a fresh
   evaluation over the updated base tables. *)
let dred_equivalence ~program ~initial_edges ~inserts ~deletes =
  let db = db_with_edges initial_edges in
  Engine.run_exn db program;
  let delta = Dred.Delta.create () in
  List.iter (fun (a, b) -> Dred.Delta.insert delta "edge" [| i a; i b |]) inserts;
  List.iter (fun (a, b) -> Dred.Delta.delete delta "edge" [| i a; i b |]) deletes;
  let flips =
    match Dred.apply db program delta with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  (* Fresh evaluation over the final base tables. *)
  let final_edges =
    List.filter (fun e -> not (List.mem e deletes)) (initial_edges @ inserts)
    |> List.sort_uniq compare
  in
  let fresh = db_with_edges final_edges in
  Engine.run_exn fresh program;
  let empty = Relation.create (Schema.make []) in
  List.iter
    (fun pred ->
      let incremental = Option.value (Database.find_opt db pred) ~default:empty in
      let scratch = Option.value (Database.find_opt fresh pred) ~default:empty in
      if not (Relation.equal_contents incremental scratch) then
        Alcotest.failf "predicate %s differs: incremental %d tuples vs scratch %d" pred
          (Relation.cardinality incremental) (Relation.cardinality scratch))
    (Ast.idb_preds program);
  flips

let nonrec_program =
  [
    Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
    Ast.rule
      (atom "q" [ v "x"; v "z" ])
      [ Ast.Pos (atom "p" [ v "x" ]); Ast.Pos (atom "edge" [ v "x"; v "z" ]) ];
  ]

let test_dred_insert_nonrecursive () =
  let flips =
    dred_equivalence ~program:nonrec_program ~initial_edges:[ (1, 2); (2, 3) ]
      ~inserts:[ (3, 4); (1, 5) ] ~deletes:[]
  in
  Alcotest.(check bool) "p gained 3" true
    (List.exists (fun (t, n) -> Tuple.equal t [| i 3 |] && n = 1) (Dred.Delta.flips flips "p"))

let test_dred_delete_nonrecursive () =
  let flips =
    dred_equivalence ~program:nonrec_program ~initial_edges:[ (1, 2); (2, 3); (1, 5) ]
      ~inserts:[] ~deletes:[ (2, 3) ]
  in
  Alcotest.(check bool) "p lost 2" true
    (List.exists (fun (t, n) -> Tuple.equal t [| i 2 |] && n = -1) (Dred.Delta.flips flips "p"))

let test_dred_delete_keeps_alternative_derivation () =
  (* Node 1 has two out-edges; deleting one must not remove p(1). *)
  let flips =
    dred_equivalence ~program:nonrec_program ~initial_edges:[ (1, 2); (1, 3) ] ~inserts:[]
      ~deletes:[ (1, 2) ]
  in
  Alcotest.(check (list (pair string int))) "no p flips" []
    (List.map (fun (t, n) -> (Tuple.to_string t, n)) (Dred.Delta.flips flips "p"))

let test_dred_mixed_update () =
  ignore
    (dred_equivalence ~program:nonrec_program ~initial_edges:[ (1, 2); (2, 3); (3, 4) ]
       ~inserts:[ (4, 5); (2, 6) ] ~deletes:[ (1, 2); (3, 4) ])

let test_dred_recursive_insert () =
  ignore
    (dred_equivalence ~program:tc_program ~initial_edges:[ (1, 2); (2, 3) ]
       ~inserts:[ (3, 4) ] ~deletes:[])

let test_dred_recursive_delete () =
  (* Deleting a bridge edge removes many tc pairs; counting alone cannot do
     this (cyclic support), the recompute fallback must. *)
  ignore
    (dred_equivalence ~program:tc_program ~initial_edges:[ (1, 2); (2, 3); (3, 1); (3, 4) ]
       ~inserts:[] ~deletes:[ (2, 3) ])

let test_dred_negation_program () =
  let program =
    [
      Ast.rule (atom "has_out" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
      Ast.rule (atom "sink" [ v "x" ])
        [ Ast.Pos (atom "edge" [ v "y"; v "x" ]); Ast.Neg (atom "has_out" [ v "x" ]) ];
    ]
  in
  (* Adding 3 -> 4 makes 3 lose sink status and 4 gain it. *)
  let flips =
    dred_equivalence ~program ~initial_edges:[ (1, 2); (2, 3) ] ~inserts:[ (3, 4) ]
      ~deletes:[]
  in
  let sink_flips =
    List.sort compare
      (List.map (fun (t, n) -> (Tuple.to_string t, n)) (Dred.Delta.flips flips "sink"))
  in
  Alcotest.(check (list (pair string int))) "sink flips" [ ("(3)", -1); ("(4)", 1) ] sink_flips

let test_dred_noop_update () =
  (* Inserting an existing tuple and deleting a non-existent one: no flips. *)
  let flips =
    dred_equivalence ~program:nonrec_program ~initial_edges:[ (1, 2) ] ~inserts:[ (1, 2) ]
      ~deletes:[ (9, 9) ]
  in
  Alcotest.(check bool) "no changes" true (Dred.Delta.total flips = 0)

let test_dred_rejects_idb_change () =
  let db = db_with_edges [ (1, 2) ] in
  Engine.run_exn db nonrec_program;
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "p" [| i 9 |];
  Alcotest.(check bool) "error" true (Result.is_error (Dred.apply db nonrec_program delta))

let test_dred_seeds_new_rule () =
  (* Simulate adding rule r(x) :- p(x): evaluate it as a seed and let DRed
     integrate and propagate. *)
  let db = db_with_edges [ (1, 2); (2, 3) ] in
  Engine.run_exn db nonrec_program;
  let new_rule = Ast.rule (atom "r" [ v "x" ]) [ Ast.Pos (atom "p" [ v "x" ]) ] in
  let program = nonrec_program @ [ new_rule ] in
  let seeds = [ ("r", Matcher.eval_rule ~lookup:(Engine.lookup_in db) new_rule) ] in
  (match Dred.apply ~seeds db program (Dred.Delta.create ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let fresh = db_with_edges [ (1, 2); (2, 3) ] in
  Engine.run_exn fresh program;
  Alcotest.(check bool) "r matches scratch" true
    (Relation.equal_contents (Database.find db "r") (Database.find fresh "r"))

let test_dred_guard_rule () =
  let program =
    [
      Ast.rule
        ~guards:[ Ast.Neq (v "x", v "y") ]
        (atom "strict" [ v "x"; v "y" ])
        [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
    ]
  in
  ignore
    (dred_equivalence ~program ~initial_edges:[ (1, 1); (1, 2) ] ~inserts:[ (2, 2); (2, 3) ]
       ~deletes:[ (1, 2) ])

(* qcheck: random graphs and random mutations, checked against scratch for
   both a non-recursive join program and transitive closure. *)
let qcheck_tests =
  let open QCheck in
  let edge_gen = Gen.(pair (0 -- 5) (0 -- 5)) in
  let edges_gen = Gen.list_size Gen.(0 -- 12) edge_gen in
  let scenario_gen = Gen.triple edges_gen (Gen.list_size Gen.(0 -- 4) edge_gen) (Gen.list_size Gen.(0 -- 4) edge_gen) in
  let arb =
    make
      ~print:(fun (a, b, c) ->
        Printf.sprintf "init=%s ins=%s del=%s"
          (String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "%d-%d" x y) a))
          (String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "%d-%d" x y) b))
          (String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "%d-%d" x y) c)))
      scenario_gen
  in
  let run program (initial, inserts, deletes) =
    let initial = List.sort_uniq compare initial in
    match
      dred_equivalence ~program ~initial_edges:initial ~inserts ~deletes
    with
    | _ -> true
    | exception Alcotest.Test_error -> false
  in
  [
    Test.make ~name:"dred equals scratch (join program)" ~count:150 arb (run nonrec_program);
    Test.make ~name:"dred equals scratch (transitive closure)" ~count:100 arb (run tc_program);
  ]

let () =
  Alcotest.run "dd_datalog"
    [
      ( "ast",
        [
          Alcotest.test_case "vars" `Quick test_ast_vars;
          Alcotest.test_case "safety ok" `Quick test_safety_ok;
          Alcotest.test_case "unbound head" `Quick test_safety_unbound_head;
          Alcotest.test_case "unbound negation" `Quick test_safety_unbound_negation;
          Alcotest.test_case "unbound guard" `Quick test_safety_unbound_guard;
          Alcotest.test_case "to_string" `Quick test_rule_to_string;
        ] );
      ( "stratify",
        [
          Alcotest.test_case "chain" `Quick test_stratify_chain;
          Alcotest.test_case "recursion flag" `Quick test_stratify_recursion_flag;
          Alcotest.test_case "negation ok" `Quick test_stratify_negation_ok;
          Alcotest.test_case "negative cycle" `Quick test_stratify_negative_cycle_rejected;
        ] );
      ( "matcher",
        [
          Alcotest.test_case "simple join" `Quick test_matcher_simple_join;
          Alcotest.test_case "constants" `Quick test_matcher_constants;
          Alcotest.test_case "repeated variable" `Quick test_matcher_repeated_variable;
          Alcotest.test_case "guards" `Quick test_matcher_guards;
          Alcotest.test_case "guard vs constant" `Quick test_matcher_guard_against_constant;
          Alcotest.test_case "negation" `Quick test_matcher_negation;
          Alcotest.test_case "deferred negation" `Quick test_matcher_negation_before_binding;
          Alcotest.test_case "ground fact" `Quick test_matcher_ground_fact;
          Alcotest.test_case "derivation counts" `Quick test_matcher_derivation_counts;
          Alcotest.test_case "staged = diff" `Quick test_matcher_staged_matches_difference;
          Alcotest.test_case "negated delta sign" `Quick test_matcher_negated_delta_sign;
          Alcotest.test_case "body order invariance" `Quick test_matcher_body_order_invariance;
        ] );
      ( "engine",
        [
          Alcotest.test_case "transitive closure" `Quick test_engine_transitive_closure;
          Alcotest.test_case "cycle" `Quick test_engine_cycle;
          Alcotest.test_case "same-level dependency" `Quick test_engine_same_level_dependency;
          Alcotest.test_case "negation program" `Quick test_engine_negation_program;
          Alcotest.test_case "diamond counts" `Quick test_engine_counts_diamond;
          Alcotest.test_case "rerun clears" `Quick test_engine_rerun_clears;
        ] );
      ( "dred",
        [
          Alcotest.test_case "insert non-recursive" `Quick test_dred_insert_nonrecursive;
          Alcotest.test_case "delete non-recursive" `Quick test_dred_delete_nonrecursive;
          Alcotest.test_case "delete keeps alternative" `Quick
            test_dred_delete_keeps_alternative_derivation;
          Alcotest.test_case "mixed update" `Quick test_dred_mixed_update;
          Alcotest.test_case "recursive insert" `Quick test_dred_recursive_insert;
          Alcotest.test_case "recursive delete" `Quick test_dred_recursive_delete;
          Alcotest.test_case "negation" `Quick test_dred_negation_program;
          Alcotest.test_case "noop update" `Quick test_dred_noop_update;
          Alcotest.test_case "rejects IDB change" `Quick test_dred_rejects_idb_change;
          Alcotest.test_case "seeds new rule" `Quick test_dred_seeds_new_rule;
          Alcotest.test_case "guard rule" `Quick test_dred_guard_rule;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
