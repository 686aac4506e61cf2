(* Tests for Dd_datalog.Plan: compiled join plans must be count-exact
   against the interpreted reference Matcher on arbitrary rules and
   databases (including negation, constants, repeated variables, guards,
   and empty relations) in every physical store layout, one plan must give
   the same results over any two layouts of the same facts, Patched views
   must behave like materialized snapshots, the column store must equal the
   reference row bag under random mutation programs, and DRed through
   compiled delta plans must match from-scratch evaluation on
   insert / delete / rederive scenarios. *)

module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Database = Dd_relational.Database
module Ast = Dd_datalog.Ast
module Matcher = Dd_oracle.Matcher
module Engine = Dd_datalog.Engine
module Dred = Dd_datalog.Dred
module Plan = Dd_datalog.Plan
module Column_store = Dd_relational.Column_store
module Row_bag = Dd_oracle.Row_bag

let i = Value.int
let v name = Ast.Var name
let c value = Ast.Const value
let atom = Ast.atom

(* --- helpers ---------------------------------------------------------------- *)

let schema_of_arity n =
  Schema.make (List.init n (fun k -> (Printf.sprintf "c%d" k, Value.TInt)))

let relation_of schema rows =
  let r = Relation.create schema in
  List.iter (Relation.insert r) rows;
  r

(* Fixed EDB vocabulary: predicate name -> arity. *)
let preds = [ ("e1", 1); ("e2", 2); ("f2", 2); ("g3", 3) ]

let arity_of pred = List.assoc pred preds

let compact_all db =
  List.iter
    (fun name -> Column_store.compact (Relation.store (Database.find db name)))
    (Database.table_names db)

(* Physical layouts of the same logical contents: where a probe finds a
   tuple (delta tail, sorted run, or a run row a tail entry overrides)
   must not change what it yields. *)
type layout =
  | Tail  (** everything still in the delta tail *)
  | Run  (** everything compacted into the sorted run *)
  | Split  (** first half in the run, second half in the tail *)
  | Overridden
      (** every tuple inserted once too often, plus ghost tuples, then
          compacted; the extras are then removed and the ghosts deleted, so
          every run row is overridden or hidden by a tail entry *)

let layout_gen = QCheck.Gen.oneofl [ Tail; Run; Split; Overridden ]

let layout_to_string = function
  | Tail -> "tail"
  | Run -> "run"
  | Split -> "split"
  | Overridden -> "overridden"

let make_db ?(layout = Tail) contents =
  let db = Database.create () in
  List.iter
    (fun (pred, arity) -> ignore (Database.create_table db pred (schema_of_arity arity)))
    preds;
  let insert (pred, tuple, count) = Relation.insert ~count (Database.find db pred) tuple in
  (match layout with
  | Tail -> List.iter insert contents
  | Run ->
    List.iter insert contents;
    compact_all db
  | Split ->
    let half = List.length contents / 2 in
    List.iteri (fun k e -> if k < half then insert e) contents;
    compact_all db;
    List.iteri (fun k e -> if k >= half then insert e) contents
  | Overridden ->
    (* Ghosts share key values with live tuples, so keyed probes land on
       the hidden run rows. *)
    let ghosts =
      List.concat_map
        (fun (pred, arity) ->
          List.filter_map
            (fun k ->
              let tuple = Array.make arity (i k) in
              if List.exists (fun (p, t, _) -> p = pred && Tuple.equal t tuple) contents then None
              else Some (pred, tuple))
            [ 0; 1; 2; 3 ])
        preds
    in
    List.iter (fun (pred, tuple, count) -> insert (pred, tuple, count + 1)) contents;
    List.iter (fun (pred, tuple) -> insert (pred, tuple, 1)) ghosts;
    compact_all db;
    List.iter (fun (pred, tuple, _) -> ignore (Relation.remove (Database.find db pred) tuple)) contents;
    List.iter (fun (pred, tuple) -> Relation.delete_all (Database.find db pred) tuple) ghosts);
  db

let sorted_counted l = List.sort compare (List.map (fun (t, n) -> (Array.to_list t, n)) l)

let materialize_env rule env =
  List.map (fun var -> (var, env var)) (List.sort_uniq compare (Ast.rule_vars rule))

let sorted_envs rule envs = List.sort compare (List.map (materialize_env rule) envs)

(* Slot rows read back as the environments the reference matcher yields:
   each rule variable's value, [None] while unbound. *)
let env_of_row plan row var =
  match Plan.slot plan var with
  | Some s when not (Value.equal row.(s) Value.Null) -> Some row.(s)
  | _ -> None

let plan_envs plan ~lookup =
  let out = ref [] in
  Plan.iter_rows plan ~lookup ~f:(fun row _ -> out := env_of_row plan (Array.copy row) :: !out);
  List.rev !out

let plan_envs_staged plan ~before ~after ~delta =
  let out = ref [] in
  Plan.iter_rows_staged plan ~before ~after ~delta ~f:(fun row n ->
      out := (env_of_row plan (Array.copy row), n) :: !out);
  List.rev !out

let sorted_counted_envs rule envs =
  List.sort compare (List.map (fun (env, n) -> (materialize_env rule env, n)) envs)

(* --- unit: compile shape ----------------------------------------------------- *)

let test_order_prefers_bound () =
  (* g3 shares x with the head; e2(x,y) must run before f2(z,w) once x,y
     are bound... with nothing bound yet the heuristic picks the literal
     with a constant first. *)
  let rule =
    Ast.rule
      (atom "p" [ v "x" ])
      [
        Ast.Pos (atom "f2" [ v "z"; v "w" ]);
        Ast.Pos (atom "e2" [ v "x"; c (i 7) ]);
        Ast.Pos (atom "g3" [ v "x"; v "z"; v "y" ]);
      ]
  in
  let plan = Plan.compile rule in
  Alcotest.(check int) "starts at constant literal" 1 (List.hd (Plan.literal_order plan));
  Alcotest.(check int) "full plan" (-1) (Plan.delta_pos plan)

let test_delta_plan_starts_at_delta () =
  let rule =
    Ast.rule
      (atom "p" [ v "x"; v "z" ])
      [ Ast.Pos (atom "e2" [ v "x"; v "y" ]); Ast.Pos (atom "f2" [ v "y"; v "z" ]) ]
  in
  let plan = Plan.compile_delta rule ~delta_pos:1 in
  Alcotest.(check int) "delta literal first" 1 (List.hd (Plan.literal_order plan));
  Alcotest.(check int) "delta pos recorded" 1 (Plan.delta_pos plan)

let test_cache_reuses_plans () =
  let rule =
    Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "e2" [ v "x"; v "y" ]) ]
  in
  let cache = Plan.Cache.create () in
  let p1 = Plan.Cache.full cache rule in
  let p2 = Plan.Cache.full cache rule in
  Alcotest.(check bool) "same plan" true (p1 == p2);
  ignore (Plan.Cache.delta cache rule ~delta_pos:0);
  ignore (Plan.Cache.delta cache rule ~delta_pos:0);
  Alcotest.(check int) "two compilations" 2 (Plan.Cache.compiles cache);
  Alcotest.(check int) "two cached plans" 2 (Plan.Cache.size cache)

let test_run_rejects_wrong_mode () =
  let rule =
    Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "e2" [ v "x"; v "y" ]) ]
  in
  let lookup = Plan.view_of_lookup (fun _ -> Matcher.empty_relation) in
  Alcotest.check_raises "run on delta plan"
    (Invalid_argument "Plan.run: delta plan (use run_staged)") (fun () ->
      ignore (Plan.run (Plan.compile_delta rule ~delta_pos:0) ~lookup));
  Alcotest.check_raises "run_staged on full plan"
    (Invalid_argument "Plan.run_staged: full plan (use run)") (fun () ->
      ignore (Plan.run_staged (Plan.compile rule) ~before:lookup ~after:lookup ~delta:[]))

(* --- unit: patched views ------------------------------------------------------ *)

let test_view_mem_patched () =
  let base = relation_of (schema_of_arity 1) [ [| i 1 |]; [| i 2 |] ] in
  let minus = Tuple.Hashtbl.create 4 and plus = Tuple.Hashtbl.create 4 in
  Tuple.Hashtbl.replace minus [| i 2 |] ();
  Tuple.Hashtbl.replace plus [| i 9 |] ();
  let view = Plan.patched ~base ~minus ~plus in
  Alcotest.(check bool) "kept" true (Plan.view_mem view [| i 1 |]);
  Alcotest.(check bool) "hidden" false (Plan.view_mem view [| i 2 |]);
  Alcotest.(check bool) "added" true (Plan.view_mem view [| i 9 |]);
  Alcotest.(check bool) "absent" false (Plan.view_mem view [| i 5 |])

let test_patched_view_equals_materialized () =
  (* A join against a Patched view must equal the same join against the
     materialized old relation. *)
  let rule =
    Ast.rule
      (atom "p" [ v "x"; v "z" ])
      [ Ast.Pos (atom "e2" [ v "x"; v "y" ]); Ast.Pos (atom "f2" [ v "y"; v "z" ]) ]
  in
  let db =
    make_db
      [
        ("e2", [| i 1; i 2 |], 1);
        ("e2", [| i 2; i 2 |], 1);
        ("f2", [| i 2; i 3 |], 1);
        ("f2", [| i 2; i 4 |], 1);
      ]
  in
  (* Old state of f2: drop (2,3), add (5,6). *)
  let minus = Tuple.Hashtbl.create 4 and plus = Tuple.Hashtbl.create 4 in
  Tuple.Hashtbl.replace minus [| i 2; i 3 |] ();
  Tuple.Hashtbl.replace plus [| i 5; i 6 |] ();
  let patched_lookup pred =
    if pred = "f2" then Plan.patched ~base:(Database.find db "f2") ~minus ~plus
    else Plan.whole (Engine.lookup_in db pred)
  in
  let old_f2 = relation_of (schema_of_arity 2) [ [| i 2; i 4 |]; [| i 5; i 6 |] ] in
  let materialized_lookup pred =
    if pred = "f2" then old_f2 else Engine.lookup_in db pred
  in
  let via_view = Plan.run (Plan.compile rule) ~lookup:patched_lookup in
  let via_copy = Matcher.eval_rule ~lookup:materialized_lookup rule in
  Alcotest.(check bool) "same result" true
    (sorted_counted via_view = sorted_counted via_copy)

(* --- qcheck: planned execution vs legacy matcher ------------------------------ *)

(* Random safe rules over the fixed vocabulary: 1-3 positive literals with
   variables (repetition likely) and constants, an optional negation and an
   optional guard over bound variables, a head over bound variables. *)
let rule_gen =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z"; "w" ] in
  let const = map i (0 -- 3) in
  let term = frequency [ (3, map v var); (1, map c const) ] in
  let pred_gen = oneofl (List.map fst preds) in
  let atom_for pred = map (fun args -> atom pred args) (list_repeat (arity_of pred) term) in
  let pos_atom = pred_gen >>= atom_for in
  let* body_atoms = list_size (1 -- 3) pos_atom in
  let bound =
    List.sort_uniq compare (List.concat_map Ast.atom_vars body_atoms)
  in
  let bound_term =
    match bound with
    | [] -> map c const
    | _ -> frequency [ (3, map v (oneofl bound)); (1, map c const) ]
  in
  let* negated =
    frequency
      [
        (2, return []);
        ( 1,
          let* pred = pred_gen in
          map
            (fun args -> [ Ast.Neg (atom pred args) ])
            (list_repeat (arity_of pred) bound_term) );
      ]
  in
  let* guards =
    frequency
      [
        (2, return []);
        ( 1,
          let* a = bound_term and* b = bound_term in
          oneofl [ [ Ast.Neq (a, b) ]; [ Ast.Lt (a, b) ]; [ Ast.Eq (a, b) ]; [ Ast.Le (a, b) ] ]
        );
      ]
  in
  let* head_args = list_size (1 -- 2) bound_term in
  let* ngap = 0 -- List.length body_atoms in
  let body =
    (* Splice the negation somewhere into the positive body so delta
       positions can land on either polarity. *)
    let positives = List.map (fun a -> Ast.Pos a) body_atoms in
    let before = List.filteri (fun k _ -> k < ngap) positives in
    let after = List.filteri (fun k _ -> k >= ngap) positives in
    before @ negated @ after
  in
  return (Ast.rule ~guards (atom "h" head_args) body)

let db_gen =
  let open QCheck.Gen in
  let tuple_for pred = map Array.of_list (list_repeat (arity_of pred) (map i (0 -- 3))) in
  let entry =
    let* pred = oneofl (List.map fst preds) in
    let* tuple = tuple_for pred in
    let* count = 1 -- 2 in
    return (pred, tuple, count)
  in
  list_size (0 -- 25) entry

let print_scenario (rule, contents, layout) =
  Printf.sprintf "rule: %s\nlayout: %s\ndb: %s" (Ast.rule_to_string rule)
    (layout_to_string layout)
    (String.concat "; "
       (List.map
          (fun (p, t, n) -> Printf.sprintf "%s%s*%d" p (Tuple.to_string t) n)
          contents))

let full_equiv_arb =
  QCheck.make ~print:print_scenario QCheck.Gen.(triple rule_gen db_gen layout_gen)

let check_full_equivalence (rule, contents, layout) =
  let db = make_db ~layout contents in
  let lookup = Engine.lookup_in db in
  let legacy = Matcher.eval_rule ~lookup rule in
  let planned = Plan.run (Plan.compile rule) ~lookup:(Plan.view_of_lookup lookup) in
  let envs_legacy = Matcher.eval_rule_bindings ~lookup rule in
  let envs_planned =
    plan_envs (Plan.compile rule) ~lookup:(Plan.view_of_lookup lookup)
  in
  sorted_counted legacy = sorted_counted planned
  && sorted_envs rule envs_legacy = sorted_envs rule envs_planned

(* Staged: arbitrary before/after databases and an arbitrary signed delta
   (with some wrong-arity tuples both paths must ignore) at every body
   position of the rule. *)
let staged_gen =
  let open QCheck.Gen in
  let* rule = rule_gen in
  let* before_db = db_gen in
  let* after_db = db_gen in
  let npos = List.length rule.Ast.body in
  let* delta_pos = 0 -- (npos - 1) in
  let pred = (Ast.atom_of_literal (List.nth rule.Ast.body delta_pos)).Ast.pred in
  let delta_entry =
    let* arity = frequency [ (6, return (arity_of pred)); (1, 0 -- 3) ] in
    let* tuple = map Array.of_list (list_repeat arity (map i (0 -- 3))) in
    let* sign = oneofl [ 1; -1; 2; -2 ] in
    return (tuple, sign)
  in
  let* delta = list_size (0 -- 6) delta_entry in
  let* layouts = pair layout_gen layout_gen in
  return (rule, before_db, after_db, delta_pos, delta, layouts)

let staged_arb =
  QCheck.make
    ~print:(fun (rule, bdb, adb, pos, delta, (bl, al)) ->
      Printf.sprintf "%s\npos=%d delta=%s\nbefore=%d entries (%s) after=%d entries (%s)"
        (Ast.rule_to_string rule) pos
        (String.concat ";"
           (List.map (fun (t, s) -> Printf.sprintf "%s%+d" (Tuple.to_string t) s) delta))
        (List.length bdb) (layout_to_string bl) (List.length adb) (layout_to_string al))
    staged_gen

let check_staged_equivalence
    (rule, before_contents, after_contents, delta_pos, delta, (before_layout, after_layout)) =
  let before_db = make_db ~layout:before_layout before_contents
  and after_db = make_db ~layout:after_layout after_contents in
  let before = Engine.lookup_in before_db and after = Engine.lookup_in after_db in
  let legacy = Matcher.eval_rule_staged ~before ~after ~delta_pos ~delta rule in
  let plan = Plan.compile_delta rule ~delta_pos in
  let planned =
    Plan.run_staged plan ~before:(Plan.view_of_lookup before)
      ~after:(Plan.view_of_lookup after) ~delta
  in
  let envs_legacy = Matcher.eval_rule_bindings_staged ~before ~after ~delta_pos ~delta rule in
  let envs_planned =
    plan_envs_staged plan ~before:(Plan.view_of_lookup before)
      ~after:(Plan.view_of_lookup after) ~delta
  in
  sorted_counted legacy = sorted_counted planned
  && sorted_counted_envs rule envs_legacy = sorted_counted_envs rule envs_planned

(* --- qcheck: column store vs the reference row bag ------------------------------ *)

(* Random mutation programs applied to a relation and to the row bag:
   contents must stay identical through inserts, counted removals,
   restore_count, delete_all, clear and explicit compactions, and the
   store must self-validate throughout. *)
let ops_gen =
  let open QCheck.Gen in
  let tuple = map (fun (a, b) -> [| i a; i b |]) (pair (0 -- 5) (0 -- 5)) in
  let op =
    let* t = tuple in
    frequency
      [
        (8, map (fun c -> `Insert (t, c)) (1 -- 3));
        (6, map (fun c -> `Remove (t, c)) (1 -- 3));
        (2, map (fun c -> `Restore (t, c)) (0 -- 3));
        (2, return (`Delete_all t));
        (2, return `Compact);
        (1, return `Clear);
      ]
  in
  list_size (0 -- 80) op

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | `Insert (t, c) -> Printf.sprintf "ins %s*%d" (Tuple.to_string t) c
         | `Remove (t, c) -> Printf.sprintf "rem %s*%d" (Tuple.to_string t) c
         | `Restore (t, c) -> Printf.sprintf "res %s=%d" (Tuple.to_string t) c
         | `Delete_all t -> Printf.sprintf "del %s" (Tuple.to_string t)
         | `Compact -> "compact"
         | `Clear -> "clear")
       ops)

let ops_arb = QCheck.make ~print:print_ops ops_gen

let check_ops_equivalence ops =
  let schema = schema_of_arity 2 in
  let bag = Row_bag.create () in
  let rel = Relation.create ~name:"r" schema in
  let cs = Relation.store rel in
  let agree () =
    Row_bag.equal_relation bag rel
    && Row_bag.total_count bag = Column_store.total_count cs
    && Result.is_ok (Relation.validate rel)
  in
  let apply = function
    | `Insert (t, c) ->
      Row_bag.insert ~count:c bag t;
      Relation.insert ~count:c rel t;
      true
    | `Remove (t, c) -> Row_bag.remove ~count:c bag t = Relation.remove ~count:c rel t
    | `Restore (t, c) ->
      Row_bag.restore_count bag t c;
      Relation.restore_count rel t c;
      true
    | `Delete_all t ->
      Row_bag.delete_all bag t;
      Relation.delete_all rel t;
      true
    | `Compact ->
      Column_store.compact cs;
      true
    | `Clear ->
      Row_bag.clear bag;
      Relation.clear rel;
      true
  in
  List.for_all (fun op -> apply op && agree ()) ops
  && begin
       Column_store.compact cs;
       agree ()
     end
  && begin
       (* Marshal round trip, as in a checkpoint: the decoded store
          audits clean, re-marshals to the same bytes and holds the bag. *)
       let bytes = Marshal.to_string cs [] in
       let cs' : Column_store.t = Marshal.from_string bytes 0 in
       Column_store.audit cs' = Ok ()
       && String.equal bytes (Marshal.to_string cs' [])
       && Column_store.cardinality cs' = Row_bag.cardinality bag
     end

(* --- qcheck: one plan over two physical layouts ------------------------------- *)

(* The same plan over the same facts held two ways: row by row in the delta
   tail, inserted in reverse order (other dictionary ids, other iteration
   order), and in the scenario's layout.  Results must agree tuple for
   tuple and count for count, with no reference matcher in the loop. *)
let plan_outputs rule db =
  let view = Plan.view_of_lookup (Engine.lookup_in db) in
  ( sorted_counted (Plan.run (Plan.compile rule) ~lookup:view),
    sorted_envs rule (plan_envs (Plan.compile rule) ~lookup:view) )

let check_layout_full_equivalence (rule, contents, layout) =
  plan_outputs rule (make_db (List.rev contents)) = plan_outputs rule (make_db ~layout contents)

let check_layout_staged_equivalence
    (rule, before_contents, after_contents, delta_pos, delta, (before_layout, after_layout)) =
  let run ~before_db ~after_db =
    let before = Plan.view_of_lookup (Engine.lookup_in before_db)
    and after = Plan.view_of_lookup (Engine.lookup_in after_db) in
    let plan = Plan.compile_delta rule ~delta_pos in
    ( sorted_counted (Plan.run_staged plan ~before ~after ~delta),
      sorted_counted_envs rule (plan_envs_staged plan ~before ~after ~delta) )
  in
  run ~before_db:(make_db (List.rev before_contents)) ~after_db:(make_db (List.rev after_contents))
  = run
      ~before_db:(make_db ~layout:before_layout before_contents)
      ~after_db:(make_db ~layout:after_layout after_contents)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"planned run equals matcher (random rules/dbs)" ~count:600
      full_equiv_arb check_full_equivalence;
    QCheck.Test.make ~name:"planned staged run equals matcher (random deltas)" ~count:600
      staged_arb check_staged_equivalence;
    QCheck.Test.make ~name:"columnar backend equals row (full plans)" ~count:300
      full_equiv_arb check_layout_full_equivalence;
    QCheck.Test.make ~name:"columnar backend equals row (staged plans)" ~count:300
      staged_arb check_layout_staged_equivalence;
    QCheck.Test.make ~name:"column store equals row bag (random programs)" ~count:300
      ops_arb check_ops_equivalence;
  ]

(* --- dred through compiled delta plans ---------------------------------------- *)

let edge_schema = Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ]

let db_with_edges edges =
  let db = Database.create () in
  let r = Database.create_table db "edge" edge_schema in
  List.iter (fun (a, b) -> Relation.insert r [| i a; i b |]) edges;
  db

let nonrec_program =
  [
    Ast.rule (atom "p" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
    Ast.rule
      (atom "q" [ v "x"; v "z" ])
      [ Ast.Pos (atom "p" [ v "x" ]); Ast.Pos (atom "edge" [ v "x"; v "z" ]) ];
  ]

let tc_program =
  [
    Ast.rule (atom "tc" [ v "x"; v "y" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
    Ast.rule
      (atom "tc" [ v "x"; v "z" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Pos (atom "tc" [ v "y"; v "z" ]) ];
  ]

(* DRed with a shared plan cache vs from-scratch evaluation. *)
let dred_planned_equivalence ~plans ~program ~db ~inserts ~deletes =
  let delta = Dred.Delta.create () in
  List.iter (fun (a, b) -> Dred.Delta.insert delta "edge" [| i a; i b |]) inserts;
  List.iter (fun (a, b) -> Dred.Delta.delete delta "edge" [| i a; i b |]) deletes;
  (match Dred.apply ~plans db program delta with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let fresh = Database.create () in
  let r = Database.create_table fresh "edge" edge_schema in
  Relation.iter (fun t count -> Relation.insert ~count r t) (Database.find db "edge");
  Engine.run_exn fresh program;
  let empty = Relation.create (Schema.make []) in
  List.iter
    (fun pred ->
      let incremental = Option.value (Database.find_opt db pred) ~default:empty in
      let scratch = Option.value (Database.find_opt fresh pred) ~default:empty in
      if not (Relation.equal_contents incremental scratch) then
        Alcotest.failf "predicate %s differs: incremental %d tuples vs scratch %d" pred
          (Relation.cardinality incremental) (Relation.cardinality scratch))
    (Ast.idb_preds program)

let test_dred_planned_insert_delete_rederive () =
  (* One shared cache across full eval + three incremental steps: insert,
     delete with surviving alternative derivations, and a cyclic delete that
     forces the rederivation (recompute-and-diff) path. *)
  let plans = Plan.Cache.create () in
  let db = db_with_edges [ (1, 2); (2, 3); (1, 3) ] in
  (match Engine.run ~plans db nonrec_program with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  dred_planned_equivalence ~plans ~program:nonrec_program ~db ~inserts:[ (3, 4); (4, 1) ]
    ~deletes:[];
  dred_planned_equivalence ~plans ~program:nonrec_program ~db ~inserts:[]
    ~deletes:[ (1, 2) ];
  let compiles_after_two = Plan.Cache.compiles plans in
  dred_planned_equivalence ~plans ~program:nonrec_program ~db ~inserts:[ (5, 1) ]
    ~deletes:[ (2, 3) ];
  (* The third step exercises only rule/position combinations already seen,
     so the shared cache must not compile anything new. *)
  Alcotest.(check int) "cache reused across steps" compiles_after_two
    (Plan.Cache.compiles plans)

let test_dred_planned_recursive_rederive () =
  let plans = Plan.Cache.create () in
  let db = db_with_edges [ (1, 2); (2, 3); (3, 1); (3, 4) ] in
  (match Engine.run ~plans db tc_program with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Deleting a cycle edge: counting alone cannot retract tc tuples with
     cyclic support; the recompute fallback (also running compiled plans)
     must produce the scratch result. *)
  dred_planned_equivalence ~plans ~program:tc_program ~db ~inserts:[] ~deletes:[ (2, 3) ];
  dred_planned_equivalence ~plans ~program:tc_program ~db ~inserts:[ (4, 5); (2, 3) ]
    ~deletes:[ (3, 4) ]

let test_engine_planned_negation_guard () =
  (* Full planned evaluation through Engine.run on a program with negation
     and a guard, vs the same program on a fresh db — regression anchor for
     the sink example from test_datalog. *)
  let program =
    [
      Ast.rule (atom "has_out" [ v "x" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
      Ast.rule
        ~guards:[ Ast.Neq (v "x", v "y") ]
        (atom "sink_for" [ v "y"; v "x" ])
        [ Ast.Pos (atom "edge" [ v "y"; v "x" ]); Ast.Neg (atom "has_out" [ v "x" ]) ];
    ]
  in
  let db = db_with_edges [ (1, 2); (2, 3); (4, 4) ] in
  Engine.run_exn db program;
  let sink = Database.find db "sink_for" in
  Alcotest.(check int) "one sink pair" 1 (Relation.cardinality sink);
  Alcotest.(check bool) "2->3" true (Relation.mem sink [| i 2; i 3 |])

(* --- store layouts end-to-end: dred + grounding bit-identity -------------------- *)

module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Core_engine = Dd_core.Engine
module Semantics = Dd_fgraph.Semantics
module Serialize = Dd_oracle.Serialize

let s = Value.str

let test_dred_planned_compacted_between_steps () =
  (* The full DRed loop — counting deletes, Patched old-views, recursive
     recompute-and-diff — with every table forced into its sorted run
     between steps, so the second step probes compacted runs rather than
     the delta tails the first step left behind. *)
  let plans = Plan.Cache.create () in
  let db = db_with_edges [ (1, 2); (2, 3); (3, 1); (3, 4) ] in
  (match Engine.run ~plans db tc_program with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  dred_planned_equivalence ~plans ~program:tc_program ~db ~inserts:[ (4, 5) ]
    ~deletes:[ (2, 3) ];
  compact_all db;
  dred_planned_equivalence ~plans ~program:tc_program ~db ~inserts:[] ~deletes:[ (3, 1) ]

(* A miniature KBC program (classifier + correlation + supervision), used to
   check that grounding is bit-identical across store layouts. *)
let kbc_item_schema = Schema.make [ ("item", Value.TStr); ("feature", Value.TStr) ]
let kbc_link_schema = Schema.make [ ("a", Value.TStr); ("b", Value.TStr) ]
let kbc_label_schema = Schema.make [ ("item", Value.TStr); ("lbl", Value.TBool) ]
let kbc_query_schema = Schema.make [ ("item", Value.TStr) ]

let kbc_program =
  {
    Program.input_schemas =
      [
        ("item_feature", kbc_item_schema);
        ("link", kbc_link_schema);
        ("label_src", kbc_label_schema);
      ];
    query_relations = [ ("is_pos", kbc_query_schema) ];
    rules =
      [
        Program.Infer
          {
            Program.name = "classify";
            head = atom "is_pos" [ v "x" ];
            body = [ Ast.Pos (atom "item_feature" [ v "x"; v "f" ]) ];
            guards = [];
            weight = Program.Tied [ v "f" ];
            semantics = Semantics.Linear;
            populate_head = true;
          };
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
          };
        Program.Supervise
          ( "labels",
            Ast.rule
              (atom "is_pos_ev" [ v "x"; v "l" ])
              [ Ast.Pos (atom "label_src" [ v "x"; v "l" ]) ] );
      ];
  }

let kbc_facts =
  [
    ("item_feature", [| s "a"; s "f1" |]);
    ("item_feature", [| s "b"; s "f1" |]);
    ("item_feature", [| s "c"; s "f2" |]);
    ("item_feature", [| s "d"; s "f2" |]);
    ("link", [| s "b"; s "a" |]);
    ("link", [| s "c"; s "d" |]);
    ("label_src", [| s "a"; Value.Bool true |]);
    ("label_src", [| s "d"; Value.Bool false |]);
  ]

(* The same facts in two physical layouts: loaded in order into the delta
   tails, or loaded in reverse with every table compacted between the
   halves — different dictionary ids, run contents and iteration order. *)
let kbc_db ~reordered =
  let db = Database.create () in
  ignore (Database.create_table db "item_feature" kbc_item_schema);
  ignore (Database.create_table db "link" kbc_link_schema);
  ignore (Database.create_table db "label_src" kbc_label_schema);
  let insert (table, tuple) = Relation.insert (Database.find db table) tuple in
  if reordered then begin
    let facts = List.rev kbc_facts in
    let half = List.length facts / 2 in
    List.iteri (fun k f -> if k < half then insert f) facts;
    compact_all db;
    List.iteri (fun k f -> if k >= half then insert f) facts
  end
  else List.iter insert kbc_facts;
  db

let kbc_delta () =
  let d = Dred.Delta.create () in
  Dred.Delta.insert d "item_feature" [| s "e"; s "f1" |];
  Dred.Delta.insert d "link" [| s "e"; s "a" |];
  Dred.Delta.delete d "item_feature" [| s "b"; s "f1" |];
  d

let test_grounding_identical_across_layouts () =
  let ground reordered = Grounding.ground (kbc_db ~reordered) kbc_program in
  let a = ground false and b = ground true in
  Alcotest.(check string) "initial graphs bit-identical"
    (Serialize.to_string (Grounding.graph a))
    (Serialize.to_string (Grounding.graph b));
  ignore (Grounding.extend a (Grounding.data_update (kbc_delta ())));
  ignore (Grounding.extend b (Grounding.data_update (kbc_delta ())));
  Alcotest.(check string) "extended graphs bit-identical"
    (Serialize.to_string (Grounding.graph a))
    (Serialize.to_string (Grounding.graph b))

let test_engine_identical_across_layouts () =
  (* Whole pipeline: create (ground + learn + materialize), one incremental
     update, then compare graph bytes and every marginal exactly. *)
  let run reordered =
    let db = kbc_db ~reordered in
    let options =
      {
        Core_engine.default_options with
        Core_engine.materialization_samples = 60;
        inference_chain = 30;
        initial_learning_epochs = 5;
        incremental_learning_epochs = 2;
      }
    in
    let engine = Core_engine.create ~options db kbc_program in
    ignore (Core_engine.apply_update engine (Grounding.data_update (kbc_delta ())));
    (Serialize.to_string (Core_engine.graph engine), Core_engine.marginals_by_relation engine)
  in
  let g_a, m_a = run false in
  let g_b, m_b = run true in
  Alcotest.(check string) "graphs bit-identical" g_a g_b;
  Alcotest.(check bool) "marginals identical" true (m_a = m_b)

let () =
  Alcotest.run "dd_datalog_plan"
    [
      ( "compile",
        [
          Alcotest.test_case "order prefers bound literals" `Quick test_order_prefers_bound;
          Alcotest.test_case "delta plan starts at delta" `Quick test_delta_plan_starts_at_delta;
          Alcotest.test_case "cache reuses plans" `Quick test_cache_reuses_plans;
          Alcotest.test_case "run mode checks" `Quick test_run_rejects_wrong_mode;
        ] );
      ( "views",
        [
          Alcotest.test_case "view_mem patched" `Quick test_view_mem_patched;
          Alcotest.test_case "patched equals materialized" `Quick
            test_patched_view_equals_materialized;
        ] );
      ( "dred",
        [
          Alcotest.test_case "insert/delete/rederive with shared cache" `Quick
            test_dred_planned_insert_delete_rederive;
          Alcotest.test_case "recursive rederive" `Quick test_dred_planned_recursive_rederive;
          Alcotest.test_case "engine negation+guard" `Quick test_engine_planned_negation_guard;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "dred over columnar tables" `Quick
            test_dred_planned_compacted_between_steps;
          Alcotest.test_case "grounding bit-identical" `Quick
            test_grounding_identical_across_layouts;
          Alcotest.test_case "engine graph+marginals identical" `Quick
            test_engine_identical_across_layouts;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
