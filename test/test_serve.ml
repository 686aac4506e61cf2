(* Tests for the serving layer: snapshot query/index consistency,
   calibrated probabilities, commit- and quarantine-driven publication,
   the degraded-mode health surface, and the concurrent driver — readers
   on their own domains must observe monotone, never-torn epochs while
   the writer walks the degradation ladder under every exercised fault
   point. *)

module Fault = Dd_util.Fault
module Database = Dd_relational.Database
module Tuple = Dd_relational.Tuple
module Value = Dd_relational.Value
module Engine = Dd_core.Engine
module Txn = Dd_core.Txn
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Calibration = Dd_kbc.Calibration
module Snapshot = Dd_serve.Snapshot
module Server = Dd_serve.Server
module Oracle = Dd_oracle.Snapshot_full
module Systems = Dd_kbc.Systems
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Schema = Dd_relational.Schema
module Ast = Dd_datalog.Ast
module Dred = Dd_datalog.Dred
module Semantics = Dd_fgraph.Semantics
module Source = Dd_ingest.Source
module Batcher = Dd_ingest.Batcher
module Feed = Dd_ingest.Feed

let tiny_config = { Corpus.default with Corpus.docs = 12; relations = 2; entities = 20; seed = 5 }

let quick_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 80;
    inference_chain = 40;
    initial_learning_epochs = 8;
    incremental_learning_epochs = 2;
  }

let make_engine ?(config = tiny_config) () =
  let corpus = Corpus.generate config in
  let db = Database.create () in
  Corpus.load corpus db;
  (corpus, Engine.create ~options:quick_options db (Pipeline.base_program ()))

let bits = Int64.bits_of_float

let identical a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

(* --- snapshot queries --------------------------------------------------- *)

let test_snapshot_queries () =
  Fault.reset ();
  let _, engine = make_engine () in
  let snap = Snapshot.build ~epoch:1 ~txn_seq:0 engine in
  (match Snapshot.verify snap with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("fresh snapshot fails audit: " ^ m));
  let reference = Engine.marginals_by_relation engine in
  Alcotest.(check int) "one fact per query tuple" (List.length reference)
    (Snapshot.num_facts snap);
  (* Every engine marginal is served, bit-exact, through the point index. *)
  List.iter
    (fun (relation, tuple, p) ->
      match Snapshot.lookup snap ~relation tuple with
      | Some f -> Alcotest.(check bool) "lookup serves the marginal" true (bits f.Snapshot.probability = bits p)
      | None -> Alcotest.fail ("missing fact " ^ Tuple.to_string tuple))
    reference;
  Alcotest.(check bool) "marginals copy is bit-identical" true
    (identical (Snapshot.marginals snap) (Engine.marginals engine));
  (* Threshold scans agree with a naive filter over the reference list. *)
  List.iter
    (fun thr ->
      let expected = List.length (List.filter (fun (_, _, p) -> p >= thr) reference) in
      Alcotest.(check int)
        (Printf.sprintf "count_above %.2f" thr)
        expected (Snapshot.count_above snap thr);
      let above = Snapshot.top_k snap (Snapshot.count_above snap thr) in
      Alcotest.(check int) "above materializes the same set" expected (List.length above);
      List.iter
        (fun f -> Alcotest.(check bool) "above respects threshold" true (f.Snapshot.probability >= thr))
        above)
    [ 0.0; 0.25; 0.5; 0.9; 1.1 ];
  (* Top-k is the sorted prefix: descending, and never beaten by an
     excluded fact. *)
  let k = min 5 (Snapshot.num_facts snap) in
  let top = Snapshot.top_k snap k in
  Alcotest.(check int) "top_k length" k (List.length top);
  let rec descending = function
    | a :: (b :: _ as rest) ->
      a.Snapshot.probability >= b.Snapshot.probability && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "top_k descending" true (descending top);
  (* ... and is the prefix of the full served enumeration. *)
  let all = Snapshot.top_k snap max_int in
  Alcotest.(check bool) "top_k is a prefix of the full ranking" true
    (List.for_all2
       (fun a b -> a.Snapshot.relation = b.Snapshot.relation && Tuple.compare a.Snapshot.tuple b.Snapshot.tuple = 0)
       top
       (List.filteri (fun i _ -> i < k) all));
  (* Per-relation pools partition the global one. *)
  let per_relation =
    List.fold_left
      (fun acc r -> acc + Array.length (Snapshot.relation_facts snap r))
      0 (Snapshot.relations snap)
  in
  Alcotest.(check int) "relations partition the facts" (Snapshot.num_facts snap) per_relation;
  (* The inverted index finds each fact under each of its string values. *)
  List.iter
    (fun (relation, tuple, _) ->
      Array.iter
        (function
          | Value.Str s ->
            Alcotest.(check bool) ("entity " ^ s ^ " lists the fact") true
              (List.exists
                 (fun f -> f.Snapshot.relation = relation && Tuple.compare f.Snapshot.tuple tuple = 0)
                 (Snapshot.entity_facts snap s))
          | _ -> ())
        tuple)
    reference

let test_snapshot_calibration () =
  Fault.reset ();
  let corpus, engine = make_engine () in
  let snap = Snapshot.build ~truth:corpus.Corpus.truth ~epoch:1 ~txn_seq:0 engine in
  (match Snapshot.verify snap with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("calibrated snapshot fails audit: " ^ m));
  let report =
    match Snapshot.calibration snap with
    | Some r -> r
    | None -> Alcotest.fail "no calibration report despite truth"
  in
  (* The report covers exactly the predictions (evidence facts excluded). *)
  let predictions =
    List.length (List.filter (fun f -> not f.Snapshot.evidence) (Snapshot.top_k snap max_int))
  in
  Alcotest.(check int) "report total = prediction count" predictions report.Calibration.total;
  (* Every fact's calibrated probability is its bucket's empirical
     precision (or the raw marginal in an empty bucket). *)
  List.iter
    (fun f ->
      match Snapshot.calibrated_bucket snap f.Snapshot.probability with
      | None -> Alcotest.fail "no bucket despite calibration"
      | Some b ->
        let expected =
          if b.Calibration.count = 0 then f.Snapshot.probability
          else b.Calibration.empirical_precision
        in
        Alcotest.(check (float 0.0)) "calibrated = bucket precision" expected f.Snapshot.calibrated)
    (Snapshot.top_k snap max_int)

(* --- server publication ------------------------------------------------- *)

let test_server_publishes_on_commit () =
  Fault.reset ();
  let _, engine = make_engine () in
  let txn = Txn.create engine in
  let server = Server.create txn in
  Alcotest.(check int) "initial epoch" 1 (Snapshot.epoch (Server.current server));
  (match Txn.apply txn (Pipeline.update_of Pipeline.FE1) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Txn.error_message e));
  let h = Server.health server in
  Alcotest.(check int) "commit published a new epoch" 2 h.Server.epoch;
  Alcotest.(check int) "snapshot carries the commit seq" 1 h.Server.txn_seq;
  Alcotest.(check int) "served state is current" 0 h.Server.staleness_commits;
  Alcotest.(check int) "one swap" 1 h.Server.swaps;
  Alcotest.(check bool) "not degraded" true (h.Server.degraded = None);
  Alcotest.(check bool) "served marginals = engine marginals" true
    (identical (Snapshot.marginals (Server.current server)) (Engine.marginals (Txn.engine txn)));
  (* Typed queries bump their own counters. *)
  let relation = Pipeline.query_relation in
  ignore (Server.top_k server 3);
  ignore (Server.count_above server ~relation 0.5);
  ignore (Server.count_above server 0.9);
  ignore (Server.entity_facts server "nobody");
  ignore (Server.read server Snapshot.num_facts);
  (match Snapshot.top_k (Server.current server) 1 with
  | [ f ] -> ignore (Server.lookup server ~relation:f.Snapshot.relation f.Snapshot.tuple)
  | _ -> Alcotest.fail "no facts served");
  let c = (Server.health server).Server.counters in
  Alcotest.(check int) "lookup counter" 1 c.Server.lookups;
  Alcotest.(check int) "scan counter" 2 c.Server.scans;
  Alcotest.(check int) "top-k counter" 1 c.Server.top_ks;
  Alcotest.(check int) "entity counter" 1 c.Server.entities;
  Alcotest.(check int) "generic counter" 1 c.Server.generic

let test_server_degradation_surface () =
  (* Observers run in registration order, so a probe registered after the
     server sees the health surface exactly as readers would at each
     ladder event. *)
  Fault.reset ();
  let _, engine = make_engine () in
  let txn = Txn.create engine in
  let server = Server.create txn in
  let seen = ref [] in
  Txn.on_event txn (fun event ->
      let h = Server.health server in
      match event with
      | Txn.Degraded _ -> seen := ("degraded:" ^ Option.value ~default:"?" h.Server.degraded) :: !seen
      | Txn.Committed _ -> seen := "committed" :: !seen
      | Txn.Quarantined _ -> seen := "quarantined" :: !seen);
  Fault.arm "engine.apply_update.post_learning" (Fault.Nth 1);
  (match Txn.apply txn (Pipeline.update_of Pipeline.FE1) with
  | Ok outcome -> Alcotest.(check bool) "recovered via retry" true (outcome.Txn.rung = Txn.Retry 1)
  | Error e -> Alcotest.fail (Txn.error_message e));
  Fault.reset ();
  (match List.rev !seen with
  | [ degraded; "committed" ] ->
    Alcotest.(check bool) "retry rung was visible while degraded" true
      (String.length degraded > String.length "degraded:"
      && degraded <> "degraded:?")
  | events -> Alcotest.fail ("unexpected event trail: " ^ String.concat ", " events));
  Alcotest.(check bool) "degradation cleared after commit" true
    ((Server.health server).Server.degraded = None)

let test_server_quarantine_republishes () =
  (* A poison update walks the whole ladder (replacing the engine at the
     rerun rung) and is quarantined; the server must re-publish from the
     rolled-back engine so served state still matches the live one. *)
  Fault.reset ();
  let _, engine = make_engine () in
  Fault.reset ();
  Fault.seed 42;
  Fault.arm "engine.apply_update.post_ground" (Fault.Probability 1.0);
  let txn = Txn.create engine in
  let server = Server.create txn in
  (match Txn.apply txn (Pipeline.update_of Pipeline.FE1) with
  | Ok _ -> Alcotest.fail "poison update committed"
  | Error _ -> ());
  Fault.reset ();
  let h = Server.health server in
  Alcotest.(check int) "quarantine counted" 1 h.Server.quarantined;
  Alcotest.(check int) "quarantine republished" 2 h.Server.epoch;
  Alcotest.(check bool) "rerun replaced the engine" true (Txn.engine txn != engine);
  Alcotest.(check bool) "served marginals track the replaced engine" true
    (identical (Snapshot.marginals (Server.current server)) (Engine.marginals (Txn.engine txn)))

(* A superseded snapshot is garbage once no reader holds it: the GC, not
   the server, retires old epochs. *)
let test_superseded_snapshot_collected () =
  Fault.reset ();
  let _, engine = make_engine () in
  let txn = Txn.create engine in
  let server = Server.create txn in
  let first = Weak.create 1 in
  let watch () = Weak.set first 0 (Some (Server.current server)) in
  watch ();
  List.iter
    (fun rid ->
      match Txn.apply txn (Pipeline.update_of rid) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Txn.error_message e))
    [ Pipeline.A1; Pipeline.FE1; Pipeline.FE2 ];
  Alcotest.(check int) "three publishes" 4 (Snapshot.epoch (Server.current server));
  Gc.full_major ();
  Alcotest.(check bool) "epoch 1 was collected" true (Weak.get first 0 = None)

(* --- concurrent driver -------------------------------------------------- *)

let check_readers label (report : Driver.report) =
  Array.iteri
    (fun i r ->
      let tag = Printf.sprintf "%s: reader %d" label i in
      Alcotest.(check bool) (tag ^ " read something") true (r.Driver.reads > 0);
      Alcotest.(check bool) (tag ^ " epochs monotone") true r.Driver.monotone;
      Alcotest.(check bool) (tag ^ " audited at least once") true (r.Driver.verifies > 0);
      Alcotest.(check (list string)) (tag ^ " no torn reads") [] r.Driver.verify_failures)
    report.Driver.readers;
  Alcotest.(check bool) (label ^ ": served = engine, bit-identical") true
    report.Driver.final_identical

let test_driver_clean_stream () =
  Fault.reset ();
  let corpus, engine = make_engine () in
  let txn, server, report =
    Driver.run ~readers:3 ~verify_every:16 ~truth:corpus.Corpus.truth engine Pipeline.all_rule_ids
  in
  List.iter
    (fun step ->
      match step.Driver.step_result with
      | Ok _ -> ()
      | Error e ->
        Alcotest.fail
          (Pipeline.rule_id_to_string step.Driver.step_rule ^ " quarantined: "
          ^ Txn.error_message e))
    report.Driver.steps;
  check_readers "clean" report;
  let h = report.Driver.health in
  Alcotest.(check int) "six commits" 6 h.Server.writer_commits;
  Alcotest.(check int) "epoch = initial + commits" 7 h.Server.epoch;
  Alcotest.(check int) "nothing stale after drain" 0 h.Server.staleness_commits;
  Alcotest.(check bool) "no quarantine" true (h.Server.quarantined = 0);
  Alcotest.(check bool) "swap latency recorded" true (h.Server.max_swap_ms > 0.0);
  Alcotest.(check bool) "served calibration present" true
    (Snapshot.calibration (Server.current server) <> None);
  Alcotest.(check int) "no dead letters" 0 (List.length (Txn.dead_letters txn))

(* The update path's exercised fault points, discovered by a clean apply
   (same approach as the txn ladder sweep). *)
let exercised_points () =
  Fault.reset ();
  let _, engine = make_engine () in
  let txn = Txn.create engine in
  Fault.reset ();
  (match Txn.apply txn (Pipeline.update_of Pipeline.FE1) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Txn.error_message e));
  let points = List.filter (fun n -> Fault.hits n > 0) (Fault.registered ()) in
  Fault.reset ();
  points

let test_driver_fault_sweep () =
  let points = exercised_points () in
  Alcotest.(check bool) "several points to sweep" true (List.length points >= 4);
  List.iter
    (fun point ->
      Fault.reset ();
      let _, engine = make_engine () in
      Fault.reset ();
      Fault.arm point (Fault.Nth 1);
      let _, _, report = Driver.run ~readers:2 ~verify_every:8 engine [ Pipeline.FE1 ] in
      Alcotest.(check int) (point ^ " fired") 1 (Fault.fired point);
      Fault.reset ();
      (match report.Driver.steps with
      | [ { Driver.step_result = Ok outcome; _ } ] ->
        Alcotest.(check bool) (point ^ " recovered via retry") true
          (outcome.Txn.rung = Txn.Retry 1)
      | _ -> Alcotest.fail (point ^ ": expected one committed step"));
      check_readers point report;
      Alcotest.(check int) (point ^ " one commit, one new epoch") 2
        report.Driver.health.Server.epoch)
    points

let test_driver_quarantine_stream () =
  (* Poison the whole stream: every update fails its first attempt and
     the ladder is capped at rollback-only, so each step quarantines.
     Readers must still never see a torn or non-monotone snapshot, and
     the final served state must track the (rolled back) engine. *)
  Fault.reset ();
  let _, engine = make_engine () in
  Fault.reset ();
  Fault.seed 42;
  Fault.arm "engine.apply_update.post_ground" (Fault.Probability 1.0);
  let options =
    { Txn.max_retries = 0; allow_rematerialize = false; allow_rerun = false }
  in
  let txn, _, report =
    Driver.run ~readers:2 ~verify_every:8 ~txn_options:options engine [ Pipeline.FE1; Pipeline.I1 ]
  in
  Fault.reset ();
  List.iter
    (fun step ->
      match step.Driver.step_result with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "poison step committed")
    report.Driver.steps;
  check_readers "quarantine" report;
  let h = report.Driver.health in
  Alcotest.(check int) "both steps quarantined" 2 h.Server.quarantined;
  Alcotest.(check int) "republished per quarantine" 3 h.Server.epoch;
  Alcotest.(check int) "no commits" 0 h.Server.writer_commits;
  Alcotest.(check int) "two dead letters" 2 (List.length (Txn.dead_letters txn))

(* --- equivalence with the full build ------------------------------------- *)

(* Fields compared bit for bit: floats by their bits, tuples by their
   marshalled bytes. *)
let same_fact (a : Snapshot.fact) (b : Snapshot.fact) =
  String.equal a.Snapshot.relation b.Snapshot.relation
  && String.equal (Marshal.to_string a.Snapshot.tuple []) (Marshal.to_string b.Snapshot.tuple [])
  && bits a.Snapshot.probability = bits b.Snapshot.probability
  && bits a.Snapshot.calibrated = bits b.Snapshot.calibrated
  && a.Snapshot.evidence = b.Snapshot.evidence

let same_facts a b = List.length a = List.length b && List.for_all2 same_fact a b

(* Every query the snapshot answers, against the full build of the same
   engine state; [misses] are keys neither may serve. *)
let check_equivalent ?(misses = []) label snap oracle =
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail (label ^ ": " ^ m)) fmt in
  (match Snapshot.verify snap with Ok () -> () | Error m -> fail "verify: %s" m);
  let all = Oracle.top_k oracle max_int in
  if not (same_facts (Snapshot.top_k snap max_int) all) then fail "facts differ";
  if Snapshot.num_facts snap <> List.length all then fail "num_facts differs";
  let relations = Oracle.relations oracle in
  if Snapshot.relations snap <> relations then fail "relations differ";
  List.iter
    (fun r ->
      if
        not
          (same_facts
             (Array.to_list (Snapshot.relation_facts snap r))
             (Array.to_list (Oracle.relation_facts oracle r)))
      then fail "relation_facts %s differ" r)
    ("no_such_relation" :: relations);
  List.iter
    (fun (f : Snapshot.fact) ->
      match Snapshot.lookup snap ~relation:f.Snapshot.relation f.Snapshot.tuple with
      | Some g when same_fact f g -> ()
      | _ -> fail "lookup %s%s" f.Snapshot.relation (Tuple.to_string f.Snapshot.tuple))
    all;
  List.iter
    (fun (relation, tuple) ->
      if Snapshot.lookup snap ~relation tuple <> None then fail "served %s" (Tuple.to_string tuple);
      if Oracle.lookup oracle ~relation tuple <> None then
        fail "the full build serves %s" (Tuple.to_string tuple))
    misses;
  let values = Hashtbl.create 64 in
  List.iter
    (fun (f : Snapshot.fact) ->
      Array.iter (function Value.Str v -> Hashtbl.replace values v () | _ -> ()) f.Snapshot.tuple)
    all;
  Hashtbl.replace values "no such value" ();
  Hashtbl.iter
    (fun v () ->
      if not (same_facts (Snapshot.entity_facts snap v) (Oracle.entity_facts oracle v)) then
        fail "entity_facts %s differ" v)
    values;
  List.iter
    (fun relation ->
      List.iter
        (fun thr ->
          if Snapshot.count_above snap ?relation thr <> Oracle.count_above oracle ?relation thr then
            fail "count_above %g differs" thr)
        [ 0.0; 0.1; 0.5; 0.75; 0.9; 1.0; 1.1 ];
      List.iter
        (fun k ->
          if not (same_facts (Snapshot.top_k snap ?relation k) (Oracle.top_k oracle ?relation k))
          then fail "top_k %d differs" k)
        [ 0; 1; 5; 50 ])
    (None :: List.map Option.some relations);
  if
    not
      (String.equal
         (Marshal.to_string (Snapshot.calibration snap) [])
         (Marshal.to_string (Oracle.calibration oracle) []))
  then fail "calibration differs";
  if not (identical (Snapshot.marginals snap) (Oracle.marginals oracle)) then fail "marginals differ"

(* After every publish (commit or quarantine), compare the served
   snapshot with a full build of the live engine; hold each snapshot
   and compare it again five publishes later. *)
let watch ?truth ?(misses = fun () -> []) txn server =
  let published = ref 0 and held = Queue.create () in
  Txn.on_event txn (function
    | Txn.Degraded _ -> ()
    | Txn.Committed _ | Txn.Quarantined _ ->
      incr published;
      let snap = Server.current server in
      let oracle = Oracle.build ?truth (Txn.engine txn) in
      let label = Printf.sprintf "epoch %d" (Snapshot.epoch snap) in
      check_equivalent ~misses:(misses ()) label snap oracle;
      Queue.push (label, snap, oracle) held;
      if Queue.length held > 5 then begin
        let label, snap, oracle = Queue.pop held in
        check_equivalent (label ^ ", held across five publishes") snap oracle
      end);
  published

let stream_program () =
  Program.add_rules (Pipeline.base_program ())
    (Pipeline.rules_of Pipeline.FE1 @ Pipeline.rules_of Pipeline.S1 @ Pipeline.rules_of Pipeline.S2)

let test_equivalence_streams () =
  Fault.reset ();
  List.iter
    (fun seed ->
      let config =
        { Source.default with Source.docs = 90; entities = 12; seed; primary_first = 0.3; alias_lag = 0.7 }
      in
      let db = Database.create () in
      Feed.prepare_database db (Source.synthetic config);
      let engine = Engine.create ~options:quick_options db (stream_program ()) in
      let txn = Txn.create engine in
      let server = Server.create txn in
      check_equivalent "initial" (Server.current server) (Oracle.build engine);
      let published = watch txn server in
      let feed = Feed.create txn in
      let summary = Feed.run feed (Source.synthetic config) (Batcher.create ~max_docs:4 ()) in
      Alcotest.(check int) "no quarantine" 0 summary.Feed.run_quarantined;
      Alcotest.(check bool) (Printf.sprintf "seed %d merges late aliases" seed) true
        ((Feed.stats feed).Feed.merges > 0);
      Alcotest.(check bool) "every batch published" true (!published >= 10))
    [ 11; 12; 13 ]

let test_equivalence_presets () =
  Fault.reset ();
  List.iter
    (fun config ->
      let corpus = Corpus.generate config in
      let db = Database.create () in
      Corpus.load corpus db;
      let engine = Engine.create ~options:quick_options db (Pipeline.base_program ()) in
      let txn = Txn.create engine in
      let truth = corpus.Corpus.truth in
      let server = Server.create ~truth txn in
      check_equivalent "initial" (Server.current server) (Oracle.build ~truth engine);
      let published = watch ~truth txn server in
      List.iter
        (fun rid ->
          match Txn.apply txn (Pipeline.update_of rid) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Txn.error_message e))
        Pipeline.all_rule_ids;
      Alcotest.(check int) "six publishes" 6 !published;
      Alcotest.(check bool) "calibrated" true (Snapshot.calibration (Server.current server) <> None))
    Systems.all

(* A miniature program: items with features, one classifier, and a link
   rule that correlates linked items. *)
let item_schema = Schema.make [ ("item", Value.TStr); ("feature", Value.TStr) ]
let link_schema = Schema.make [ ("a", Value.TStr); ("b", Value.TStr) ]
let label_schema = Schema.make [ ("item", Value.TStr); ("lbl", Value.TBool) ]
let str = Value.str

let items_fixture ~links =
  let v name = Ast.Var name and atom = Ast.atom in
  let db = Database.create () in
  ignore (Database.create_table db "item_feature" item_schema);
  ignore (Database.create_table db "link" link_schema);
  ignore (Database.create_table db "label_src" label_schema);
  List.iter
    (fun (item, feature) -> Database.insert_rows db "item_feature" [ [| str item; str feature |] ])
    [ ("a", "f1"); ("b", "f1"); ("c", "f2"); ("d", "f2") ];
  Database.insert_rows db "label_src" [ [| str "a"; Value.Bool true |] ];
  List.iter (fun (x, y) -> Database.insert_rows db "link" [ [| str x; str y |] ]) links;
  let infer name head body weight semantics populate_head =
    Program.Infer
      { Program.name; head; body; guards = []; weight; semantics; populate_head }
  in
  let prog =
    {
      Program.input_schemas =
        [ ("item_feature", item_schema); ("link", link_schema); ("label_src", label_schema) ];
      query_relations = [ ("is_pos", Schema.make [ ("item", Value.TStr) ]) ];
      rules =
        [
          infer "classify" (atom "is_pos" [ v "x" ])
            [ Ast.Pos (atom "item_feature" [ v "x"; v "f" ]) ]
            (Program.Tied [ v "f" ]) Semantics.Linear true;
          Program.Supervise
            ( "labels",
              Ast.rule (atom "is_pos_ev" [ v "x"; v "l" ]) [ Ast.Pos (atom "label_src" [ v "x"; v "l" ]) ]
            );
          infer "linked" (atom "is_pos" [ v "x" ])
            [ Ast.Pos (atom "is_pos" [ v "y" ]); Ast.Pos (atom "link" [ v "x"; v "y" ]) ]
            (Program.Fixed 0.8) Semantics.Logical false;
        ];
    }
  in
  (db, prog)

let new_item item feature =
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "item_feature" [| str item; str feature |];
  Grounding.data_update delta

(* A rolled-back update leaves var ids free that the next update takes
   with other tuples.  Through [Txn], a quarantine republishes; the same
   on the engine directly, where a snapshot published inside the
   transaction holds a layout naming the rolled-back variable. *)
let test_equivalence_rollback () =
  Fault.reset ();
  let db, prog = items_fixture ~links:[ ("b", "c"); ("c", "d") ] in
  let engine = Engine.create ~options:quick_options db prog in
  let options = { Txn.max_retries = 0; allow_rematerialize = false; allow_rerun = false } in
  let txn = Txn.create ~options engine in
  let server = Server.create txn in
  let gone = ("is_pos", [| str "e" |]) in
  let published = watch ~misses:(fun () -> [ gone ]) txn server in
  Fault.arm "engine.apply_update.post_ground" (Fault.Nth 1);
  (match Txn.apply txn (new_item "e" "f1") with
  | Ok _ -> Alcotest.fail "poisoned update committed"
  | Error _ -> ());
  Fault.reset ();
  (match Txn.apply txn (new_item "z" "f2") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Txn.error_message e));
  Alcotest.(check int) "quarantine and commit published" 2 !published;
  let engine = Txn.engine txn in
  let z = Grounding.var_of (Engine.grounding engine) "is_pos" [| str "z" |] in
  Alcotest.(check (option int)) "z took the freed id" (Some 4) z;
  (* Directly: publish inside a transaction, roll back, re-create. *)
  let db, prog = items_fixture ~links:[ ("b", "c"); ("c", "d") ] in
  let engine = Engine.create ~options:quick_options db prog in
  let first = Snapshot.build ~epoch:1 ~txn_seq:0 engine in
  let x = Engine.txn_begin engine in
  ignore (Engine.apply_update engine (new_item "e" "f1"));
  let inside = Snapshot.next first ~epoch:2 ~txn_seq:1 engine in
  let inside_oracle = Oracle.build engine in
  check_equivalent "inside the transaction" inside inside_oracle;
  Engine.txn_rollback engine x;
  let rolled = Snapshot.next inside ~epoch:3 ~txn_seq:0 engine in
  check_equivalent ~misses:[ gone ] "rolled back" rolled (Oracle.build engine);
  ignore (Engine.apply_update engine (new_item "z" "f2"));
  let oracle = Oracle.build engine in
  check_equivalent ~misses:[ gone ] "re-created after the in-transaction layout"
    (Snapshot.next inside ~epoch:4 ~txn_seq:1 engine) oracle;
  check_equivalent ~misses:[ gone ] "re-created after the rolled-back layout"
    (Snapshot.next rolled ~epoch:4 ~txn_seq:1 engine) oracle;
  check_equivalent "the in-transaction snapshot still answers" inside inside_oracle

(* The Rerun rung replaces the engine mid-stream: its grounding numbers
   the variables in sorted order, not in arrival order, so the layout
   starts again. *)
let test_equivalence_rerun () =
  Fault.reset ();
  let config = { Source.default with Source.docs = 60; entities = 10; seed = 21 } in
  let db = Database.create () in
  Feed.prepare_database db (Source.synthetic config);
  let engine = Engine.create ~options:quick_options db (stream_program ()) in
  let options = { Txn.max_retries = 0; allow_rematerialize = false; allow_rerun = true } in
  let txn = Txn.create ~options engine in
  let server = Server.create txn in
  let published = watch txn server in
  let feed = Feed.create txn in
  let source = Source.synthetic config and batcher = Batcher.create ~max_docs:4 () in
  let batches = ref 0 and reruns = ref 0 in
  let ingest batch =
    incr batches;
    if !batches = 8 then Fault.arm "engine.apply_update.post_ground" (Fault.Nth 1);
    match (Feed.ingest feed batch).Feed.outcome with
    | Ok outcome -> if outcome.Txn.rung = Txn.Rerun then incr reruns
    | Error e -> Alcotest.fail (Txn.error_message e)
  in
  let rec pump () =
    match Source.next source with
    | Some doc ->
      Option.iter ingest (Batcher.push batcher doc);
      pump ()
    | None -> Option.iter ingest (Batcher.drain batcher)
  in
  pump ();
  Fault.reset ();
  Alcotest.(check int) "one batch took the rerun rung" 1 !reruns;
  Alcotest.(check bool) "engine replaced" true (Txn.engine txn != engine);
  Alcotest.(check int) "every batch published" !batches !published

(* The test_core "deletion regrounds" fixture: deleting the only support
   of a linked grounding makes the engine ground again, and a new item
   there takes the id of one added before ("g" sorts before "z"). *)
let test_equivalence_reground () =
  Fault.reset ();
  let db, prog = items_fixture ~links:[ ("a", "b"); ("b", "c"); ("c", "d") ] in
  let engine = Engine.create ~options:quick_options db prog in
  let txn = Txn.create engine in
  let server = Server.create txn in
  let published = watch txn server in
  (match Txn.apply txn (new_item "z" "f2") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Txn.error_message e));
  let delta = Dred.Delta.create () in
  Dred.Delta.delete delta "link" [| str "a"; str "b" |];
  Dred.Delta.insert delta "item_feature" [| str "g"; str "f1" |];
  (match Txn.apply txn (Grounding.data_update delta) with
  | Ok outcome ->
    Alcotest.(check bool) "regrounded" true
      outcome.Txn.report.Engine.grounding.Grounding.needs_rebuild
  | Error e -> Alcotest.fail (Txn.error_message e));
  (match Txn.apply txn (new_item "h" "f1") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Txn.error_message e));
  Alcotest.(check int) "three publishes" 3 !published

(* --- properties ---------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:6 ~name:"snapshot marginals, top-k and calibration are mutually consistent"
      (pair (int_range 1 1000) (int_range 0 100))
      (fun (seed, thr_pct) ->
        Fault.reset ();
        let config = { tiny_config with Corpus.seed = seed; docs = 10 } in
        let corpus, engine = make_engine ~config () in
        let snap = Snapshot.build ~truth:corpus.Corpus.truth ~epoch:1 ~txn_seq:0 engine in
        let facts = Snapshot.top_k snap max_int in
        let thr = float_of_int thr_pct /. 100.0 in
        (* The full structural audit holds... *)
        Snapshot.verify snap = Ok ()
        (* ...top-k enumerates every fact exactly once, in the served
           order, agreeing with the marginals array... *)
        && List.length facts = Snapshot.num_facts snap
        && List.for_all
             (fun f ->
               match Snapshot.lookup snap ~relation:f.Snapshot.relation f.Snapshot.tuple with
               | Some f' -> bits f'.Snapshot.probability = bits f.Snapshot.probability
               | None -> false)
             facts
        (* ...threshold scans agree with a naive count over top-k... *)
        && Snapshot.count_above snap thr
           = List.length (List.filter (fun f -> f.Snapshot.probability >= thr) facts)
        (* ...and calibration covers exactly the predictions, with each
           fact calibrated to its own bucket's precision. *)
        &&
        match Snapshot.calibration snap with
        | None -> false
        | Some report ->
          report.Calibration.total
          = List.length (List.filter (fun f -> not f.Snapshot.evidence) facts)
          && List.for_all
               (fun f ->
                 match Snapshot.calibrated_bucket snap f.Snapshot.probability with
                 | None -> false
                 | Some b ->
                   bits f.Snapshot.calibrated
                   = bits
                       (if b.Calibration.count = 0 then f.Snapshot.probability
                        else b.Calibration.empirical_precision))
               facts);
  ]

let () =
  Alcotest.run "dd_serve"
    [
      ( "snapshot",
        [
          Alcotest.test_case "queries vs reference marginals" `Quick test_snapshot_queries;
          Alcotest.test_case "calibrated probabilities" `Quick test_snapshot_calibration;
          Alcotest.test_case "equals the full build: streams" `Quick test_equivalence_streams;
          Alcotest.test_case "equals the full build: presets" `Quick test_equivalence_presets;
          Alcotest.test_case "equals the full build: rollback" `Quick test_equivalence_rollback;
          Alcotest.test_case "equals the full build: rerun rung" `Quick test_equivalence_rerun;
          Alcotest.test_case "equals the full build: reground" `Quick test_equivalence_reground;
        ] );
      ( "server",
        [
          Alcotest.test_case "commit publishes" `Quick test_server_publishes_on_commit;
          Alcotest.test_case "degradation surface" `Quick test_server_degradation_surface;
          Alcotest.test_case "quarantine republishes" `Quick test_server_quarantine_republishes;
          Alcotest.test_case "superseded snapshot collected" `Quick
            test_superseded_snapshot_collected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean stream, concurrent readers" `Quick test_driver_clean_stream;
          Alcotest.test_case "fault sweep over exercised points" `Slow test_driver_fault_sweep;
          Alcotest.test_case "quarantined stream" `Quick test_driver_quarantine_stream;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
