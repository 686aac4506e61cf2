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
      let above = Snapshot.above snap thr in
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
  ignore (Server.above server 0.9);
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
      match step.Pipeline.step_result with
      | Ok _ -> ()
      | Error e ->
        Alcotest.fail
          (Pipeline.rule_id_to_string step.Pipeline.step_rule ^ " quarantined: "
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
      | [ { Pipeline.step_result = Ok outcome; _ } ] ->
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
      match step.Pipeline.step_result with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "poison step committed")
    report.Driver.steps;
  check_readers "quarantine" report;
  let h = report.Driver.health in
  Alcotest.(check int) "both steps quarantined" 2 h.Server.quarantined;
  Alcotest.(check int) "republished per quarantine" 3 h.Server.epoch;
  Alcotest.(check int) "no commits" 0 h.Server.writer_commits;
  Alcotest.(check int) "two dead letters" 2 (List.length (Txn.dead_letters txn))

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
        && List.length (Snapshot.above snap thr) = Snapshot.count_above snap thr
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
