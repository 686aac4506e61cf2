(* Tests for the transactional supervisor: budget polling, rollback
   bit-identity, the full degradation ladder under every fault point the
   update path exercises, poison-update quarantine and dead-letter
   replay, plus the fault-coverage meta-test. *)

module Budget = Dd_util.Budget
module Fault = Dd_util.Fault
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store
module Serialize = Dd_fgraph.Serialize
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Txn = Dd_core.Txn
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Checkpoint = Dd_kbc.Checkpoint

let tiny_config = { Corpus.default with Corpus.docs = 12; relations = 2; entities = 20; seed = 5 }

let quick_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 80;
    inference_chain = 40;
    initial_learning_epochs = 8;
    incremental_learning_epochs = 2;
  }

(* Engines are deterministic: two calls build bit-identical twins. *)
let make_engine ?(options = quick_options) ?docs () =
  let corpus = Corpus.generate tiny_config in
  let db = Database.create () in
  Corpus.load corpus ?docs db;
  (corpus, Engine.create ~options db (Pipeline.base_program ()))

(* The ladder reduced to a single transactional attempt: any failure
   quarantines immediately, leaving the rolled-back engine in place. *)
let rollback_only =
  {
    Txn.default_options with
    Txn.max_retries = 0;
    allow_rematerialize = false;
    allow_rerun = false;
  }

type snap = {
  s_graph : string;
  s_marginals : (string * Dd_relational.Tuple.t * float) list;
  s_stats : Grounding.stats;
  s_kernel_compiles : int;
}

let snapshot engine =
  {
    s_graph = Serialize.to_string (Engine.graph engine);
    s_marginals = Engine.marginals_by_relation engine;
    s_stats = Grounding.stats (Engine.grounding engine);
    s_kernel_compiles = Engine.kernel_compiles engine;
  }

let check_snap label a b =
  Alcotest.(check string) (label ^ ": serialized graph bytes") a.s_graph b.s_graph;
  Alcotest.(check bool) (label ^ ": marginals bit-identical") true (a.s_marginals = b.s_marginals);
  Alcotest.(check bool) (label ^ ": grounding stats") true (a.s_stats = b.s_stats);
  Alcotest.(check int) (label ^ ": kernel compiles") a.s_kernel_compiles b.s_kernel_compiles

(* Fault points proven exercised by some txn test in this binary; the
   meta-test checks this set (plus the recovery-suite allowlist) covers
   every registered point. *)
let covered : (string, unit) Hashtbl.t = Hashtbl.create 32

let note_covered () =
  List.iter
    (fun name -> if Fault.hits name > 0 then Hashtbl.replace covered name ())
    (Fault.registered ())

let apply_ok txn update =
  match Txn.apply txn update with
  | Ok outcome -> outcome
  | Error e -> Alcotest.fail ("unexpected quarantine: " ^ Txn.error_message e)

let apply_err txn update =
  match Txn.apply txn update with
  | Ok _ -> Alcotest.fail "expected quarantine, got Ok"
  | Error e -> e

(* --- budget ------------------------------------------------------------------- *)

let test_budget_ticks () =
  let b = Budget.start (Budget.Ticks 2) in
  Budget.check b "a";
  Budget.check b "b";
  (match Budget.check b "c" with
  | () -> Alcotest.fail "third poll should exceed"
  | exception Budget.Exceeded site -> Alcotest.(check string) "site" "c" site);
  Alcotest.(check bool) "is_exceeded" true (Budget.is_exceeded (Budget.Exceeded "c"));
  let u = Budget.start Budget.Unlimited in
  for _ = 1 to 1000 do
    Budget.check u "never"
  done;
  for _ = 1 to 1000 do
    Budget.check Budget.unlimited "never"
  done

let test_budget_spec_strings () =
  Alcotest.(check string) "unlimited" "unlimited" (Budget.spec_to_string Budget.Unlimited);
  Alcotest.(check bool) "ticks mentions count" true
    (String.length (Budget.spec_to_string (Budget.Ticks 7)) > 0)

(* --- commit ------------------------------------------------------------------------ *)

(* A commit ends the transaction's graph journal: later updates outside
   a transaction journal nothing, so the graph of an engine that ran one
   [Txn.apply] marshals to the same bytes as its twin's that applied
   every update directly. *)
let test_commit_ends_graph_journal () =
  Fault.reset ();
  let _, supervised = make_engine () in
  let _, direct = make_engine () in
  let updates = List.map Pipeline.update_of [ Pipeline.A1; Pipeline.FE1; Pipeline.FE2 ] in
  let txn = Txn.create supervised in
  ignore (apply_ok txn (List.hd updates));
  ignore (Engine.apply_update direct (List.hd updates));
  List.iter
    (fun u ->
      ignore (Engine.apply_update supervised u);
      ignore (Engine.apply_update direct u))
    (List.tl updates);
  Alcotest.(check bool) "no graph journal left recording" true
    (Marshal.to_string (Engine.graph supervised) [] = Marshal.to_string (Engine.graph direct) [])

(* --- typed grounding errors --------------------------------------------------- *)

let bad_rules_update () =
  (* Head variable [r2] is not bound by the body: malformed by
     construction, deterministically rejected at grounding time. *)
  let open Dd_datalog.Ast in
  let v n = Var n in
  Grounding.rules_update
    [
      Dd_core.Program.Infer
        {
          Dd_core.Program.name = "bad";
          head = atom "q" [ v "r2"; v "m1"; v "m2" ];
          body = [ Pos (atom "q" [ v "r"; v "m1"; v "m2" ]) ];
          guards = [];
          weight = Dd_core.Program.Fixed 1.0;
          semantics = Dd_fgraph.Semantics.Logical;
          populate_head = true;
        };
    ]

let test_grounding_typed_errors () =
  Fault.reset ();
  let _, engine = make_engine () in
  let grounding = Engine.grounding engine in
  (match Grounding.extend_checked grounding (bad_rules_update ()) with
  | Error (`Malformed_delta _) -> ()
  | Error e -> Alcotest.fail ("wrong class: " ^ Grounding.error_message e)
  | Ok _ -> Alcotest.fail "malformed update accepted")

(* --- classification ------------------------------------------------------------ *)

let test_classify () =
  let is_class c e = Txn.classify e = c in
  Alcotest.(check bool) "budget -> timeout" true
    (match Txn.classify (Budget.Exceeded "gibbs") with `Inference_timeout _ -> true | _ -> false);
  Alcotest.(check bool) "injected -> transient" true
    (match Txn.classify (Fault.Injected "x") with `Transient _ -> true | _ -> false);
  Alcotest.(check bool) "invalid_arg -> malformed" true
    (match Txn.classify (Invalid_argument "x") with `Malformed_delta _ -> true | _ -> false);
  Alcotest.(check bool) "failure -> internal" true
    (match Txn.classify (Failure "x") with `Internal _ -> true | _ -> false);
  Alcotest.(check bool) "grounding error passes through" true
    (is_class (`Malformed_delta "m") (Grounding.Error (`Malformed_delta "m")))

(* --- payload encoding ---------------------------------------------------------- *)

let test_payload_roundtrip () =
  let update = Pipeline.update_of Pipeline.FE1 in
  let payload = Txn.encode_update update in
  (match Txn.decode_update payload with
  | Ok u -> Alcotest.(check int) "rule count survives" (List.length update.Grounding.new_rules)
              (List.length u.Grounding.new_rules)
  | Error m -> Alcotest.fail m);
  (* One flipped byte in the marshalled body must fail the CRC. *)
  let b = Bytes.of_string payload in
  let pos = Bytes.length b - 3 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  (match Txn.decode_update (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt payload decoded");
  (match Txn.decode_update "garbage" with Error _ -> () | Ok _ -> Alcotest.fail "garbage decoded")

(* --- rollback bit-identity ------------------------------------------------------ *)

let test_rollback_bit_identity () =
  Fault.reset ();
  let _, engine = make_engine () in
  let pre = snapshot engine in
  let txn = Txn.create ~options:rollback_only engine in
  Fault.arm "engine.apply_update.post_learning" (Fault.Nth 1);
  (match apply_err txn (Pipeline.update_of Pipeline.FE1) with
  | `Transient _ -> ()
  | e -> Alcotest.fail ("wrong class: " ^ Txn.error_message e));
  note_covered ();
  Fault.reset ();
  Alcotest.(check bool) "no rerun: engine identity kept" true (Txn.engine txn == engine);
  check_snap "rolled back" pre (snapshot engine);
  Alcotest.(check int) "quarantined" 1 (List.length (Txn.dead_letters txn));
  (* Replay on the rolled-back engine is bit-identical to an uninterrupted
     run: rollback restored the PRNG along with the state. *)
  let _, twin = make_engine () in
  let clean = Engine.apply_update twin (Pipeline.update_of Pipeline.FE1) in
  (match Txn.replay txn (List.hd (Txn.dead_letters txn)) with
  | Error e -> Alcotest.fail ("replay failed: " ^ Txn.error_message e)
  | Ok outcome ->
    Alcotest.(check bool) "replay rung is direct" true (outcome.Txn.rung = Txn.Direct);
    Alcotest.(check bool) "replay marginals = uninterrupted run" true
      (clean.Engine.marginals = outcome.Txn.report.Engine.marginals));
  Alcotest.(check int) "dead letter drained" 0 (List.length (Txn.dead_letters txn))

(* --- the ladder under every exercised fault point ------------------------------- *)

let exercised_points () =
  Fault.reset ();
  let _, engine = make_engine () in
  let txn = Txn.create engine in
  Fault.reset ();
  let outcome = apply_ok txn (Pipeline.update_of Pipeline.FE1) in
  let points = List.filter (fun n -> Fault.hits n > 0) (Fault.registered ()) in
  note_covered ();
  Fault.reset ();
  (outcome, points)

let test_ladder_retry_sweep () =
  let baseline, points = exercised_points () in
  Alcotest.(check bool) "update path exercises several points" true (List.length points >= 4);
  Alcotest.(check bool) "clean apply is rung zero" true (baseline.Txn.rung = Txn.Direct);
  List.iter
    (fun point ->
      Fault.reset ();
      let _, engine = make_engine () in
      Fault.reset ();
      Fault.arm point (Fault.Nth 1);
      let txn = Txn.create engine in
      let outcome = apply_ok txn (Pipeline.update_of Pipeline.FE1) in
      note_covered ();
      Alcotest.(check int) (point ^ " fired once") 1 (Fault.fired point);
      Alcotest.(check bool) (point ^ " recovered on first retry") true
        (outcome.Txn.rung = Txn.Retry 1);
      Alcotest.(check int) (point ^ " attempts") 2 outcome.Txn.attempts;
      Alcotest.(check int) (point ^ " one backoff") 1 (List.length outcome.Txn.backoffs_s);
      (* Rollback restored the PRNG and replayed the journal into the
         column stores, so the retried run is bit-identical to the
         uninterrupted one. *)
      Alcotest.(check bool) (point ^ " marginals = uninterrupted run") true
        (baseline.Txn.report.Engine.marginals = outcome.Txn.report.Engine.marginals);
      Fault.reset ())
    points

let test_ladder_retry_sweep_compacted () =
  (* The same sweep with every table of the engine's database compacted
     into its sorted run before the update, so the update's deltas and the
     rollback's journal replay land as tail entries overriding run rows.
     The retried run must still equal the uninterrupted run on the
     uncompacted engine, bit for bit. *)
  let baseline, points = exercised_points () in
  let compacted_engine () =
    let _, engine = make_engine () in
    let db = Grounding.database (Engine.grounding engine) in
    List.iter
      (fun name -> Column_store.compact (Relation.store (Database.find db name)))
      (Database.table_names db);
    engine
  in
  Fault.reset ();
  let clean = apply_ok (Txn.create (compacted_engine ())) (Pipeline.update_of Pipeline.FE1) in
  Alcotest.(check bool) "compacted clean apply = uncompacted run" true
    (baseline.Txn.report.Engine.marginals = clean.Txn.report.Engine.marginals);
  List.iter
    (fun point ->
      Fault.reset ();
      let engine = compacted_engine () in
      Fault.reset ();
      Fault.arm point (Fault.Nth 1);
      let txn = Txn.create engine in
      let outcome = apply_ok txn (Pipeline.update_of Pipeline.FE1) in
      note_covered ();
      Alcotest.(check int) (point ^ " fired once") 1 (Fault.fired point);
      Alcotest.(check bool) (point ^ " recovered on first retry") true
        (outcome.Txn.rung = Txn.Retry 1);
      Alcotest.(check bool) (point ^ " marginals = uncompacted uninterrupted run") true
        (baseline.Txn.report.Engine.marginals = outcome.Txn.report.Engine.marginals);
      Fault.reset ())
    points

let test_ladder_interrupted_rollback () =
  let baseline, _ = exercised_points () in
  List.iter
    (fun rollback_point ->
      Fault.reset ();
      let _, engine = make_engine () in
      Fault.reset ();
      Fault.arm "engine.apply_update.post_ground" (Fault.Nth 1);
      Fault.arm rollback_point (Fault.Nth 1);
      let txn = Txn.create engine in
      let outcome = apply_ok txn (Pipeline.update_of Pipeline.FE1) in
      note_covered ();
      Alcotest.(check int) (rollback_point ^ " fired") 1 (Fault.fired rollback_point);
      Alcotest.(check bool) (rollback_point ^ " recovered via retry") true
        (outcome.Txn.rung = Txn.Retry 1);
      Alcotest.(check bool) (rollback_point ^ " marginals = uninterrupted run") true
        (baseline.Txn.report.Engine.marginals = outcome.Txn.report.Engine.marginals);
      Fault.reset ())
    [ "engine.txn_rollback.begin"; "engine.txn_rollback.mid_restore" ]

let test_persistent_rollback_fault_suppressed () =
  (* A rollback point armed at probability 1.0 would loop forever without
     the suppressed last resort; the supervisor must still restore the
     engine and walk the ladder. *)
  Fault.reset ();
  let _, engine = make_engine () in
  let pre = snapshot engine in
  Fault.reset ();
  Fault.seed 11;
  Fault.arm "engine.apply_update.post_ground" (Fault.Nth 1);
  Fault.arm "engine.txn_rollback.begin" (Fault.Probability 1.0);
  let txn = Txn.create ~options:rollback_only engine in
  (match apply_err txn (Pipeline.update_of Pipeline.FE1) with
  | `Transient _ -> ()
  | e -> Alcotest.fail ("wrong class: " ^ Txn.error_message e));
  note_covered ();
  Fault.reset ();
  check_snap "suppressed rollback restored state" pre (snapshot engine)

let test_ladder_quarantine () =
  (* A poison fault that fires on every attempt drives the whole ladder:
     direct, retries, rematerialize, rerun — then quarantine.  The
     surviving engine is the rerun-built scratch engine, rolled back to
     its freshly-created state. *)
  Fault.reset ();
  let _, engine = make_engine () in
  let _, twin = make_engine () in
  Fault.reset ();
  Fault.seed 42;
  Fault.arm "engine.apply_update.post_ground" (Fault.Probability 1.0);
  let txn = Txn.create engine in
  (match apply_err txn (Pipeline.update_of Pipeline.FE1) with
  | `Transient _ -> ()
  | e -> Alcotest.fail ("wrong class: " ^ Txn.error_message e));
  Alcotest.(check bool) "rerun rung reached" true (Fault.hits "txn.rerun.pre_create" > 0);
  note_covered ();
  Fault.reset ();
  let final = Txn.engine txn in
  Alcotest.(check bool) "rerun replaced the engine" true (final != engine);
  Alcotest.(check bool) "graph validates" true
    (Dd_fgraph.Graph.validate (Engine.graph final) = Ok ());
  Alcotest.(check bool) "database validates" true
    (Database.validate (Grounding.database (Engine.grounding final)) = Ok ());
  (match Txn.dead_letters txn with
  | [ dl ] ->
    (* direct + 2 retries + rematerialize + rerun *)
    Alcotest.(check int) "attempts walked the whole ladder" 5 dl.Txn.attempts;
    (match Txn.decode_dead_letter dl with
    | Ok u -> Alcotest.(check int) "payload replayable" 1 (List.length u.Grounding.new_rules)
    | Error m -> Alcotest.fail m)
  | dls -> Alcotest.fail (Printf.sprintf "expected 1 dead letter, got %d" (List.length dls)));
  (* The scratch-built engine answers like an untouched twin. *)
  let agreement =
    Quality.compare_marginals
      (Engine.marginals_by_relation final)
      (Engine.marginals_by_relation twin)
  in
  Alcotest.(check (float 0.0)) "high-confidence jaccard" 1.0 agreement.Quality.high_conf_jaccard;
  (* Disarmed, the quarantined update replays cleanly on the scratch
     engine. *)
  (match Txn.replay txn (List.hd (Txn.dead_letters txn)) with
  | Ok outcome -> Alcotest.(check bool) "replay direct" true (outcome.Txn.rung = Txn.Direct)
  | Error e -> Alcotest.fail ("replay failed: " ^ Txn.error_message e));
  Alcotest.(check int) "queue drained" 0 (List.length (Txn.dead_letters txn))

let test_malformed_never_retries () =
  Fault.reset ();
  let _, engine = make_engine () in
  let pre = snapshot engine in
  let txn = Txn.create ~options:rollback_only engine in
  (match apply_err txn (bad_rules_update ()) with
  | `Malformed_delta _ -> ()
  | e -> Alcotest.fail ("wrong class: " ^ Txn.error_message e));
  (match Txn.dead_letters txn with
  | [ dl ] -> Alcotest.(check int) "no retry for malformed" 1 dl.Txn.attempts
  | _ -> Alcotest.fail "expected 1 dead letter");
  check_snap "engine untouched" pre (snapshot engine)

let test_budget_timeout_quarantine () =
  (* A zero-tick budget exhausts at the first DRed poll; the timeout is
     not transient, so the ladder skips retry, fails rematerialize and
     rerun the same way, and quarantines — with a validated engine. *)
  Fault.reset ();
  let options = { quick_options with Engine.step_budget = Budget.Ticks 0 } in
  let corpus, engine = make_engine ~options ~docs:10 () in
  let update = Grounding.data_update (Corpus.doc_delta corpus ~from_doc:10 ~until_doc:12) in
  let txn = Txn.create engine in
  (match apply_err txn update with
  | `Inference_timeout _ -> ()
  | e -> Alcotest.fail ("wrong class: " ^ Txn.error_message e));
  note_covered ();
  let final = Txn.engine txn in
  Alcotest.(check bool) "graph validates" true
    (Dd_fgraph.Graph.validate (Engine.graph final) = Ok ());
  Alcotest.(check int) "quarantined" 1 (List.length (Txn.dead_letters txn));
  (* No retry rung for a deterministic timeout: direct + remat + rerun. *)
  (match Txn.dead_letters txn with
  | [ dl ] -> Alcotest.(check int) "attempts" 3 dl.Txn.attempts
  | _ -> Alcotest.fail "expected 1 dead letter")

(* --- dead-letter persistence through the checkpoint store ----------------------- *)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("dd_txn_" ^ name) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (Sys.readdir dir);
  dir

let test_dead_letter_persistence () =
  Fault.reset ();
  let dir = fresh_dir "deadletters" in
  let store = Checkpoint.open_store dir in
  (* A store that never saved letters reads back as empty, not as an error. *)
  (match Checkpoint.load_dead_letters store with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "phantom letters in a fresh store"
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  (* Quarantine two updates with different error classes. *)
  let _, engine = make_engine () in
  let txn = Txn.create ~options:rollback_only engine in
  (match apply_err txn (bad_rules_update ()) with `Malformed_delta _ -> () | _ -> Alcotest.fail "class");
  Fault.arm "engine.apply_update.post_learning" (Fault.Nth 1);
  (match apply_err txn (Pipeline.update_of Pipeline.FE1) with `Transient _ -> () | _ -> Alcotest.fail "class");
  note_covered ();
  Fault.reset ();
  let letters = Txn.dead_letters txn in
  Alcotest.(check int) "two quarantined" 2 (List.length letters);
  Checkpoint.save_dead_letters store letters;
  (* Bit-exact round trip: seq, attempts, error (class and message), payload. *)
  (match Checkpoint.load_dead_letters store with
  | Ok loaded -> Alcotest.(check bool) "letters round-trip exactly" true (loaded = letters)
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  (* Restore into a fresh supervisor: queue back, sequence advanced, the
     transient letter replays cleanly. *)
  let _, engine2 = make_engine () in
  let txn2 = Txn.create engine2 in
  (match Checkpoint.load_dead_letters store with
  | Ok loaded -> Txn.restore_dead_letters txn2 loaded
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  Alcotest.(check int) "queue restored" 2 (List.length (Txn.dead_letters txn2));
  let transient =
    List.find
      (fun dl -> match dl.Txn.error with `Transient _ -> true | _ -> false)
      (Txn.dead_letters txn2)
  in
  (match Txn.replay txn2 transient with
  | Ok outcome -> Alcotest.(check bool) "replay direct" true (outcome.Txn.rung = Txn.Direct)
  | Error e -> Alcotest.fail ("replay failed: " ^ Txn.error_message e));
  Alcotest.(check int) "replayed letter drained" 1 (List.length (Txn.dead_letters txn2));
  (* New quarantines never reuse a restored sequence number. *)
  (match apply_err txn2 (bad_rules_update ()) with `Malformed_delta _ -> () | _ -> Alcotest.fail "class");
  let seqs = List.map (fun dl -> dl.Txn.seq) (Txn.dead_letters txn2) in
  Alcotest.(check bool) "sequence numbers stay distinct" true
    (List.sort_uniq compare seqs = List.sort compare seqs);
  (* Saving [] clears the persisted queue. *)
  Checkpoint.save_dead_letters store [];
  (match Checkpoint.load_dead_letters store with
  | Ok [] -> ()
  | _ -> Alcotest.fail "clear did not empty the store");
  (* A flipped byte anywhere in a payload fails the CRC gate. *)
  Checkpoint.save_dead_letters store letters;
  let path = Filename.concat dir "DEADLETTERS" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  (* last byte of the final payload: [... payload "\n" "end\n"] *)
  let pos = len - 6 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  (match Checkpoint.load_dead_letters store with
  | Error (Checkpoint.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "corrupt DEADLETTERS accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ Checkpoint.error_to_string e))

(* Every byte of DEADLETTERS is under a checksum, the letters' sequence
   numbers, attempt counts and error messages included: flipping the low
   bit of any byte (which turns an attempt count of 2 into 3) must fail
   the load, never return letters with wrong metadata. *)
let test_dead_letter_metadata_checksummed () =
  Fault.reset ();
  let dir = fresh_dir "deadletter_bits" in
  let store = Checkpoint.open_store ~fsync:false dir in
  let payload = Txn.encode_update (Pipeline.update_of Pipeline.A1) in
  let letters =
    [
      { Txn.seq = 1; error = `Transient "disk hiccup"; attempts = 2; payload };
      { Txn.seq = 2; error = `Malformed_delta "unknown table"; attempts = 1; payload };
    ]
  in
  Checkpoint.save_dead_letters store letters;
  let path = Filename.concat dir "DEADLETTERS" in
  let clean = In_channel.with_open_bin path In_channel.input_all in
  let write s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
  String.iteri
    (fun pos c ->
      let b = Bytes.of_string clean in
      Bytes.set b pos (Char.chr (Char.code c lxor 1));
      write (Bytes.to_string b);
      match Checkpoint.load_dead_letters store with
      | Error (Checkpoint.Corrupt _) -> ()
      | Error e ->
        Alcotest.failf "flip at byte %d: wrong error: %s" pos (Checkpoint.error_to_string e)
      | Ok loaded ->
        Alcotest.failf "flip at byte %d loaded (%s)" pos
          (if loaded = letters then "unchanged" else "with wrong metadata"))
    clean;
  write clean;
  Alcotest.(check bool) "clean file still loads" true
    (Checkpoint.load_dead_letters store = Ok letters)

(* --- randomized rollback property ---------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let apply_points =
    [
      "engine.apply_update.post_ground";
      "engine.apply_update.post_learning";
      "engine.apply_update.post_inference";
      "learner.train_cd.epoch";
      "grounding.extend.post_dred";
    ]
  in
  [
    Test.make ~count:6 ~name:"rollback restores engine bit-for-bit"
      (triple (int_range 1 1000) (int_range 0 3) (int_range 0 10))
      (fun (corpus_seed, update_idx, point_idx) ->
        Fault.reset ();
        let config = { tiny_config with Corpus.seed = corpus_seed; docs = 10 } in
        let corpus = Corpus.generate config in
        let db = Database.create () in
        Corpus.load corpus ~docs:8 db;
        let engine = Engine.create ~options:quick_options db (Pipeline.base_program ()) in
        let update =
          match update_idx with
          | 0 -> Pipeline.update_of Pipeline.FE1
          | 1 -> Pipeline.update_of Pipeline.FE2
          | 2 -> Pipeline.update_of Pipeline.S1
          | _ -> Grounding.data_update (Corpus.doc_delta corpus ~from_doc:8 ~until_doc:10)
        in
        let point = List.nth apply_points (point_idx mod List.length apply_points) in
        let pre = snapshot engine in
        Fault.reset ();
        Fault.arm point (Fault.Nth 1);
        let txn = Txn.create ~options:rollback_only engine in
        let r = Txn.apply txn update in
        let fired = Fault.fired point in
        Fault.reset ();
        match r with
        | Ok _ ->
          (* The armed point was not on this update's path. *)
          fired = 0
        | Error _ -> fired = 1 && snapshot engine = pre);
  ]

(* --- fault-point coverage meta-test --------------------------------------------- *)

(* Durability points owned by the checkpoint/recovery/soak suites
   (test_recovery, test_core, test_soak); everything else registered in
   this binary must have been exercised by a txn test above.  The io.*
   points are the Fault_file layer — registered at module init, swept by
   the recovery suite and the soak harness. *)
let recovery_allowlist = Dd_kbc.Checkpoint.fault_points @ Dd_util.Fault_file.all_points

let test_fault_coverage () =
  let registered = Fault.registered () in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 points registered (got %d)" (List.length registered))
    true
    (List.length registered >= 10);
  let uncovered =
    List.filter
      (fun name -> not (Hashtbl.mem covered name || List.mem name recovery_allowlist))
      registered
  in
  Alcotest.(check (list string)) "every registered fault point is exercised" [] uncovered

let () =
  Alcotest.run "dd_txn"
    [
      ( "budget",
        [
          Alcotest.test_case "ticks" `Quick test_budget_ticks;
          Alcotest.test_case "spec strings" `Quick test_budget_spec_strings;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "grounding typed errors" `Quick test_grounding_typed_errors;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "payload roundtrip" `Quick test_payload_roundtrip;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "bit-identity + replay" `Quick test_rollback_bit_identity;
          Alcotest.test_case "persistent rollback fault" `Quick
            test_persistent_rollback_fault_suppressed;
          Alcotest.test_case "commit ends the graph journal" `Quick
            test_commit_ends_graph_journal;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "retry sweep over fault points" `Slow test_ladder_retry_sweep;
          Alcotest.test_case "retry sweep, columnar backend" `Slow
            test_ladder_retry_sweep_compacted;
          Alcotest.test_case "interrupted rollback" `Quick test_ladder_interrupted_rollback;
          Alcotest.test_case "quarantine after full ladder" `Quick test_ladder_quarantine;
          Alcotest.test_case "malformed never retries" `Quick test_malformed_never_retries;
          Alcotest.test_case "budget timeout quarantine" `Quick test_budget_timeout_quarantine;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "dead letters survive the store" `Quick test_dead_letter_persistence;
          Alcotest.test_case "dead letter metadata is checksummed" `Quick
            test_dead_letter_metadata_checksummed;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "meta",
        [ Alcotest.test_case "fault-point coverage" `Quick test_fault_coverage ] );
    ]
