(* Tests for checkpoint/recovery: round-trips, corruption detection, WAL
   replay, and the crash–recover–compare property over every fault point
   the Fig-KBC pipeline exercises. *)

module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Serialize = Dd_fgraph.Serialize
module Fault = Dd_util.Fault
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Checkpoint = Dd_kbc.Checkpoint
module Recovery = Dd_kbc.Recovery

let tiny_config = { Corpus.default with Corpus.docs = 12; relations = 2; entities = 20; seed = 5 }

let quick_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 80;
    inference_chain = 40;
    initial_learning_epochs = 8;
    incremental_learning_epochs = 2;
  }

let make_engine () =
  let corpus = Corpus.generate tiny_config in
  let db = Database.create () in
  Corpus.load corpus db;
  Engine.create ~options:quick_options db (Pipeline.base_program ())

let with_store name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("dd_recovery_" ^ name) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (Sys.readdir dir);
  Fault.reset ();
  f dir

let flip_byte_in_file path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let pos = if pos < 0 then len + pos else pos in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let recover_exn store =
  match Checkpoint.recover store with
  | Ok pair -> pair
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)

(* --- checkpoint store --------------------------------------------------------- *)

let test_checkpoint_roundtrip () =
  with_store "roundtrip" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      Alcotest.(check bool) "manifest published" true (Checkpoint.latest store <> None);
      let recovered, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "nothing replayed" 0 applied;
      Alcotest.(check bool) "recovered state validates" true
        (Checkpoint.validate recovered = Ok ());
      Alcotest.(check string) "byte-identical re-serialization"
        (Serialize.to_string (Engine.graph engine))
        (Serialize.to_string (Engine.graph recovered));
      Alcotest.(check bool) "same marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine))

let test_checkpoint_detects_corruption () =
  (* One flipped byte anywhere in the checkpoint must fail the load with a
     checksum error, both in the text graph section and in the binary
     state section. *)
  List.iter
    (fun (label, pos) ->
      with_store "corrupt" (fun dir ->
          let engine = make_engine () in
          let store = Checkpoint.open_store dir in
          Checkpoint.save store engine;
          Checkpoint.abandon store;
          let ckpt =
            match Checkpoint.latest store with
            | Some name -> Filename.concat dir name
            | None -> Alcotest.fail "no checkpoint published"
          in
          flip_byte_in_file ckpt pos;
          match Checkpoint.recover (Checkpoint.open_store dir) with
          | Error (Checkpoint.Corrupt _) -> ()
          | Error e ->
            Alcotest.fail (label ^ ": wrong error: " ^ Checkpoint.error_to_string e)
          | Ok _ -> Alcotest.fail (label ^ ": corruption not detected")))
    [ ("graph section", 40); ("state section", -40) ]

let test_wal_replay () =
  with_store "wal" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.A1));
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.FE1));
      Checkpoint.abandon store;
      let recovered, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "both entries replayed" 2 applied;
      (* Replay retraces the live run bit for bit: the snapshot includes
         the engine PRNG. *)
      Alcotest.(check bool) "bitwise-identical marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine))

let test_torn_wal_tail_discarded () =
  with_store "torn" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.abandon store;
      (* A mid-append crash: entry header present, payload cut short. *)
      let oc =
        open_out_gen [ Open_wronly; Open_append ] 0o644 (Filename.concat dir "wal-0.log")
      in
      output_string oc "entry 2 9999 00000000\npartial payl";
      close_out oc;
      let _, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "torn tail dropped, entry 1 kept" 1 applied)

let test_recover_empty_store () =
  with_store "empty" (fun dir ->
      match Checkpoint.recover (Checkpoint.open_store dir) with
      | Error Checkpoint.No_checkpoint -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Checkpoint.error_to_string e)
      | Ok _ -> Alcotest.fail "recovered from an empty store")

let test_checkpoint_roundtrip_columnar () =
  with_store "columnar" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let db = Database.create () in
      Corpus.load corpus db;
      let engine = Engine.create ~options:quick_options db (Pipeline.base_program ()) in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.FE1));
      Checkpoint.abandon store;
      let recovered, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "one entry replayed" 1 applied;
      Alcotest.(check bool) "recovered state validates" true
        (Checkpoint.validate recovered = Ok ());
      Alcotest.(check bool) "bitwise-identical marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine);
      (* The column stores survive the round trip with dictionaries
         intact: every table re-serializes to the live engine's canonical
         bytes. *)
      let db_live = Grounding.database (Engine.grounding engine) in
      let db_rec = Grounding.database (Engine.grounding recovered) in
      List.iter
        (fun name ->
          let live = Database.find db_live name and back = Database.find db_rec name in
          Alcotest.(check string) (name ^ " canonical bytes")
            (Column_store.to_bytes (Relation.store live))
            (Column_store.to_bytes (Relation.store back)))
        (Database.table_names db_rec);
      (* The canonical byte format is CRC-gated end to end: one flipped bit
         anywhere must be rejected. *)
      let name = List.hd (Database.table_names db_rec) in
      let r = Database.find db_rec name in
      let cs = Relation.store r in
      let b = Bytes.of_string (Column_store.to_bytes cs) in
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      match Column_store.of_bytes (Relation.schema r) (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt column bytes accepted")

let test_fallback_to_previous_version () =
  with_store "fallback" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save store engine;
      Checkpoint.abandon store;
      (* The newest version fails its CRC; recovery must quarantine it,
         fall back to the previous version, and chain-replay the WAL
         forward — landing on the same state. *)
      flip_byte_in_file (Filename.concat dir "ckpt-1.ddckpt") (-40);
      let store = Checkpoint.open_store dir in
      let recovered, applied = recover_exn store in
      Alcotest.(check int) "replayed forward to the same sequence" 1 applied;
      Alcotest.(check bool) "bitwise-identical marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine);
      Alcotest.(check bool) "damaged version preserved as evidence" true
        (List.exists
           (fun n -> n = "ckpt-1.ddckpt.quarantined")
           (Checkpoint.quarantined_files store));
      (* The fallback never resurrects the torn version on later loads:
         recovery republished, so the store is clean again. *)
      match Checkpoint.verify_version store 1 with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("republished version invalid: " ^ Checkpoint.error_to_string e))

(* --- crash–recover–compare ---------------------------------------------------- *)

let test_crash_recovery_sweep () =
  with_store "sweep" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let base, outcomes = Recovery.sweep ~options:quick_options ~dir corpus in
      Alcotest.(check bool) "pipeline exercises several points" true
        (List.length base.Recovery.exercised >= 6);
      Alcotest.(check int) "one outcome per exercised point"
        (List.length base.Recovery.exercised)
        (List.length outcomes);
      List.iter
        (fun (o : Recovery.outcome) ->
          (* Every armed point must actually fire: either it killed the
             run (crashed) or it damaged bytes silently and the harness
             forced a power cut (latent). *)
          Alcotest.(check bool)
            (o.Recovery.point ^ " crashed or fired silently")
            true
            (o.Recovery.crashed || o.Recovery.latent);
          Alcotest.(check (float 0.0))
            (o.Recovery.point ^ " high-conf jaccard")
            1.0 o.Recovery.agreement.Quality.high_conf_jaccard;
          Alcotest.(check (float 0.0))
            (o.Recovery.point ^ " max marginal diff")
            0.0 o.Recovery.agreement.Quality.max_diff)
        outcomes)

let () =
  Alcotest.run "dd_recovery"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "detects corruption" `Quick test_checkpoint_detects_corruption;
          Alcotest.test_case "wal replay" `Quick test_wal_replay;
          Alcotest.test_case "torn wal tail" `Quick test_torn_wal_tail_discarded;
          Alcotest.test_case "empty store" `Quick test_recover_empty_store;
          Alcotest.test_case "columnar roundtrip" `Quick test_checkpoint_roundtrip_columnar;
          Alcotest.test_case "fallback to previous version" `Quick
            test_fallback_to_previous_version;
        ] );
      ( "crash-recover-compare",
        [ Alcotest.test_case "sweep all fault points" `Slow test_crash_recovery_sweep ] );
    ]
