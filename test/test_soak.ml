(* Tests for the durability-hardening stack: the scrub repair ladder end
   to end (corrupted columnar table healed in place, content damage
   reported for regrounding, corrupted checkpoint version quarantined
   and re-published), the crash-consistency soak harness over both the
   bare kbc loop and the full ingest→txn→serve loop, and the health
   surface's scrub counters. *)

module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Txn = Dd_core.Txn
module Fault = Dd_util.Fault
module Fault_file = Dd_util.Fault_file
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Checkpoint = Dd_kbc.Checkpoint
module Scrub = Dd_kbc.Scrub
module Soak = Dd_oracle.Soak
module Source = Dd_ingest.Source
module Soak_driver = Dd_oracle.Soak_driver
module Server = Dd_serve.Server
module Snapshot = Dd_serve.Snapshot

let tiny_config = { Corpus.default with Corpus.docs = 12; relations = 2; entities = 20; seed = 5 }

let quick_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 80;
    inference_chain = 40;
    initial_learning_epochs = 8;
    incremental_learning_epochs = 2;
  }

let with_dir name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("dd_soak_" ^ name) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (Sys.readdir dir);
  Fault.reset ();
  Fault_file.reset ();
  Fun.protect ~finally:(fun () ->
      Fault.reset ();
      Fault_file.reset ())
    (fun () -> f dir)

let make_engine ?(options = quick_options) () =
  let corpus = Corpus.generate tiny_config in
  let db = Database.create () in
  Corpus.load corpus db;
  Engine.create ~options db (Pipeline.base_program ())

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

let some_table engine =
  let db = Grounding.database (Engine.grounding engine) in
  let name = List.hd (Database.table_names db) in
  (name, Relation.store (Database.find db name))

(* --- scrub ------------------------------------------------------------------ *)

let test_scrub_clean () =
  with_dir "scrub_clean" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let pipeline = Soak.kbc_pipeline ~options:quick_options ~dir corpus in
      pipeline.Soak.reset ();
      for i = 0 to pipeline.Soak.steps - 1 do
        pipeline.Soak.apply i
      done;
      pipeline.Soak.save ();
      let r = pipeline.Soak.scrub () in
      Alcotest.(check int) "nothing damaged" 0 (Scrub.damage_found r);
      Alcotest.(check bool) "healthy" true (Scrub.healthy r);
      Alcotest.(check bool) "versions verified" true (r.Scrub.versions_ok >= 1))

let test_scrub_repairs_table () =
  with_dir "scrub_table" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      let name, cs = some_table engine in
      Column_store.unsafe_corrupt_filter cs;
      Alcotest.(check bool) (name ^ " audit fails after damage") true
        (Result.is_error (Column_store.audit cs));
      let r = Scrub.run ~engine store in
      Alcotest.(check int) "one table repaired in place" 1 r.Scrub.tables_repaired;
      Alcotest.(check (list string)) "nothing unrepaired" [] r.Scrub.unrepaired;
      Alcotest.(check bool) "audit passes after scrub" true
        (Column_store.audit cs = Ok ());
      (* No WAL replay redoes an in-place repair. *)
      Checkpoint.save store engine;
      Alcotest.(check bool) "the next save is a base" true
        (Checkpoint.last_save store = Some Checkpoint.Base))

(* Content-plane damage is beyond an in-place repair, which recomputes
   derived planes only: scrub reports the table for regrounding. *)
let test_scrub_content_damage_unrepaired () =
  with_dir "scrub_content" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      (* A non-empty table, compacted so the sorted run carries the
         content the damage will hit. *)
      let db = Grounding.database (Engine.grounding engine) in
      let name =
        List.find
          (fun n -> Relation.cardinality (Database.find db n) > 0)
          (Database.table_names db)
      in
      let cs = Relation.store (Database.find db name) in
      Column_store.compact cs;
      Column_store.unsafe_corrupt_run cs;
      let latest = Checkpoint.latest store in
      let r = Scrub.run ~engine store in
      Alcotest.(check (list string)) "reported for regrounding" [ name ] r.Scrub.unrepaired;
      Alcotest.(check bool) "scrub reports unhealthy" false (Scrub.healthy r);
      (* The damage must not become durable: the next save appends to the
         undamaged base, and recovering the store yields sound tables. *)
      Checkpoint.save store engine;
      Alcotest.(check bool) "the next save appends" true
        (Checkpoint.last_save store = Some (Checkpoint.Append 0));
      Alcotest.(check (option string)) "no new base" latest (Checkpoint.latest store);
      match Checkpoint.recover (Checkpoint.open_store dir) with
      | Error e -> Alcotest.fail ("recovery failed: " ^ Checkpoint.error_to_string e)
      | Ok (recovered, _) ->
        let db = Grounding.database (Engine.grounding recovered) in
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " audits clean after recovery") true
              (Column_store.audit (Relation.store (Database.find db n)) = Ok ()))
          (Database.table_names db))

let test_scrub_quarantines_corrupt_version () =
  with_dir "scrub_version" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      let ckpt = Filename.concat dir (Option.get (Checkpoint.latest store)) in
      flip_byte_in_file ckpt (-40);
      let r = Scrub.run ~engine store in
      Alcotest.(check int) "damaged version quarantined" 1 r.Scrub.versions_quarantined;
      Alcotest.(check bool) "fresh checkpoint republished" true r.Scrub.republished;
      Alcotest.(check bool) "healthy after repair" true (Scrub.healthy r);
      Alcotest.(check bool) "evidence kept" true (Checkpoint.quarantined_files store <> []);
      (* The store must remain fully recoverable, bit for bit. *)
      match Checkpoint.recover (Checkpoint.open_store dir) with
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      | Ok (recovered, _) ->
        Alcotest.(check bool) "recovered marginals identical" true
          (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine))

(* Quarantining an older version leaves the current base and its WAL in
   place, so only a forced base restores the retention window. *)
let test_scrub_republishes_a_base () =
  with_dir "scrub_republish" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save store engine;
      ignore (Engine.rematerialize engine);
      Checkpoint.save store engine;
      flip_byte_in_file (Filename.concat dir "ckpt-0.ddckpt") (-40);
      let r = Scrub.run ~engine store in
      Alcotest.(check int) "older version quarantined" 1 r.Scrub.versions_quarantined;
      Alcotest.(check bool) "republished" true r.Scrub.republished;
      Alcotest.(check bool) "as a base" true (Checkpoint.last_save store = Some Checkpoint.Base))

let test_scrub_blob_ladder () =
  with_dir "scrub_blob" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      Checkpoint.save_blob store ~name:"canon" "precious subsystem state";
      flip_byte_in_file (Filename.concat dir "BLOB_canon") (-3);
      (* With a live re-encoder the blob is rewritten... *)
      let r =
        Scrub.run ~reblob:(fun _ -> Some "precious subsystem state") store
      in
      Alcotest.(check int) "blob rewritten" 1 r.Scrub.blobs_rewritten;
      Alcotest.(check bool) "blob readable again" true
        (Checkpoint.load_blob store ~name:"canon" = Ok (Some "precious subsystem state"));
      (* ...without one it is quarantined. *)
      flip_byte_in_file (Filename.concat dir "BLOB_canon") (-3);
      let r = Scrub.run store in
      Alcotest.(check int) "blob quarantined" 1 r.Scrub.blobs_quarantined;
      Alcotest.(check bool) "quarantined blob no longer listed" true
        (Checkpoint.blob_names store = []))

let test_scrub_cadence () =
  let c = Scrub.cadence 3 in
  let fires = List.init 9 (fun _ -> Scrub.due c) in
  Alcotest.(check (list bool)) "every third tick"
    [ false; false; true; false; false; true; false; false; true ]
    fires

(* --- soak harness ------------------------------------------------------------ *)

let test_schedule_generation_deterministic () =
  let points = List.mapi (fun i p -> (p, i + 1)) Fault_file.all_points in
  let a = Soak.generate ~points ~seed:7 3 in
  let b = Soak.generate ~points ~seed:7 3 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = Soak.generate ~points ~seed:8 3 in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  List.iter
    (fun (arm : Soak.arm) ->
      match List.assoc_opt arm.Soak.point points with
      | None -> Alcotest.fail "point not from the pool"
      | Some window ->
        Alcotest.(check bool) "trigger in its point's window" true
          (arm.Soak.trigger >= 1 && arm.Soak.trigger <= window))
    (a.Soak.arms @ c.Soak.arms)

let test_shrink_minimizes () =
  (* Synthetic failure predicate: a schedule fails iff it arms the "bad"
     point with trigger >= 4.  The minimal reproduction is a single bad
     arm with the smallest trigger still >= 4. *)
  let run (s : Soak.schedule) =
    let failing = List.exists (fun (a : Soak.arm) -> a.Soak.point = "bad" && a.Soak.trigger >= 4) s.Soak.arms in
    {
      Soak.schedule = s;
      crashes = 0;
      repairs = 0;
      fired = [];
      failure = (if failing then Some "boom" else None);
    }
  in
  let big =
    {
      Soak.sid = 1;
      arms =
        [
          { Soak.point = "benign"; trigger = 17 };
          { Soak.point = "bad"; trigger = 23 };
          { Soak.point = "benign"; trigger = 9 };
        ];
    }
  in
  let small = Soak.shrink ~run big in
  Alcotest.(check int) "one arm left" 1 (List.length small.Soak.arms);
  let arm = List.hd small.Soak.arms in
  Alcotest.(check string) "the culprit" "bad" arm.Soak.point;
  Alcotest.(check bool) "trigger minimized but still failing" true
    (arm.Soak.trigger >= 4 && arm.Soak.trigger <= 5)

(* The scrub after a recovery may write (a republished base, a rewritten
   blob), so an injection there is one more machine death, not a failed
   schedule.  A toy pipeline dies once at step 1 of the armed run; its
   scrub hits the armed point often enough to fire on its first call. *)
let test_death_in_recovery_scrub () =
  let point = "soak.test.scrub" in
  let resets = ref 0 and died = ref false in
  let mem = ref 0 and durable = ref 0 in
  let pipeline =
    {
      Soak.steps = 3;
      reset =
        (fun () ->
          incr resets;
          mem := 0;
          durable := 0);
      apply =
        (fun i ->
          if !resets > 1 && i = 1 && not !died then begin
            died := true;
            raise (Fault.Injected "soak.test.apply")
          end;
          mem := i + 1;
          durable := !mem);
      save = (fun () -> durable := !mem);
      recover =
        (fun () ->
          mem := !durable;
          !durable);
      scrub =
        (fun () ->
          for _ = 1 to 16 do
            Fault.hit point
          done;
          Scrub.clean);
      fingerprint = (fun () -> string_of_int !mem);
    }
  in
  let summary = Soak.soak ~points:[ point ] ~schedules:1 pipeline in
  List.iter
    (fun (o : Soak.outcome) ->
      Alcotest.failf "schedule failed: %s" (Option.value ~default:"?" o.Soak.failure))
    summary.Soak.failures;
  Alcotest.(check int) "the apply death and the scrub death" 2 summary.Soak.total_crashes

let test_soak_kbc () =
  with_dir "soak_kbc" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let pipeline = Soak.kbc_pipeline ~options:quick_options ~dir corpus in
      let summary = Soak.soak ~seed:11 ~schedules:12 pipeline in
      Alcotest.(check int) "12 schedules ran" 12 summary.Soak.schedules;
      List.iter
        (fun (o : Soak.outcome) ->
          Alcotest.failf "schedule %d failed: %s" o.Soak.schedule.Soak.sid
            (Option.value ~default:"?" o.Soak.failure))
        summary.Soak.failures;
      Alcotest.(check bool) "some schedules actually crashed" true
        (summary.Soak.crashed >= 1))

let test_soak_kbc_engine_points () =
  (* The same property with checkpoint-layer crash points in the pool:
     every recovery path the recovery sweep covers also holds under
     randomized multi-fault schedules. *)
  with_dir "soak_kbc_ckpt" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let pipeline = Soak.kbc_pipeline ~options:quick_options ~dir corpus in
      let points = Fault_file.all_points @ Checkpoint.fault_points in
      let summary = Soak.soak ~seed:23 ~points ~schedules:8 pipeline in
      List.iter
        (fun (o : Soak.outcome) ->
          Alcotest.failf "schedule %d failed: %s" o.Soak.schedule.Soak.sid
            (Option.value ~default:"?" o.Soak.failure))
        summary.Soak.failures)

let test_soak_ingest_serve () =
  with_dir "soak_ingest" (fun dir ->
      let cfg = { Source.default with Source.docs = 10; entities = 6; relations = 2; seed = 5 } in
      let server = ref None in
      let pipeline =
        Soak_driver.pipeline ~options:quick_options
          ~attach:(fun txn -> server := Some (Server.create txn))
          ~verify_snapshot:(fun () ->
            match !server with
            | None -> Error "no server attached"
            | Some srv -> Server.read srv Snapshot.verify)
          ~dir (Source.synthetic cfg)
      in
      let scrubbed = ref 0 in
      let summary =
        Soak.soak ~seed:3 ~schedules:4
          {
            pipeline with
            Soak.scrub =
              (fun () ->
                let r = pipeline.Soak.scrub () in
                (match !server with Some srv -> Server.record_scrub srv r | None -> ());
                incr scrubbed;
                r);
          }
      in
      List.iter
        (fun (o : Soak.outcome) ->
          Alcotest.failf "ingest schedule %d failed: %s" o.Soak.schedule.Soak.sid
            (Option.value ~default:"?" o.Soak.failure))
        summary.Soak.failures;
      Alcotest.(check bool) "scrubs ran" true (!scrubbed >= 1);
      (* The serving health surface saw the scrubs this server survived. *)
      match !server with
      | None -> Alcotest.fail "no server was ever attached"
      | Some srv ->
        let h = Server.health srv in
        Alcotest.(check bool) "snapshot still serves verified state" true
          (Server.read srv Snapshot.verify = Ok ());
        Alcotest.(check bool) "health exposes a scrub verdict" true
          (h.Server.scrubs >= 0 && h.Server.scrub_unrepaired = 0))

(* The ingest loop commits through the supervisor and saves every second
   batch, so a fault-free run reaches the store as one base and WAL
   appends; a crash at any point of the io and checkpoint pool that run
   hits — a torn append included — recovers to the golden fingerprint. *)
let test_sweep_ingest () =
  with_dir "sweep_ingest" (fun dir ->
      (* Four batches: two saves of two batches each, both appends. *)
      let cfg = { Source.default with Source.docs = 24; entities = 6; relations = 2; seed = 5 } in
      let pipeline = Soak_driver.pipeline ~options:quick_options ~dir (Source.synthetic cfg) in
      Alcotest.(check int) "four batches" 4 pipeline.Soak.steps;
      pipeline.Soak.reset ();
      for i = 0 to pipeline.Soak.steps - 1 do
        pipeline.Soak.apply i
      done;
      pipeline.Soak.save ();
      let store = Checkpoint.open_store dir in
      Alcotest.(check (list int)) "one base on disk" [ 0 ] (Checkpoint.versions store);
      (match Checkpoint.recover store with
      | Ok (_, applied) ->
        Alcotest.(check int) "every batch replayed from the WAL" pipeline.Soak.steps applied
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
      let exercised, outcomes = Soak.sweep pipeline in
      List.iter
        (fun point ->
          Alcotest.(check bool) (point ^ " exercised") true (List.mem_assoc point exercised))
        [ "io.wal.append_torn"; "checkpoint.save.mid_append" ];
      List.iter2
        (fun (point, _) (o : Soak.outcome) ->
          if List.mem point (Fault_file.all_points @ Checkpoint.fault_points) then begin
            Alcotest.(check (list string)) (point ^ " fired") [ point ] o.Soak.fired;
            Alcotest.(check (option string)) (point ^ " golden fingerprint") None o.Soak.failure
          end)
        exercised outcomes)

let test_record_scrub_counters () =
  with_dir "record_scrub" (fun dir ->
      let engine = make_engine () in
      let txn = Txn.create engine in
      let srv = Server.create txn in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      Server.record_scrub srv (Scrub.run ~engine store);
      let ckpt = Filename.concat dir (Option.get (Checkpoint.latest store)) in
      flip_byte_in_file ckpt (-40);
      Server.record_scrub srv (Scrub.run ~engine store);
      let h = Server.health srv in
      Alcotest.(check int) "two passes recorded" 2 h.Server.scrubs;
      Alcotest.(check int) "quarantine counted" 1 h.Server.scrub_quarantined;
      Alcotest.(check int) "nothing unrepaired" 0 h.Server.scrub_unrepaired;
      Alcotest.(check bool) "last verdict healthy" true
        (h.Server.last_scrub_healthy = Some true))

(* --- io fault-point coverage --------------------------------------------------- *)

let write_side_points =
  [
    "io.atomic.torn_write";
    "io.atomic.bit_flip";
    "io.atomic.dropped_fsync";
    "io.atomic.rename_before_flush";
    "io.wal.append_torn";
  ]

let test_sweep_covers_io_points () =
  with_dir "sweep_io" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let exercised, outcomes =
        Soak.sweep (Soak.kbc_pipeline ~options:quick_options ~dir corpus)
      in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " exercised by the pipeline") true
            (List.mem_assoc p exercised))
        write_side_points;
      (* And each exercised io point fired and converged bit-identically. *)
      List.iter
        (fun (o : Soak.outcome) ->
          match o.Soak.schedule.Soak.arms with
          | [ { Soak.point; _ } ] when String.starts_with ~prefix:"io." point ->
            Alcotest.(check (list string)) (point ^ " fired") [ point ] o.Soak.fired;
            Alcotest.(check (option string)) (point ^ " golden fingerprint") None o.Soak.failure
          | _ -> ())
        outcomes)

let test_read_short_detected () =
  (* io.read.short never fires during a write-only run, so the sweep
     can't reach it; arm it across a recovery instead.  The short read
     truncates the newest checkpoint mid-load; the CRC must catch it, the
     version is quarantined, and recovery falls back to the previous
     version — never serving the torn bytes. *)
  with_dir "read_short" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save store engine;
      (* Not replayable, so the next save writes a second version. *)
      ignore (Engine.rematerialize engine);
      Checkpoint.save store engine;
      Checkpoint.abandon store;
      Fault.arm "io.read.short" (Fault.Nth 1);
      let result = Checkpoint.recover (Checkpoint.open_store dir) in
      let fired = Fault.fired "io.read.short" > 0 in
      Fault.reset ();
      Alcotest.(check bool) "short read fired" true fired;
      match result with
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      | Ok (recovered, _) ->
        Alcotest.(check bool) "recovered marginals identical" true
          (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine);
        Alcotest.(check bool) "torn version quarantined" true
          (Checkpoint.quarantined_files (Checkpoint.open_store dir) <> []))

let () =
  Alcotest.run "dd_soak"
    [
      ( "scrub",
        [
          Alcotest.test_case "clean store" `Quick test_scrub_clean;
          Alcotest.test_case "repairs corrupt table" `Quick test_scrub_repairs_table;
          Alcotest.test_case "content damage unrepaired" `Quick
            test_scrub_content_damage_unrepaired;
          Alcotest.test_case "quarantines corrupt version" `Quick
            test_scrub_quarantines_corrupt_version;
          Alcotest.test_case "republishes a base" `Quick test_scrub_republishes_a_base;
          Alcotest.test_case "blob ladder" `Quick test_scrub_blob_ladder;
          Alcotest.test_case "cadence" `Quick test_scrub_cadence;
        ] );
      ( "soak",
        [
          Alcotest.test_case "schedules deterministic" `Quick
            test_schedule_generation_deterministic;
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "death in the recovery scrub" `Quick test_death_in_recovery_scrub;
          Alcotest.test_case "kbc io faults" `Slow test_soak_kbc;
          Alcotest.test_case "kbc io+checkpoint faults" `Slow test_soak_kbc_engine_points;
          Alcotest.test_case "ingest+serve" `Slow test_soak_ingest_serve;
          Alcotest.test_case "ingest sweep" `Slow test_sweep_ingest;
          Alcotest.test_case "health counters" `Quick test_record_scrub_counters;
        ] );
      ( "io-points",
        [
          Alcotest.test_case "sweep covers io writes" `Slow test_sweep_covers_io_points;
          Alcotest.test_case "short read detected" `Quick test_read_short_detected;
        ] );
    ]
