(* Crash-consistency soak: seeded random fault schedules over the full
   checkpointed update loop, each killed/damaged at its armed points,
   recovered, scrubbed, and compared bit-for-bit against a fault-free
   golden run.  The acceptance bar is zero unrecovered corruption: every
   schedule must converge to the golden fingerprint with nothing left
   unrepaired and nothing damaged ever served.

   Default scale runs a CI-sized subset; --full runs the full 240-schedule
   sweep (the paper-style overnight number).  Failing schedules are
   shrunk to minimal reproductions and written to SOAK_FAILURES.txt so a
   red CI run uploads exactly the seeds needed to replay the bug. *)

open Harness
module Corpus = Dd_kbc.Corpus
module Engine = Dd_core.Engine
module Fault_file = Dd_util.Fault_file
module Checkpoint = Dd_kbc.Checkpoint
module Soak = Dd_kbc.Soak
module Source = Dd_ingest.Source
module Soak_driver = Dd_ingest.Soak_driver
module Server = Dd_serve.Server
module Snapshot = Dd_serve.Snapshot
module Timer = Dd_util.Timer

let soak_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 120;
    inference_chain = 60;
    initial_learning_epochs = 10;
    incremental_learning_epochs = 3;
  }

let scratch_dir name = Filename.concat (Filename.get_temp_dir_name ()) ("dd_bench_" ^ name)

let corpus_config = { Corpus.default with Corpus.docs = 16; relations = 2; entities = 24; seed = 5 }

let report_failures label failures =
  if failures <> [] then begin
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 "SOAK_FAILURES.txt" in
    List.iter
      (fun (o : Soak.outcome) ->
        let arms =
          String.concat ", "
            (List.map
               (fun (a : Soak.arm) -> Printf.sprintf "%s@%d" a.Soak.point a.Soak.trigger)
               o.Soak.schedule.Soak.arms)
        in
        Printf.fprintf oc "%s schedule %d [%s]: %s\n" label o.Soak.schedule.Soak.sid arms
          (Option.value ~default:"?" o.Soak.failure);
        note "FAILED %s schedule %d [%s]: %s" label o.Soak.schedule.Soak.sid arms
          (Option.value ~default:"?" o.Soak.failure))
      failures;
    close_out oc
  end

let soak ~full =
  section "Soak: randomized fault schedules, crash-recover-scrub to a golden model";
  let kbc_schedules = if full then 240 else 60 in
  let ingest_schedules = if full then 24 else 8 in
  note
    "Each schedule arms 1-3 seeded (point, Nth) faults over the torn-write\n\
     I/O layer, runs the checkpointed update loop, treats every escaping\n\
     injection as a machine death (volatile bytes lost), recovers, scrubs,\n\
     and ends with a forced power cut.  Pass = bit-identical fingerprint\n\
     vs the fault-free golden run, nothing unrepaired.";

  (* --- bare kbc loop: io + checkpoint crash points ------------------------- *)
  let corpus = Corpus.generate corpus_config in
  let dir = scratch_dir "soak_kbc" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let pipeline = Soak.kbc_pipeline ~options:soak_options ~dir corpus in
  let points = Fault_file.all_points @ Checkpoint.fault_points in
  (* How often each point of the pool fired across a loop's schedules: a
     point that never fires is a blind spot of the soak. *)
  let fire_counter () =
    let fires = Hashtbl.create 16 in
    let fired p = Option.value ~default:0 (Hashtbl.find_opt fires p) in
    let count (o : Soak.outcome) =
      List.iter (fun p -> Hashtbl.replace fires p (fired p + 1)) o.Soak.fired
    in
    (fired, count)
  in
  let report_fired label fired =
    note "%s schedules in which each point fired: %s." label
      (String.concat ", " (List.map (fun p -> Printf.sprintf "%s %d" p (fired p)) points));
    List.iter (fun p -> metric (label ^ "_fired." ^ p) (float_of_int (fired p))) points
  in
  let fired, count = fire_counter () in
  let timer = Timer.start () in
  let summary = Soak.soak ~seed:101 ~points ~on_schedule:count ~schedules:kbc_schedules pipeline in
  let kbc_s = Timer.elapsed_s timer in
  note
    "kbc loop: %d schedules in %.1fs — %d crashed (%d injected deaths),\n\
     %d clean, %d artifacts repaired/contained, %d FAILURES."
    summary.Soak.schedules kbc_s summary.Soak.crashed summary.Soak.total_crashes
    summary.Soak.clean summary.Soak.total_repairs
    (List.length summary.Soak.failures);
  report_failures "kbc" summary.Soak.failures;
  metric "kbc_schedules" (float_of_int summary.Soak.schedules);
  metric "kbc_crashed" (float_of_int summary.Soak.crashed);
  metric "kbc_total_crashes" (float_of_int summary.Soak.total_crashes);
  metric "kbc_repairs" (float_of_int summary.Soak.total_repairs);
  metric "kbc_failures" (float_of_int (List.length summary.Soak.failures));
  report_fired "kbc" fired;

  (* --- full ingest -> txn -> serve loop ------------------------------------ *)
  let ingest_dir = scratch_dir "soak_ingest" in
  if not (Sys.file_exists ingest_dir) then Sys.mkdir ingest_dir 0o755;
  let cfg = { Source.default with Source.docs = 12; entities = 8; relations = 2; seed = 7 } in
  let server = ref None in
  let ingest_pipeline =
    Soak_driver.pipeline ~options:soak_options
      ~attach:(fun txn -> server := Some (Server.create txn))
      ~verify_snapshot:(fun () ->
        match !server with
        | None -> Error "no server attached"
        | Some srv -> Server.read srv Snapshot.verify)
      ~dir:ingest_dir (Source.synthetic cfg)
  in
  let ingest_pipeline =
    {
      ingest_pipeline with
      Soak.scrub =
        (fun () ->
          let r = ingest_pipeline.Soak.scrub () in
          (match !server with Some srv -> Server.record_scrub srv r | None -> ());
          r);
    }
  in
  let ifired, icount = fire_counter () in
  let timer = Timer.start () in
  let isummary =
    Soak.soak ~seed:77 ~points ~on_schedule:icount ~schedules:ingest_schedules ingest_pipeline
  in
  let ingest_s = Timer.elapsed_s timer in
  note
    "ingest+serve loop: %d schedules in %.1fs — %d crashed, %d repairs, %d FAILURES."
    isummary.Soak.schedules ingest_s isummary.Soak.crashed isummary.Soak.total_repairs
    (List.length isummary.Soak.failures);
  report_failures "ingest" isummary.Soak.failures;
  (match !server with
  | Some srv ->
    let h = Server.health srv in
    note "serving health after the soak: %d scrubs recorded, last verdict healthy: %b."
      h.Server.scrubs
      (h.Server.last_scrub_healthy = Some true)
  | None -> ());
  report_fired "ingest" ifired;
  metric "ingest_schedules" (float_of_int isummary.Soak.schedules);
  metric "ingest_crashed" (float_of_int isummary.Soak.crashed);
  metric "ingest_repairs" (float_of_int isummary.Soak.total_repairs);
  metric "ingest_failures" (float_of_int (List.length isummary.Soak.failures));
  metric "unrecovered_corruption"
    (float_of_int (List.length summary.Soak.failures + List.length isummary.Soak.failures))

let () = register "soak" "Soak: crash-consistency fault schedules vs golden model" soak
