(* Crash–recover–compare over the Fig-KBC pipeline: for every fault point
   the pipeline exercises, kill a checkpointed run mid-update (or damage
   its bytes silently and force a power cut), recover from the store
   (last base + WAL replay), scrub, finish the remaining snapshots, and
   compare the result with an uninterrupted run with the same seed.  The
   determinism claim makes the expected outcome exact: a bit-identical
   fingerprint (marginals and sidecar state) and a healthy scrub, for
   every point.  This is [Soak.sweep] over [Soak.kbc_pipeline]. *)

open Harness
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Soak = Dd_oracle.Soak
module Engine = Dd_core.Engine
module Timer = Dd_util.Timer
module Table = Dd_util.Table

let bench_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 400;
    inference_chain = 150;
    initial_learning_epochs = 30;
    incremental_learning_epochs = 8;
  }

let scratch_dir () = Filename.concat (Filename.get_temp_dir_name ()) "dd_bench_recovery"

let recovery ~full =
  section "Recovery: crash injection over the KBC snapshot sequence";
  note
    "Each row arms one fault point mid-run (Nth = half its hit count + 1),\n\
     treats the escaping injection as a process death (or, for a silent\n\
     fault, forces a power cut), recovers from the checkpoint store,\n\
     scrubs and finishes the run.  Pass = fingerprint bit-identical to\n\
     the uninterrupted run and a healthy final scrub (expected for every\n\
     point: the checkpoint carries the engine PRNG, so the recovered run\n\
     retraces it bit for bit).";
  let config =
    let base = Systems.news in
    if full then { base with Corpus.docs = base.Corpus.docs * 4 } else base
  in
  let corpus = Corpus.generate config in
  let pipeline = Soak.kbc_pipeline ~options:bench_options ~dir:(scratch_dir ()) corpus in
  let timer = Timer.start () in
  let exercised, outcomes = Soak.sweep pipeline in
  let seconds = Timer.elapsed_s timer in
  note "%d fault points exercised; baseline + %d crash runs in %.2fs.\n"
    (List.length exercised) (List.length outcomes) seconds;
  let table =
    Table.create [ "fault point"; "trigger"; "fired"; "crashes"; "repairs"; "result" ]
  in
  let failures = ref 0 in
  List.iter
    (fun (o : Soak.outcome) ->
      let arm = List.hd o.Soak.schedule.Soak.arms in
      let fired = List.mem arm.Soak.point o.Soak.fired in
      let result =
        match o.Soak.failure with
        | None when fired -> "identical"
        | None -> "NOT FIRED"
        | Some f -> f
      in
      if result <> "identical" then incr failures;
      Table.add_row table
        [
          arm.Soak.point;
          string_of_int arm.Soak.trigger;
          (if fired then "yes" else "no");
          string_of_int o.Soak.crashes;
          string_of_int o.Soak.repairs;
          result;
        ])
    outcomes;
  Table.print table;
  metric "points_exercised" (float_of_int (List.length exercised));
  metric "sweep_s" seconds;
  metric "failures" (float_of_int !failures)

let () = register "recovery" "Crash recovery: checkpoint + WAL replay" recovery
