(* Calibration of the produced marginals — the quality contract stated in
   the introduction: "if one examined all facts with probability 0.9, we
   would expect that approximately 90% of these facts would be correct." *)

open Harness
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Calibration = Dd_kbc.Calibration
module Grounding = Dd_core.Grounding
module Database = Dd_relational.Database
module Learner = Dd_inference.Learner
module Compiled = Dd_inference.Compiled
module Prng = Dd_util.Prng
module Table = Dd_util.Table

let calibration ~full =
  section "Calibration: predicted probability vs empirical precision";
  note
    "Buckets of predicted marginals against the hidden KB.  A calibrated\n\
     system tracks the diagonal; the expected calibration error (ECE)\n\
     summarizes the gap.  At this scale the system is directionally\n\
     calibrated (precision rises monotonically with predicted probability)\n\
     but overconfident in the top bucket — contrastive-divergence learning\n\
     on a small, noisily supervised corpus overfits; the paper's 0.2B-\n\
     variable systems flatten this out.";
  let table = Table.create [ "system"; "extractions"; "ECE" ] in
  List.iter
    (fun config ->
      let config =
        { config with Corpus.docs = config.Corpus.docs * (if full then 6 else 3) }
      in
      let corpus = Corpus.generate config in
      let db = Database.create () in
      Corpus.load corpus db;
      let grounding = Grounding.ground db (Pipeline.full_program ()) in
      let g = Grounding.graph grounding in
      let rng = Prng.create 81 in
      let kernel = Compiled.compile g in
      Learner.train_cd ~options:{ Learner.default_cd with Learner.epochs = 50 } ~kernel rng;
      let marginals = Compiled.marginals ~burn_in:50 rng kernel ~sweeps:600 in
      let report = Calibration.evaluate grounding marginals ~truth:corpus.Corpus.truth in
      Table.add_row table
        [
          config.Corpus.name;
          string_of_int report.Calibration.total;
          Table.cell_f report.Calibration.expected_calibration_error;
        ];
      if config.Corpus.name = "News" then begin
        note "\nNews bucket detail:";
        Table.print (Calibration.to_table report)
      end)
    (if full then Systems.all else [ Systems.news; Systems.paleontology ]);
  Table.print table

let () = register "calibration" "Calibration of marginals" calibration
