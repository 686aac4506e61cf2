(* Tests for Dd_kbc: corpus generation, the pipeline program, quality
   metrics, system presets, drift workload, the snapshot experiment and
   the optimizer's Figure 11 lesion arms. *)

module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Relation = Dd_relational.Relation
module Database = Dd_relational.Database
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Systems = Dd_kbc.Systems
module Drift = Dd_kbc.Drift
module Snapshots = Dd_kbc.Snapshots
module Calibration = Dd_kbc.Calibration
module Analysis = Dd_kbc.Analysis
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Engine = Dd_core.Engine
module Learner = Dd_inference.Learner
module Prng = Dd_util.Prng

let tiny_config = { Corpus.default with Corpus.docs = 12; relations = 2; entities = 20; seed = 5 }

(* --- corpus ------------------------------------------------------------------ *)

let test_corpus_deterministic () =
  let a = Corpus.generate tiny_config and b = Corpus.generate tiny_config in
  Alcotest.(check bool) "same truth" true (a.Corpus.truth = b.Corpus.truth);
  Alcotest.(check bool) "same docs" true (a.Corpus.doc_tables = b.Corpus.doc_tables)

let test_corpus_seed_changes_output () =
  let a = Corpus.generate tiny_config in
  let b = Corpus.generate { tiny_config with Corpus.seed = 6 } in
  Alcotest.(check bool) "different docs" true (a.Corpus.doc_tables <> b.Corpus.doc_tables)

let test_corpus_doc_count () =
  let corpus = Corpus.generate tiny_config in
  Alcotest.(check int) "doc tables" 12 (Array.length corpus.Corpus.doc_tables)

let test_corpus_rows_conform () =
  let corpus = Corpus.generate tiny_config in
  let schema_of name = List.assoc name Corpus.input_schemas in
  List.iter
    (fun (name, rows) ->
      let schema = schema_of name in
      List.iter
        (fun row ->
          Alcotest.(check bool) (name ^ " row conforms") true (Schema.conforms schema row))
        rows)
    (corpus.Corpus.static_tables @ List.concat (Array.to_list corpus.Corpus.doc_tables))

let test_corpus_known_subset_of_truth () =
  let corpus = Corpus.generate tiny_config in
  let known = List.assoc "known" corpus.Corpus.static_tables in
  List.iter
    (fun row ->
      match (row.(0), row.(1), row.(2)) with
      | Value.Str r, Value.Str e1, Value.Str e2 ->
        Alcotest.(check bool) "known in truth" true (List.mem (r, e1, e2) corpus.Corpus.truth)
      | _ -> Alcotest.fail "bad known row")
    known

let test_corpus_load_prefix_plus_delta_equals_full () =
  let corpus = Corpus.generate tiny_config in
  (* Load prefix then apply the doc delta at the relational level. *)
  let db_incremental = Database.create () in
  Corpus.load corpus ~docs:5 db_incremental;
  let delta = Corpus.doc_delta corpus ~from_doc:5 ~until_doc:12 in
  List.iter
    (fun (pred, _) ->
      List.iter
        (fun (tuple, sign) ->
          if sign > 0 then Relation.insert (Database.find db_incremental pred) tuple)
        (Dd_datalog.Dred.Delta.flips delta pred))
    Corpus.input_schemas;
  let db_full = Database.create () in
  Corpus.load corpus db_full;
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " matches") true
        (Relation.equal_contents (Database.find db_incremental name) (Database.find db_full name)))
    Corpus.input_schemas

let test_corpus_statistics_line () =
  let corpus = Corpus.generate tiny_config in
  let line = Corpus.statistics corpus in
  Alcotest.(check bool) "mentions name" true
    (String.length line > 0 && String.sub line 0 7 = "default")

(* --- pipeline ----------------------------------------------------------------- *)

let test_pipeline_programs_validate () =
  Alcotest.(check bool) "base" true (Result.is_ok (Program.validate (Pipeline.base_program ())));
  Alcotest.(check bool) "full" true (Result.is_ok (Program.validate (Pipeline.full_program ())))

let test_pipeline_rule_sequence () =
  Alcotest.(check int) "six snapshots" 6 (List.length Pipeline.all_rule_ids);
  Alcotest.(check int) "A1 adds nothing" 0 (List.length (Pipeline.rules_of Pipeline.A1));
  Alcotest.(check int) "I1 adds two rules" 2 (List.length (Pipeline.rules_of Pipeline.I1))

let test_pipeline_grounds () =
  let corpus = Corpus.generate tiny_config in
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db (Pipeline.full_program ()) in
  let stats = Grounding.stats grounding in
  Alcotest.(check bool) "has variables" true (stats.Grounding.variables > 0);
  Alcotest.(check bool) "has factors" true
    (stats.Grounding.factors >= stats.Grounding.variables);
  Alcotest.(check bool) "has evidence" true (stats.Grounding.evidence > 0)

let test_pipeline_semantics_parameter () =
  let r = List.hd (Pipeline.rules_of ~semantics:Dd_fgraph.Semantics.Linear Pipeline.FE1) in
  match r with
  | Program.Infer rule ->
    Alcotest.(check bool) "linear" true (rule.Program.semantics = Dd_fgraph.Semantics.Linear)
  | _ -> Alcotest.fail "FE1 should be an inference rule"

(* --- quality ------------------------------------------------------------------ *)

let grounded_fixture () =
  let corpus = Corpus.generate tiny_config in
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db (Pipeline.full_program ()) in
  (corpus, grounding)

let test_quality_perfect_predictions () =
  (* Force marginals: 1.0 on variables whose mention pair resolves to a true
     fact, 0 elsewhere; precision should be 1. *)
  let corpus, grounding = grounded_fixture () in
  let g = Grounding.graph grounding in
  let marginals = Array.make (Dd_fgraph.Graph.num_vars g) 0.0 in
  (* Mark everything predicted and measure: precision equals correct/total. *)
  Array.fill marginals 0 (Array.length marginals) 1.0;
  let score = Quality.evaluate ~threshold:0.5 grounding marginals ~truth:corpus.Corpus.truth in
  Alcotest.(check bool) "some predictions" true (score.Quality.predicted > 0);
  Alcotest.(check bool) "precision in range" true
    (score.Quality.precision >= 0.0 && score.Quality.precision <= 1.0);
  (* No predictions at threshold above 1. *)
  let none = Quality.evaluate ~threshold:1.1 grounding marginals ~truth:corpus.Corpus.truth in
  Alcotest.(check int) "nothing predicted" 0 none.Quality.predicted;
  Alcotest.(check (float 0.0)) "zero recall" 0.0 none.Quality.recall

let test_quality_f1_formula () =
  let corpus, grounding = grounded_fixture () in
  let g = Grounding.graph grounding in
  let marginals = Array.make (Dd_fgraph.Graph.num_vars g) 1.0 in
  let score = Quality.evaluate ~threshold:0.5 grounding marginals ~truth:corpus.Corpus.truth in
  let p = score.Quality.precision and r = score.Quality.recall in
  let expected = if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r) in
  Alcotest.(check (float 1e-9)) "harmonic mean" expected score.Quality.f1

let test_compare_marginals_identical () =
  let entries = [ ("q", [| Value.str "a" |], 0.95); ("q", [| Value.str "b" |], 0.2) ] in
  let agreement = Quality.compare_marginals entries entries in
  Alcotest.(check (float 0.0)) "jaccard 1" 1.0 agreement.Quality.high_conf_jaccard;
  Alcotest.(check (float 0.0)) "no diffs" 0.0 agreement.Quality.frac_diff_gt

let test_compare_marginals_differences () =
  let a = [ ("q", [| Value.str "x" |], 0.95); ("q", [| Value.str "y" |], 0.5) ] in
  let b = [ ("q", [| Value.str "x" |], 0.2); ("q", [| Value.str "y" |], 0.52) ] in
  let agreement = Quality.compare_marginals a b in
  Alcotest.(check (float 1e-9)) "half differ" 0.5 agreement.Quality.frac_diff_gt;
  Alcotest.(check (float 0.0)) "jaccard 0" 0.0 agreement.Quality.high_conf_jaccard;
  Alcotest.(check bool) "max diff" true (agreement.Quality.max_diff > 0.7)

let test_compare_marginals_missing_tuple () =
  let a = [ ("q", [| Value.str "x" |], 0.9) ] in
  let b = [ ("q", [| Value.str "x" |], 0.9); ("q", [| Value.str "new" |], 0.95) ] in
  let agreement = Quality.compare_marginals a b in
  (* The extra high-confidence fact in b counts against agreement. *)
  Alcotest.(check bool) "jaccard below 1" true (agreement.Quality.high_conf_jaccard < 1.0)

let test_calibration_buckets () =
  let corpus, grounding = grounded_fixture () in
  let g = Grounding.graph grounding in
  let n = Dd_fgraph.Graph.num_vars g in
  (* Alternate confident/uncertain marginals; check bucket bookkeeping. *)
  let marginals = Array.init n (fun v -> if v mod 2 = 0 then 0.95 else 0.15) in
  let report = Calibration.evaluate ~bins:10 grounding marginals ~truth:corpus.Corpus.truth in
  Alcotest.(check int) "ten buckets" 10 (List.length report.Calibration.buckets);
  Alcotest.(check bool) "entries counted" true (report.Calibration.total > 0);
  let occupied =
    List.filter (fun b -> b.Calibration.count > 0) report.Calibration.buckets
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) "mean in bucket range" true
        (b.Calibration.mean_predicted >= b.Calibration.lower -. 1e-9
        && b.Calibration.mean_predicted <= b.Calibration.upper +. 1e-9);
      Alcotest.(check bool) "precision in [0,1]" true
        (b.Calibration.empirical_precision >= 0.0 && b.Calibration.empirical_precision <= 1.0))
    occupied;
  Alcotest.(check bool) "ece in [0,1]" true
    (report.Calibration.expected_calibration_error >= 0.0
    && report.Calibration.expected_calibration_error <= 1.0)

let test_calibration_perfect_oracle () =
  (* Marginals equal to ground-truth membership: ECE must be ~0. *)
  let corpus, grounding = grounded_fixture () in
  let g = Grounding.graph grounding in
  let truth_set = Hashtbl.create 64 in
  List.iter (fun fact -> Hashtbl.replace truth_set fact ()) corpus.Corpus.truth;
  let names = Quality.mention_names (Grounding.database grounding) in
  let links = Quality.linking (Grounding.database grounding) in
  let marginals = Array.make (Dd_fgraph.Graph.num_vars g) 0.0 in
  List.iter
    (fun (rel, tuple, _) ->
      if rel = Pipeline.query_relation then
        match Grounding.var_of grounding rel tuple with
        | None -> ()
        | Some v -> (
          let resolve mid =
            Option.bind (Hashtbl.find_opt names mid) (Hashtbl.find_opt links)
          in
          match
            ( Dd_relational.Value.as_str tuple.(0),
              resolve (Dd_relational.Value.as_str tuple.(1)),
              resolve (Dd_relational.Value.as_str tuple.(2)) )
          with
          | r, Some e1, Some e2 ->
            marginals.(v) <- (if Hashtbl.mem truth_set (r, e1, e2) then 0.999 else 0.001)
          | _ -> ()))
    (Grounding.marginals_by_relation grounding marginals);
  let report = Calibration.evaluate grounding marginals ~truth:corpus.Corpus.truth in
  Alcotest.(check bool) "near-zero ece" true
    (report.Calibration.expected_calibration_error < 0.01)

let test_calibration_table () =
  let corpus, grounding = grounded_fixture () in
  let marginals = Array.make (Dd_fgraph.Graph.num_vars (Grounding.graph grounding)) 0.5 in
  let report = Calibration.evaluate grounding marginals ~truth:corpus.Corpus.truth in
  Alcotest.(check bool) "renders" true
    (String.length (Dd_util.Table.render (Calibration.to_table report)) > 0)

(* --- analysis ------------------------------------------------------------------- *)

let test_analysis_reports () =
  let corpus, grounding = grounded_fixture () in
  let g = Grounding.graph grounding in
  (* Everything predicted true: every non-truth resolvable pair becomes a
     false positive, and no fact should appear as missed with p <= 0.9. *)
  let marginals = Array.make (Dd_fgraph.Graph.num_vars g) 0.95 in
  let report = Analysis.analyze ~top:5 grounding marginals ~truth:corpus.Corpus.truth in
  Alcotest.(check bool) "false positives found" true (report.Analysis.false_positives <> []);
  Alcotest.(check bool) "top respected" true (List.length report.Analysis.false_positives <= 5);
  List.iter
    (fun e -> Alcotest.(check bool) "fp above threshold" true (e.Analysis.probability > 0.9))
    report.Analysis.false_positives;
  (* With everything at 0.0 instead, every fact is missed. *)
  let zeros = Array.make (Dd_fgraph.Graph.num_vars g) 0.0 in
  let report0 = Analysis.analyze ~top:5 grounding zeros ~truth:corpus.Corpus.truth in
  Alcotest.(check bool) "missed facts found" true (report0.Analysis.missed <> []);
  Alcotest.(check bool) "no false positives" true (report0.Analysis.false_positives = [])

let test_analysis_features_ranked () =
  let corpus, grounding = grounded_fixture () in
  let g = Grounding.graph grounding in
  (* Give two learnable weights distinctive values. *)
  let learnable =
    List.filter (fun w -> Dd_fgraph.Graph.weight_learnable g w)
      (List.init (Dd_fgraph.Graph.num_weights g) (fun w -> w))
  in
  (match learnable with
  | w1 :: w2 :: _ ->
    Dd_fgraph.Graph.set_weight g w1 5.0;
    Dd_fgraph.Graph.set_weight g w2 (-3.0)
  | _ -> Alcotest.fail "expected learnable weights");
  let marginals = Array.make (Dd_fgraph.Graph.num_vars g) 0.5 in
  let report = Analysis.analyze ~top:3 grounding marginals ~truth:corpus.Corpus.truth in
  (match report.Analysis.strongest_features with
  | first :: second :: _ ->
    Alcotest.(check (float 0.0)) "strongest first" 5.0 first.Analysis.weight;
    Alcotest.(check bool) "ranked by magnitude" true
      (abs_float first.Analysis.weight >= abs_float second.Analysis.weight);
    Alcotest.(check bool) "support counted" true (first.Analysis.factors > 0)
  | _ -> Alcotest.fail "expected features")

(* --- systems -------------------------------------------------------------------- *)

let test_systems_presets () =
  Alcotest.(check int) "five systems" 5 (List.length Systems.all);
  List.iter
    (fun config ->
      let corpus = Corpus.generate { config with Corpus.docs = 6 } in
      Alcotest.(check bool)
        (config.Corpus.name ^ " generates")
        true
        (Array.length corpus.Corpus.doc_tables = 6))
    Systems.all

let test_systems_by_name () =
  Alcotest.(check bool) "news found" true (Systems.by_name "news" <> None);
  Alcotest.(check bool) "case insensitive" true (Systems.by_name "NEWS" <> None);
  Alcotest.(check bool) "unknown" true (Systems.by_name "nope" = None)

let test_systems_axes () =
  (* The presets must encode the paper's qualitative axes. *)
  let adversarial, pharma =
    match Systems.all with
    | [ adversarial; _; _; pharma; _ ] -> (adversarial, pharma)
    | _ -> Alcotest.fail "five presets"
  in
  Alcotest.(check bool) "adversarial has worst text" true
    (adversarial.Corpus.phrase_corruption
    > List.fold_left
        (fun acc c -> max acc c.Corpus.phrase_corruption)
        0.0
        [ Systems.news; Systems.genomics; pharma; Systems.paleontology ]);
  Alcotest.(check bool) "news has most relations" true
    (Systems.news.Corpus.relations >= pharma.Corpus.relations);
  Alcotest.(check bool) "paleo least ambiguous" true
    (Systems.paleontology.Corpus.phrase_ambiguity <= Systems.genomics.Corpus.phrase_ambiguity)

(* --- drift --------------------------------------------------------------------- *)

let test_drift_shapes () =
  let stream = Drift.generate ~emails:1000 ~features:60 ~seed:9 () in
  Alcotest.(check int) "early size" 100 (Array.length stream.Drift.train_early.Learner.rows);
  Alcotest.(check int) "late size" 300 (Array.length stream.Drift.train_late.Learner.rows);
  Alcotest.(check int) "test size" 700 (Array.length stream.Drift.test.Learner.rows);
  Array.iter
    (fun (features, _) ->
      Array.iter
        (fun f -> Alcotest.(check bool) "feature in range" true (f >= 0 && f < 60))
        features)
    stream.Drift.test.Learner.rows

let test_drift_hurts_stale_model () =
  (* A model trained before the drift must lose accuracy on post-drift data
     compared to a drift-free stream. *)
  let train_and_test drift_at =
    let stream = Drift.generate ~emails:2000 ~drift_at ~seed:10 () in
    let weights =
      Learner.train_lr ~method_:Learner.Sgd ~epochs:25 (Prng.create 11)
        stream.Drift.train_early
    in
    Learner.lr_loss stream.Drift.test weights
  in
  let stable_loss = train_and_test 0.0 in
  let drifted_loss = train_and_test 0.5 in
  Alcotest.(check bool) "drift hurts" true (drifted_loss > stable_loss)

(* --- snapshots ------------------------------------------------------------------ *)

let quick_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 80;
    inference_chain = 40;
    initial_learning_epochs = 8;
    incremental_learning_epochs = 2;
  }

(* [tiny_config] at 40 documents with most sentences reusing a pair: I1
   couples 49 query variables into components too large to enumerate. *)
let coupled_config = { tiny_config with Corpus.docs = 40; pair_repeat = 0.9 }

let test_snapshots_run () =
  let corpus = Corpus.generate coupled_config in
  let result = Snapshots.run ~options:quick_options corpus in
  Alcotest.(check int) "six rows" 6 (List.length result.Snapshots.rows);
  let row rule = List.find (fun (r : Snapshots.row) -> r.Snapshots.rule = rule) result.Snapshots.rows in
  let first = List.hd result.Snapshots.rows in
  Alcotest.(check bool) "A1 first" true (first.Snapshots.rule = Pipeline.A1);
  (* The base program's query variables are all isolated: the exact rule
     answers A1 on the real graph. *)
  Alcotest.(check string) "A1 strategy" "full-gibbs" first.Snapshots.strategy;
  Alcotest.(check bool) "A1 has no MH acceptance" true (first.Snapshots.acceptance = None);
  (* Over the bound, the optimizer's §3.2 pick answers. *)
  let i1 = row Pipeline.I1 in
  Alcotest.(check string) "I1 strategy" "sampling" i1.Snapshots.strategy;
  (match i1.Snapshots.acceptance with
  | Some a -> Alcotest.(check bool) "I1 acceptance is a rate" true (a >= 0.0 && a <= 1.0)
  | None -> Alcotest.fail "I1 should report acceptance");
  List.iter
    (fun (row : Snapshots.row) ->
      Alcotest.(check bool) "times nonneg" true
        (row.Snapshots.incremental_seconds >= 0.0 && row.Snapshots.rerun_seconds >= 0.0))
    result.Snapshots.rows;
  Alcotest.(check bool) "graph described" true (result.Snapshots.graph_vars > 0)

let test_snapshots_skip_rerun () =
  let corpus = Corpus.generate tiny_config in
  let result = Snapshots.run ~options:quick_options ~skip_rerun:true corpus in
  List.iter
    (fun (row : Snapshots.row) ->
      Alcotest.(check (float 0.0)) "no rerun time" 0.0 row.Snapshots.rerun_seconds)
    result.Snapshots.rows

(* --- optimizer lesion arms (Figure 11) ---------------------------------------- *)

let lesion_arms =
  [
    ("All", quick_options);
    ("NoSampling", { quick_options with Engine.disable_sampling = true });
    ("NoVariational", { quick_options with Engine.disable_variational = true });
    ("NoWorkloadInfo", { quick_options with Engine.workload_aware = false });
  ]

(* One line per Fig. 9 update: rule, strategy, MH acceptance (hex) and an
   MD5 of the engine's marginals (hex floats). *)
let lesion_trace options =
  let corpus = Corpus.generate coupled_config in
  let db = Database.create () in
  Corpus.load corpus db;
  let engine = Engine.create ~options db (Pipeline.base_program ()) in
  List.map
    (fun rule_id ->
      let report = Engine.apply_update engine (Pipeline.update_of rule_id) in
      let marginals =
        String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") (Engine.marginals engine)))
      in
      Printf.sprintf "%s %s %s %s"
        (Pipeline.rule_id_to_string rule_id)
        (Engine.strategy_used_to_string report.Engine.strategy)
        (match report.Engine.acceptance_rate with None -> "-" | Some a -> Printf.sprintf "%h" a)
        (Digest.to_hex (Digest.string marginals)))
    Pipeline.all_rule_ids

(* Every arm's strategies, acceptance rates and marginals, pinned: the
   optimizer's decision and the draws of each strategy stay bit for bit
   what they were when these were taken.  The corpus has no evidence
   for FE1's and FE2's features, and every variable they add is lone,
   so their exact gradient is 0: their weights stay 0 and the marginals
   stay A1's. *)
let pinned_lesion_traces =
  [
    ( "All",
      [
        "A1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE2 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "I1 sampling 0x1.9ec8e951033d9p-5 c478f801fb5f8072d29a4be704a8d72b";
        "S1 full-gibbs - 8cb5a5dd7acc823809d3a473eba2c75e";
        "S2 full-gibbs - 3a91326fefd1fbdddad9ff7e5431a22a";
      ] );
    ( "NoSampling",
      [
        "A1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE2 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "I1 variational - c66291c28546b9976c4a17262341a756";
        "S1 full-gibbs - cc7f7a723c680a931d96b10ccab86f23";
        "S2 full-gibbs - 7db79a716a1dc807b8863909df70ca53";
      ] );
    ( "NoVariational",
      [
        "A1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE2 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "I1 sampling 0x1.9ec8e951033d9p-5 c478f801fb5f8072d29a4be704a8d72b";
        "S1 full-gibbs - 7d80d037a29cdbb61d9ef95ccec970ec";
        "S2 full-gibbs - ad09a15699d520a65e689cd3ca91a40d";
      ] );
    ( "NoWorkloadInfo",
      [
        "A1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE1 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "FE2 full-gibbs - 5684522b123ce7a280315a65d14fc3a1";
        "I1 sampling 0x1.9ec8e951033d9p-5 c478f801fb5f8072d29a4be704a8d72b";
        "S1 full-gibbs - 8cb5a5dd7acc823809d3a473eba2c75e";
        "S2 full-gibbs - 3a91326fefd1fbdddad9ff7e5431a22a";
      ] );
  ]

(* Base + FE1 + S1 + S2 leaves every variable lone on the presets, so
   learning takes exact steps and draws nothing, and inference reads
   closed forms: a Rerun does not depend on the seed. *)
let test_rerun_seed_free () =
  let program =
    Program.add_rules (Pipeline.base_program ())
      (List.concat_map Pipeline.rules_of [ Pipeline.FE1; Pipeline.S1; Pipeline.S2 ])
  in
  List.iter
    (fun preset ->
      let corpus = Corpus.generate preset in
      let rerun seed =
        let db = Database.create () in
        Corpus.load corpus db;
        fst (Engine.rerun ~options:{ quick_options with Engine.seed } db program)
      in
      let a = rerun 1 and b = rerun 2 in
      Alcotest.(check bool) "some marginal is learned" true (Array.exists (fun p -> p > 0.0 && p < 1.0) a);
      Alcotest.(check bool) "bit-identical across seeds" true
        (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b))
    [ Dd_kbc.Systems.news; Dd_kbc.Systems.genomics ]

let test_lesion_arms_pinned () =
  let traces = List.map (fun (name, options) -> (name, lesion_trace options)) lesion_arms in
  Alcotest.(check (list (pair string (list string)))) "arms" pinned_lesion_traces traces

let () =
  Alcotest.run "dd_kbc"
    [
      ( "corpus",
        [
          Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_corpus_seed_changes_output;
          Alcotest.test_case "doc count" `Quick test_corpus_doc_count;
          Alcotest.test_case "rows conform" `Quick test_corpus_rows_conform;
          Alcotest.test_case "known subset of truth" `Quick test_corpus_known_subset_of_truth;
          Alcotest.test_case "prefix + delta = full" `Quick
            test_corpus_load_prefix_plus_delta_equals_full;
          Alcotest.test_case "statistics" `Quick test_corpus_statistics_line;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "programs validate" `Quick test_pipeline_programs_validate;
          Alcotest.test_case "rule sequence" `Quick test_pipeline_rule_sequence;
          Alcotest.test_case "grounds" `Quick test_pipeline_grounds;
          Alcotest.test_case "semantics param" `Quick test_pipeline_semantics_parameter;
        ] );
      ( "quality",
        [
          Alcotest.test_case "evaluate" `Quick test_quality_perfect_predictions;
          Alcotest.test_case "f1 formula" `Quick test_quality_f1_formula;
          Alcotest.test_case "compare identical" `Quick test_compare_marginals_identical;
          Alcotest.test_case "compare differences" `Quick test_compare_marginals_differences;
          Alcotest.test_case "compare missing" `Quick test_compare_marginals_missing_tuple;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "buckets" `Quick test_calibration_buckets;
          Alcotest.test_case "perfect oracle" `Quick test_calibration_perfect_oracle;
          Alcotest.test_case "table" `Quick test_calibration_table;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "reports" `Quick test_analysis_reports;
          Alcotest.test_case "features ranked" `Quick test_analysis_features_ranked;
        ] );
      ( "systems",
        [
          Alcotest.test_case "presets" `Quick test_systems_presets;
          Alcotest.test_case "by name" `Quick test_systems_by_name;
          Alcotest.test_case "axes" `Quick test_systems_axes;
        ] );
      ( "drift",
        [
          Alcotest.test_case "shapes" `Quick test_drift_shapes;
          Alcotest.test_case "stale model hurt" `Quick test_drift_hurts_stale_model;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "run" `Slow test_snapshots_run;
          Alcotest.test_case "skip rerun" `Slow test_snapshots_skip_rerun;
        ] );
      ("optimizer", [ Alcotest.test_case "lesion arms pinned" `Quick test_lesion_arms_pinned ]);
      ("learning", [ Alcotest.test_case "rerun seed-free" `Quick test_rerun_seed_free ]);
    ]
