(* The KBC-system experiments of Section 4: corpus statistics (Figure 7),
   end-to-end Rerun vs Incremental (Figure 9), quality over time
   (Figure 10a), the optimizer lesion study (Figure 11), the decomposition
   lesion (Figure 14) and the materialization budget (Figure 15). *)

open Harness
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Snapshots = Dd_kbc.Snapshots
module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Materialize = Dd_core.Materialize
module Decompose = Dd_oracle.Decompose
module Budget_materialize = Dd_oracle.Budget_materialize
module Approx = Dd_variational.Approx
module Database = Dd_relational.Database
module Prng = Dd_util.Prng
module Timer = Dd_util.Timer
module Table = Dd_util.Table

let scale config ~full =
  let factor = if full then 8 else 4 in
  {
    config with
    Corpus.docs = config.Corpus.docs * factor;
    entities = config.Corpus.entities * 2;
    truth_pairs_per_relation = config.Corpus.truth_pairs_per_relation * 2;
  }

let bench_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 2000;
    inference_chain = 500;
    burn_in = 30;
    lambda = 0.05;
    initial_learning_epochs = 60;
    incremental_learning_epochs = 20;
    incremental_learning_rate = 0.08;
    acceptance_floor = 0.05;
  }

(* --- Figure 6: quality and factor count vs regularization ------------------- *)

let fig6 ~full =
  section "Figure 6: variational regularization sweep on News";
  note
    "Quality (F1 of variational inference) and size of the approximate\n\
     graph across lambda: the factor count falls by an order of magnitude\n\
     as lambda grows while quality stays in the paper's 'safe region' —\n\
     at our scale the unary moment matching carries the singleton\n\
     marginals, so even aggressive pruning costs little F1.";
  let config = scale Systems.news ~full in
  let corpus = Corpus.generate config in
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db (Pipeline.full_program ()) in
  let g = Grounding.graph grounding in
  let rng = Prng.create 29 in
  let kernel = Compiled.compile g in
  Dd_inference.Learner.train_cd
    ~options:{ Dd_inference.Learner.default_cd with Dd_inference.Learner.epochs = 40 }
    ~kernel rng;
  let samples = Compiled.sample_worlds ~burn_in:30 rng kernel ~n:800 in
  let exactish = Compiled.marginals ~burn_in:30 rng kernel ~sweeps:400 in
  let reference = Grounding.marginals_by_relation grounding exactish in
  let table = Table.create [ "lambda"; "pairwise factors"; "F1"; "diff>0.05 vs full" ] in
  List.iter
    (fun lambda ->
      let approx, stats = Approx.materialize ~lambda rng g ~samples in
      let marginals = Compiled.marginals ~burn_in:30 rng (Compiled.compile approx) ~sweeps:400 in
      let f1 =
        (Quality.evaluate grounding marginals ~truth:corpus.Corpus.truth).Quality.f1
      in
      let agreement =
        Quality.compare_marginals
          (Grounding.marginals_by_relation grounding marginals)
          reference
      in
      Table.add_row table
        [
          Table.cell_f lambda;
          string_of_int stats.Approx.pairwise_factors;
          Table.cell_f f1;
          Table.cell_f agreement.Quality.frac_diff_gt;
        ])
    [ 0.001; 0.01; 0.1; 1.0; 10.0 ];
  Table.print table

(* --- Figure 7: corpus and factor graph statistics -------------------------- *)

let fig7 ~full =
  section "Figure 7: statistics of the five KBC systems (scaled-down synthetic)";
  let table = Table.create [ "system"; "docs"; "rels"; "rules"; "vars"; "factors"; "evidence" ] in
  List.iter
    (fun config ->
      let config = scale config ~full in
      let corpus = Corpus.generate config in
      let db = Database.create () in
      Corpus.load corpus db;
      let grounding = Grounding.ground db (Pipeline.full_program ()) in
      let stats = Grounding.stats grounding in
      Table.add_row table
        [
          config.Corpus.name;
          string_of_int config.Corpus.docs;
          string_of_int config.Corpus.relations;
          "6";
          string_of_int stats.Grounding.variables;
          string_of_int stats.Grounding.factors;
          string_of_int stats.Grounding.evidence;
        ])
    Systems.all;
  Table.print table

(* --- Figure 9: Rerun vs Incremental per rule, all systems ------------------- *)

let fig9 ~full =
  section "Figure 9: end-to-end Rerun vs Incremental (inference + learning seconds)";
  note "One row per rule template; x = speedup of Incremental over Rerun.";
  List.iter
    (fun config ->
      let config = scale config ~full in
      let corpus = Corpus.generate config in
      let result = Snapshots.run ~options:bench_options corpus in
      Printf.printf "\n%s (graph: %d vars, %d factors; materialization %.2fs)\n"
        config.Corpus.name result.Snapshots.graph_vars result.Snapshots.graph_factors
        result.Snapshots.materialization_seconds;
      let table =
        Table.create [ "rule"; "rerun(s)"; "inc(s)"; "x"; "strategy"; "accept"; "diff>0.05" ]
      in
      List.iter
        (fun (row : Snapshots.row) ->
          Table.add_row table
            [
              Pipeline.rule_id_to_string row.Snapshots.rule;
              Table.cell_f row.Snapshots.rerun_seconds;
              Table.cell_f row.Snapshots.incremental_seconds;
              Table.cell_x row.Snapshots.speedup;
              row.Snapshots.strategy;
              (match row.Snapshots.acceptance with Some a -> Table.cell_f a | None -> "-");
              Table.cell_f row.Snapshots.agreement.Quality.frac_diff_gt;
            ])
        result.Snapshots.rows;
      Table.print table)
    Systems.all

(* --- Figure 10(a): quality vs cumulative time ------------------------------- *)

let fig10a ~full =
  section "Figure 10(a): F1 vs cumulative execution time on News (Rerun vs Incremental)";
  let config = scale Systems.news ~full in
  let corpus = Corpus.generate config in
  let result = Snapshots.run ~options:bench_options corpus in
  let table =
    Table.create
      [ "after rule"; "inc cumulative(s)"; "inc F1"; "rerun cumulative(s)"; "rerun F1" ]
  in
  let inc = ref result.Snapshots.materialization_seconds and rerun = ref 0.0 in
  List.iter
    (fun (row : Snapshots.row) ->
      inc := !inc +. row.Snapshots.incremental_seconds +. row.Snapshots.grounding_seconds;
      rerun := !rerun +. row.Snapshots.rerun_seconds;
      Table.add_row table
        [
          Pipeline.rule_id_to_string row.Snapshots.rule;
          Table.cell_f !inc;
          Table.cell_f row.Snapshots.f1_incremental;
          Table.cell_f !rerun;
          Table.cell_f row.Snapshots.f1_rerun;
        ])
    result.Snapshots.rows;
  Table.print table;
  note "(Incremental cumulative time includes its one-time materialization.)"

(* --- Figure 11: lesion study of the optimizer -------------------------------- *)

let fig11 ~full =
  section "Figure 11: lesion study on News (inference+learning seconds per rule)";
  note
    "All = full optimizer; NoSampling / NoVariational disable one\n\
     materialization strategy; NoWorkloadInfo uses sampling until samples run\n\
     out and then switches, ignoring the update's nature.";
  (* Most sentences reuse an earlier pair, so I1, S1 and S2 couple query
     variables into components over the enumeration bound and the §3.2
     strategies answer them; on the preset's own rate every component is
     small and the engine's exact rule answers every update. *)
  let config = { (scale Systems.news ~full) with Corpus.pair_repeat = 0.8 } in
  let corpus = Corpus.generate config in
  let variants =
    [
      ("All", bench_options);
      ("NoSampling", { bench_options with Engine.disable_sampling = true });
      ("NoVariational", { bench_options with Engine.disable_variational = true });
      ("NoWorkloadInfo", { bench_options with Engine.workload_aware = false });
    ]
  in
  let results =
    List.map
      (fun (name, options) ->
        (name, Snapshots.run ~options ~skip_rerun:true corpus))
      variants
  in
  let table =
    Table.create
      ("rule" :: List.map fst results)
  in
  List.iteri
    (fun idx rule_id ->
      Table.add_row table
        (Pipeline.rule_id_to_string rule_id
        :: List.map
             (fun (_, result) ->
               let row = List.nth result.Snapshots.rows idx in
               Table.cell_f row.Snapshots.incremental_seconds)
             results))
    Pipeline.all_rule_ids;
  Table.print table;
  let strategies (name, result) =
    Printf.sprintf "%s: %s" name
      (String.concat "," (List.map (fun (r : Snapshots.row) -> r.Snapshots.strategy) result.Snapshots.rows))
  in
  note "Strategies used per rule:";
  List.iter (fun variant -> note "  %s" (strategies variant)) results

(* --- Figure 14: decomposition lesion ------------------------------------------ *)

let project_samples samples mapping sub_vars =
  Array.map
    (fun world ->
      Array.init sub_vars (fun _ -> false)
      |> fun out ->
      Array.iteri (fun orig sub -> if sub >= 0 then out.(sub) <- world.(orig)) mapping;
      out)
    samples

let fig14 ~full =
  section "Figure 14: decomposition with inactive variables (variational materialization)";
  note
    "Interest area = one relation; inactive variables decompose into\n\
     conditionally independent groups, each materialized separately.\n\
     NoDecomposition runs the variational approach on the whole graph.";
  let config = scale Systems.news ~full in
  let corpus = Corpus.generate config in
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db (Pipeline.full_program ()) in
  let g = Grounding.graph grounding in
  let rng = Prng.create 31 in
  (* Initial weights + shared samples (both variants start from these). *)
  let kernel = Compiled.compile g in
  Dd_inference.Learner.train_cd
    ~options:{ Dd_inference.Learner.default_cd with Dd_inference.Learner.epochs = 15 }
    ~kernel rng;
  let samples = Compiled.sample_worlds ~burn_in:30 rng kernel ~n:300 in
  (* Active variables: candidates of relation r0 (the analyst's focus). *)
  let active =
    List.filter_map
      (fun (tuple, var) ->
        match tuple.(0) with
        | Dd_relational.Value.Str "r0" -> Some var
        | _ -> None)
      (Grounding.vars_of_relation grounding Pipeline.query_relation)
  in
  let whole_seconds =
    time_median ~repeats:1 (fun () ->
        let approx, _ = Approx.materialize ~lambda:0.1 rng g ~samples in
        ignore (Compiled.marginals ~burn_in:10 rng (Compiled.compile approx) ~sweeps:100))
  in
  let groups = ref [] in
  let decomposed_seconds =
    time_median ~repeats:1 (fun () ->
        groups := Decompose.decompose g ~active;
        List.iter
          (fun group ->
            let sub, mapping = Decompose.group_subgraph g group in
            if Graph.num_vars sub > 1 then begin
              let sub_samples = project_samples samples mapping (Graph.num_vars sub) in
              let approx, _ = Approx.materialize ~lambda:0.1 rng sub ~samples:sub_samples in
              ignore (Compiled.marginals ~burn_in:10 rng (Compiled.compile approx) ~sweeps:100)
            end)
          !groups)
  in
  let table = Table.create [ "variant"; "groups"; "seconds" ] in
  Table.add_row table [ "All (decomposed)"; string_of_int (List.length !groups); Table.cell_f decomposed_seconds ];
  Table.add_row table [ "NoDecomposition"; "1"; Table.cell_f whole_seconds ];
  Table.print table;
  note "Whole-graph variables: %d; active (interest area): %d" (Graph.num_vars g)
    (List.length active)

(* --- Figure 15: samples materialized within a budget --------------------------- *)

let fig15 ~full =
  section "Figure 15: samples materialized within a fixed wall-clock budget";
  let budget = if full then 4.0 else 1.0 in
  note "Budget scaled from the paper's 8 hours to %.1fs per system." budget;
  let table = Table.create [ "system"; "vars"; "samples in budget" ] in
  List.iter
    (fun config ->
      let config = scale config ~full in
      let corpus = Corpus.generate config in
      let db = Database.create () in
      Corpus.load corpus db;
      let grounding = Grounding.ground db (Pipeline.full_program ()) in
      let g = Grounding.graph grounding in
      let rng = Prng.create 17 in
      let m = Budget_materialize.materialize rng g ~seconds:budget in
      Table.add_row table
        [
          config.Corpus.name;
          string_of_int (Graph.num_vars g);
          string_of_int (Array.length m.Materialize.samples);
        ])
    Systems.all;
  Table.print table

let () =
  register "fig6" "Figure 6: regularization sweep" fig6;
  register "fig7" "Figure 7: KBC system statistics" fig7;
  register "fig9" "Figure 9: Rerun vs Incremental" fig9;
  register "fig10a" "Figure 10(a): quality over time" fig10a;
  register "fig11" "Figure 11: optimizer lesion study" fig11;
  register "fig14" "Figure 14: decomposition lesion" fig14;
  register "fig15" "Figure 15: materialization budget" fig15
