module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Program = Dd_core.Program
module Database = Dd_relational.Database
module Timer = Dd_util.Timer

type row = {
  rule : Pipeline.rule_id;
  rerun_seconds : float;
  incremental_seconds : float;
  grounding_seconds : float;
  speedup : float;
  strategy : string;
  acceptance : float option;
  f1_incremental : float;
  f1_rerun : float;
  agreement : Quality.agreement;
}

type result = {
  rows : row list;
  materialization_seconds : float;
  corpus_line : string;
  graph_vars : int;
  graph_factors : int;
}

let run ?(options = Engine.default_options) ?semantics ?(skip_rerun = false) corpus =
  let db = Database.create () in
  Corpus.load corpus db;
  let base = Pipeline.base_program ?semantics () in
  let mat_timer = Timer.start () in
  let engine = Engine.create ~options db base in
  let materialization_seconds = Timer.elapsed_s mat_timer in
  (* Rerun's database evolves the same way; it re-creates everything from
     the same inputs at every snapshot. *)
  let rules_so_far = ref [] in
  let rows =
    List.map
      (fun rule_id ->
        let update = Pipeline.update_of ?semantics rule_id in
        rules_so_far := !rules_so_far @ update.Grounding.new_rules;
        let report = Engine.apply_update engine update in
        let incremental_seconds = report.Engine.learning_seconds +. report.Engine.inference_seconds in
        let f1_incremental =
          (Quality.evaluate (Engine.grounding engine) report.Engine.marginals
             ~truth:corpus.Corpus.truth)
            .Quality.f1
        in
        let rerun_seconds, f1_rerun, agreement =
          if skip_rerun then
            (0.0, 0.0, { Quality.high_conf_jaccard = 1.0; frac_diff_gt = 0.0; max_diff = 0.0 })
          else begin
            let rerun_db = Database.create () in
            Corpus.load corpus rerun_db;
            let rerun_prog = Program.add_rules (Pipeline.base_program ?semantics ()) !rules_so_far in
            let timer = Timer.start () in
            let rerun_grounding, rerun_marginals = Engine.rerun_grounding options rerun_db rerun_prog in
            let seconds = Timer.elapsed_s timer in
            let f1 =
              (Quality.evaluate rerun_grounding rerun_marginals ~truth:corpus.Corpus.truth)
                .Quality.f1
            in
            let agreement =
              Quality.compare_marginals
                (Grounding.marginals_by_relation (Engine.grounding engine)
                   report.Engine.marginals)
                (Grounding.marginals_by_relation rerun_grounding rerun_marginals)
            in
            (seconds, f1, agreement)
          end
        in
        {
          rule = rule_id;
          rerun_seconds;
          incremental_seconds;
          grounding_seconds = report.Engine.grounding_seconds;
          speedup =
            (if incremental_seconds > 0.0 then rerun_seconds /. incremental_seconds else 0.0);
          strategy = Engine.strategy_used_to_string report.Engine.strategy;
          acceptance = report.Engine.acceptance_rate;
          f1_incremental;
          f1_rerun;
          agreement;
        })
      Pipeline.all_rule_ids
  in
  let stats = Grounding.stats (Engine.grounding engine) in
  {
    rows;
    materialization_seconds;
    corpus_line = Corpus.statistics corpus;
    graph_vars = stats.Grounding.variables;
    graph_factors = stats.Grounding.factors;
  }
