(* The deepdive CLI: parse a DDlog program, ground it over CSV base tables,
   learn weights, run inference and report marginal probabilities — the
   outer loop of Figure 1 driven from a shell. *)

module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Engine = Dd_core.Engine
module Database = Dd_relational.Database
module Csv = Dd_relational.Csv
module Tuple = Dd_relational.Tuple
open Cmdliner

let read_program path =
  match Dd_ddlog.Parser.parse_file path with
  | Ok prog -> prog
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 1

let load_data db (prog : Program.t) data_dir =
  List.iter
    (fun (name, schema) ->
      let rel =
        match Database.find_opt db name with
        | Some r -> r
        | None -> Database.create_table db name schema
      in
      let path = Filename.concat data_dir (name ^ ".csv") in
      if Sys.file_exists path then begin
        let rows = Csv.load_file rel path in
        Printf.printf "loaded %s: %d rows\n" name rows
      end)
    prog.Program.input_schemas

(* --- check ----------------------------------------------------------------- *)

let check_cmd =
  let program_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"DDlog program file")
  in
  let run program =
    let prog = read_program program in
    let n_det, n_sup, n_inf =
      List.fold_left
        (fun (d, s, i) -> function
          | Program.Deterministic _ -> (d + 1, s, i)
          | Program.Supervise _ -> (d, s + 1, i)
          | Program.Infer _ -> (d, s, i + 1))
        (0, 0, 0) prog.Program.rules
    in
    Printf.printf "%s: ok\n" program;
    Printf.printf "  input relations: %d\n" (List.length prog.Program.input_schemas);
    Printf.printf "  query relations: %s\n"
      (String.concat ", " (List.map fst prog.Program.query_relations));
    Printf.printf "  rules: %d deterministic, %d supervision, %d inference\n" n_det n_sup n_inf
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a DDlog program")
    Term.(const run $ program_arg)

(* --- run ------------------------------------------------------------------- *)

let run_cmd =
  let program_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"DDlog program file")
  in
  let data_arg =
    Arg.(
      required
      & opt (some dir) None
      & info [ "data" ] ~docv:"DIR" ~doc:"Directory of <table>.csv files for input relations")
  in
  let sweeps_arg =
    Arg.(value & opt int 200 & info [ "sweeps" ] ~doc:"Gibbs sweeps for inference")
  in
  let epochs_arg =
    Arg.(value & opt int 30 & info [ "learn" ] ~doc:"Weight-learning epochs")
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~doc:"Print the top K extractions per relation")
  in
  let threshold_arg =
    Arg.(value & opt float 0.0 & info [ "threshold" ] ~doc:"Only print facts above this probability")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed") in
  let run program data sweeps epochs top threshold seed =
    let prog = read_program program in
    let db = Database.create () in
    load_data db prog data;
    let options =
      {
        Engine.default_options with
        Engine.inference_chain = sweeps;
        initial_learning_epochs = epochs;
        seed;
        disable_variational = true;
      }
    in
    let engine = Engine.create ~options db prog in
    let stats = Grounding.stats (Engine.grounding engine) in
    Printf.printf "grounded: %d variables, %d factors, %d weights, %d evidence\n"
      stats.Grounding.variables stats.Grounding.factors stats.Grounding.weights
      stats.Grounding.evidence;
    let rng = Dd_util.Prng.create seed in
    let marginals =
      Dd_inference.Compiled.(marginals ~burn_in:20 rng (compile (Engine.graph engine)) ~sweeps)
    in
    let by_rel = Grounding.marginals_by_relation (Engine.grounding engine) marginals in
    List.iter
      (fun (rel, _) ->
        Printf.printf "\n%s (top %d):\n" rel top;
        let rows =
          List.filter (fun (r, _, p) -> r = rel && p >= threshold) by_rel
          |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
        in
        List.iteri
          (fun idx (_, tuple, p) ->
            if idx < top then Printf.printf "  %.3f  %s\n" p (Tuple.to_string tuple))
          rows)
      prog.Program.query_relations
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Ground, learn and infer a DDlog program over CSV data")
    Term.(
      const run $ program_arg $ data_arg $ sweeps_arg $ epochs_arg $ top_arg $ threshold_arg
      $ seed_arg)

(* --- demo ------------------------------------------------------------------ *)

let demo_cmd =
  let docs_arg = Arg.(value & opt int 60 & info [ "docs" ] ~doc:"Synthetic documents") in
  let analyze_arg =
    Arg.(value & flag & info [ "analyze" ] ~doc:"Print error analysis and calibration reports")
  in
  let run docs analyze =
    let corpus =
      Dd_kbc.Corpus.generate { Dd_kbc.Systems.news with Dd_kbc.Corpus.docs; name = "Demo" }
    in
    print_endline (Dd_kbc.Corpus.statistics corpus);
    let result = Dd_kbc.Snapshots.run corpus in
    Printf.printf "graph: %d variables, %d factors; materialization %.2fs\n\n"
      result.Dd_kbc.Snapshots.graph_vars result.Dd_kbc.Snapshots.graph_factors
      result.Dd_kbc.Snapshots.materialization_seconds;
    let table =
      Dd_util.Table.create
        [ "rule"; "rerun(s)"; "incremental(s)"; "speedup"; "strategy"; "F1 inc"; "F1 rerun" ]
    in
    List.iter
      (fun (row : Dd_kbc.Snapshots.row) ->
        Dd_util.Table.add_row table
          [
            Dd_kbc.Pipeline.rule_id_to_string row.Dd_kbc.Snapshots.rule;
            Dd_util.Table.cell_f row.Dd_kbc.Snapshots.rerun_seconds;
            Dd_util.Table.cell_f row.Dd_kbc.Snapshots.incremental_seconds;
            Dd_util.Table.cell_x row.Dd_kbc.Snapshots.speedup;
            row.Dd_kbc.Snapshots.strategy;
            Dd_util.Table.cell_f row.Dd_kbc.Snapshots.f1_incremental;
            Dd_util.Table.cell_f row.Dd_kbc.Snapshots.f1_rerun;
          ])
      result.Dd_kbc.Snapshots.rows;
    Dd_util.Table.print table;
    if analyze then begin
      (* Re-run the final program once to get a grounding plus marginals for
         the error-analysis and calibration reports. *)
      print_endline "\n--- Error analysis (Section 2.2) ---";
      let db = Database.create () in
      Dd_kbc.Corpus.load corpus db;
      let grounding = Grounding.ground db (Dd_kbc.Pipeline.full_program ()) in
      let rng = Dd_util.Prng.create 5 in
      let kernel = Dd_inference.Compiled.compile (Grounding.graph grounding) in
      Dd_inference.Learner.train_cd
        ~options:{ Dd_inference.Learner.default_cd with Dd_inference.Learner.epochs = 40 }
        ~kernel rng;
      let marginals = Dd_inference.Compiled.marginals ~burn_in:40 rng kernel ~sweeps:500 in
      Dd_kbc.Analysis.print
        (Dd_kbc.Analysis.analyze grounding marginals ~truth:corpus.Dd_kbc.Corpus.truth);
      print_endline "\n--- Calibration ---";
      let report =
        Dd_kbc.Calibration.evaluate grounding marginals ~truth:corpus.Dd_kbc.Corpus.truth
      in
      Dd_util.Table.print (Dd_kbc.Calibration.to_table report);
      Printf.printf "Expected calibration error: %.3f over %d predictions\n"
        report.Dd_kbc.Calibration.expected_calibration_error report.Dd_kbc.Calibration.total
    end
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Run the six-snapshot incremental development demo on a synthetic corpus")
    Term.(const run $ docs_arg $ analyze_arg)

let () =
  let info = Cmd.info "deepdive" ~version:"1.0.0" ~doc:"Incremental knowledge base construction" in
  exit (Cmd.eval (Cmd.group info [ check_cmd; run_cmd; demo_cmd ]))
