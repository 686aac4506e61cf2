(* Ablation benches for design choices DESIGN.md calls out:

   - weight tying (Section 2.3): tied per-feature weights vs one weight per
     rule (the plain-MLN encoding);
   - the storage footprint of the materialized sample store. *)

open Harness
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Database = Dd_relational.Database
module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Learner = Dd_inference.Learner
module Prng = Dd_util.Prng
module Table = Dd_util.Table

(* --- weight tying --------------------------------------------------------- *)

(* Replace every Tied-with-key weight by Tied [] (a single learnable weight
   per rule) — the encoding a plain MLN forces ("in standard MLNs, this
   would require one rule for each feature"). *)
let untie rule =
  match rule with
  | Program.Infer r -> (
    match r.Program.weight with
    | Program.Tied (_ :: _) -> Program.Infer { r with Program.weight = Program.Tied [] }
    | Program.Tied [] | Program.Fixed _ -> rule)
  | Program.Deterministic _ | Program.Supervise _ -> rule

let f1_of_program corpus program =
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db program in
  let g = Grounding.graph grounding in
  let rng = Prng.create 61 in
  let kernel = Compiled.compile g in
  Learner.train_cd ~options:{ Learner.default_cd with Learner.epochs = 40 } ~kernel rng;
  let marginals = Compiled.marginals ~burn_in:30 rng kernel ~sweeps:400 in
  ( (Quality.evaluate grounding marginals ~truth:corpus.Corpus.truth).Quality.f1,
    (Grounding.stats grounding).Grounding.weights )

let ablation_tying ~full =
  section "Ablation: weight tying vs one-weight-per-rule (plain MLN encoding)";
  note
    "Tied weights give the classifier one parameter per feature value; the\n\
     untied variant collapses each rule to a single weight, which cannot\n\
     separate indicative from noisy phrases.";
  let table = Table.create [ "system"; "tied F1"; "tied #weights"; "untied F1"; "untied #weights" ] in
  let systems = if full then Systems.all else [ Systems.news; Systems.genomics ] in
  List.iter
    (fun config ->
      let config = { config with Corpus.docs = config.Corpus.docs * 2 } in
      let corpus = Corpus.generate config in
      let tied_program = Pipeline.full_program () in
      let untied_program =
        { tied_program with Program.rules = List.map untie tied_program.Program.rules }
      in
      let tied_f1, tied_weights = f1_of_program corpus tied_program in
      let untied_f1, untied_weights = f1_of_program corpus untied_program in
      Table.add_row table
        [
          config.Corpus.name;
          Table.cell_f tied_f1;
          string_of_int tied_weights;
          Table.cell_f untied_f1;
          string_of_int untied_weights;
        ])
    systems;
  Table.print table

(* --- sample storage footprint (Section 3.2.2) -------------------------------- *)

let storage ~full =
  section "Storage: 100 bit-packed samples vs the factor graph (Section 3.2.2)";
  note
    "\"A single sample for one random variable only requires 1 bit of\n\
     storage ... 100 samples require less than 5%% of the space of the\n\
     original factor graph.\"  Sizes in bytes of the serialized graph vs\n\
     100 MCDB-style tuple bundles.";
  let table = Table.create [ "system"; "graph bytes"; "100 samples bytes"; "ratio" ] in
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
      let graph_bytes = String.length (Dd_oracle.Serialize.to_string g) in
      let samples_bytes = 100 * Dd_util.Bitvec.byte_size (Dd_util.Bitvec.create (Graph.num_vars g)) in
      Table.add_row table
        [
          config.Corpus.name;
          string_of_int graph_bytes;
          string_of_int samples_bytes;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int samples_bytes /. float_of_int graph_bytes);
        ])
    Systems.all;
  Table.print table

let () =
  register "ablation_tying" "Ablation: weight tying" ablation_tying;
  register "storage" "Sample-storage footprint" storage
