(* Semantics experiments: extraction quality per counting semantics
   (Figure 10b) and Gibbs convergence speed on the voting program
   (Figures 12/13 and Appendix A). *)

open Harness
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Semantics = Dd_fgraph.Semantics
module Voting = Dd_fgraph.Voting
module Compiled = Dd_inference.Compiled
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Database = Dd_relational.Database
module Learner = Dd_inference.Learner
module Prng = Dd_util.Prng
module Table = Dd_util.Table

(* --- Figure 10(b): quality of the three semantics ------------------------------ *)

let f1_with_semantics config semantics =
  let corpus = Corpus.generate config in
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db (Pipeline.full_program ~semantics ()) in
  let g = Grounding.graph grounding in
  let rng = Prng.create 23 in
  let kernel = Compiled.compile g in
  Learner.train_cd ~options:{ Learner.default_cd with Learner.epochs = 30 } ~kernel rng;
  let marginals = Compiled.marginals ~burn_in:30 rng kernel ~sweeps:300 in
  (Quality.evaluate grounding marginals ~truth:corpus.Corpus.truth).Quality.f1

let fig10b ~full =
  section "Figure 10(b): extraction quality (F1) per counting semantics";
  note
    "Logical and Ratio semantics dampen repeated noisy groundings; Linear\n\
     is competitive only where raw counts carry signal.";
  let table = Table.create [ "system"; "linear"; "logical"; "ratio" ] in
  List.iter
    (fun config ->
      let config = if full then { config with Corpus.docs = config.Corpus.docs * 2 } else config in
      let scores = List.map (fun s -> f1_with_semantics config s) [ Semantics.Linear; Semantics.Logical; Semantics.Ratio ] in
      Table.add_row table (config.Corpus.name :: List.map Table.cell_f scores))
    Systems.all;
  Table.print table

(* --- Figure 13: Gibbs convergence on the voting program ------------------------- *)

let fig13 ~full =
  section "Figure 13: Gibbs sweeps to reach the exact marginal (voting program)";
  note
    "Sweeps until the running estimate of P(q) stays within 1%% of the\n\
     closed-form marginal.  Linear semantics mixes exponentially slowly as\n\
     votes grow; Logical and Ratio stay near-linear (Appendix A bounds).";
  let sizes = if full then [ 10; 100; 1000; 10000 ] else [ 10; 100; 1000 ] in
  let max_sweeps = if full then 200_000 else 60_000 in
  let table = Table.create [ "|U|+|D|"; "linear"; "logical"; "ratio" ] in
  List.iter
    (fun total ->
      let half = total / 2 in
      let sweeps_for semantics =
        (* Linear provably mixes in exponential time (Figure 12); cap its
           budget so the sweep over sizes stays affordable. *)
        let max_sweeps =
          if semantics = Semantics.Linear && total > 10 then max_sweeps / 4 else max_sweeps
        in
        let cfg =
          { Voting.default with Voting.n_up = half; n_down = half; rule_weight = 1.0; semantics }
        in
        let exact = Voting.exact_marginal_q cfg in
        let graph, q, _, _ = Voting.build cfg in
        match
          Compiled.sweeps_to_converge ~tolerance:0.01 ~max_sweeps
            (Prng.create (41 + total)) (Compiled.compile graph) ~target_var:q ~target_prob:exact
        with
        | Some sweeps -> string_of_int sweeps
        | None -> Printf.sprintf ">%d" max_sweeps
      in
      Table.add_row table
        [
          string_of_int total;
          sweeps_for Semantics.Linear;
          sweeps_for Semantics.Logical;
          sweeps_for Semantics.Ratio;
        ])
    sizes;
  Table.print table;
  note
    "(The linear column saturates quickly: with n up-votes the distribution\n\
     is so sharply peaked that the chain commits to one mode immediately —\n\
     near-instant 'convergence' to a degenerate marginal near 1 — while at\n\
     small n it must actually mix between modes.)"

let () =
  register "fig10b" "Figure 10(b): semantics quality" fig10b;
  register "fig13" "Figure 13: voting convergence" fig13
