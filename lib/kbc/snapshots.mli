(** The six-snapshot development-loop experiment (Section 4.2).

    For one corpus, run the rule sequence A1, FE1, FE2, I1, S1, S2 twice:
    Incremental applies each rule as an update to a live engine (one
    materialization up front, amortized across the sequence); Rerun
    re-grounds, re-learns and re-infers the whole program from scratch at
    every step through {!Engine.rerun_grounding}, with the same options
    and sampler as the incremental side.  Each row reports wall-clock, strategy, acceptance rate, F1
    against the hidden KB, and the marginal agreement between the two
    systems. *)

module Engine = Dd_core.Engine

type row = {
  rule : Pipeline.rule_id;
  rerun_seconds : float;
  incremental_seconds : float;  (** learning + inference (post-grounding) *)
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

val run :
  ?options:Engine.options ->
  ?semantics:Dd_fgraph.Semantics.t ->
  ?skip_rerun:bool ->
  Corpus.t ->
  result
(** [skip_rerun] (default false) omits the Rerun baseline (rows then carry
    zeros for its fields) — used by lesion studies that only need the
    incremental side. *)
