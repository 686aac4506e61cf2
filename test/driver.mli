(** Concurrent serving driver: readers query while the writer commits.

    [run] wires the whole serving stack together: a {!Dd_core.Txn}
    supervisor over the given engine, a {!Server} subscribed to it, a
    writer domain pushing a {!Dd_kbc.Pipeline} snapshot sequence through
    the supervisor, and [readers] domains hammering the server the whole
    time.  Each reader records the epochs it observed (they must be
    monotone), runs cheap cross-query consistency probes on every pinned
    read, and a full {!Dd_serve.Snapshot.verify} every [verify_every]
    reads — the torn-snapshot detector the stress tests assert on.

    [run] is the harness behind the serving stress tests in
    [test_serve]: arm a {!Dd_util.Fault} point, drive, assert no reader
    ever saw an inconsistent snapshot. *)

module Txn = Dd_core.Txn
module Pipeline = Dd_kbc.Pipeline
module Server = Dd_serve.Server

type reader_report = {
  reads : int;
  min_epoch : int;
  max_epoch : int;
  distinct_epochs : int;  (** number of epoch transitions observed *)
  monotone : bool;  (** epochs never went backwards *)
  verifies : int;  (** full {!Dd_serve.Snapshot.verify} audits run *)
  verify_failures : string list;  (** must be [[]]; any entry is a torn read *)
}

type step = {
  step_rule : Pipeline.rule_id;
  step_result : (Txn.outcome, Txn.error) result;
}

type report = {
  steps : step list;  (** per-update outcomes, in order *)
  readers : reader_report array;
  health : Server.health;  (** health surface after the stream drained *)
  final_identical : bool;
      (** served marginals bit-identical to the live engine's at the end *)
  elapsed_s : float;
}

val run :
  ?readers:int ->
  ?verify_every:int ->
  ?bins:int ->
  ?truth:Dd_kbc.Corpus.fact list ->
  ?semantics:Dd_fgraph.Semantics.t ->
  ?txn_options:Txn.options ->
  ?pace_s:float ->
  ?on_step:(step -> unit) ->
  Dd_core.Engine.t ->
  Pipeline.rule_id list ->
  Txn.t * Server.t * report
(** Drive [rule_ids] through a fresh supervisor while [readers] (default
    2, minimum 1) reader domains query concurrently; returns once the
    stream has drained and every reader has taken a final post-drive
    read.  [verify_every] sets the full-audit cadence (0 disables; default
    64).  [pace_s] sleeps after each committed step — the update-cadence
    knob for staleness measurements.  [on_step] runs on the writer domain
    after each step.  The supervisor and server are returned alongside
    the report for further inspection (dead letters, extra queries). *)
