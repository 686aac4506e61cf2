(** Crash–recover–compare harness for the Fig-KBC pipeline.

    Runs the six-snapshot update sequence through a {!Checkpoint} store,
    kills it at an armed {!Dd_util.Fault} point, recovers from disk, and
    checks the recovered run's final marginals against an uninterrupted
    run with the same seed.  Determinism (the checkpoint snapshot carries
    the engine PRNG) makes the expected agreement exact: high-confidence
    Jaccard 1.0 and zero max difference. *)

module Engine = Dd_core.Engine
module Tuple = Dd_relational.Tuple

val run :
  ?options:Engine.options ->
  ?semantics:Dd_fgraph.Semantics.t ->
  ?checkpoint_every:int ->
  dir:string ->
  Corpus.t ->
  Engine.t
(** Materialize the base program, then apply all of
    {!Pipeline.all_rule_ids}: the first half through
    {!Checkpoint.apply_update}, the rest in memory after a
    rematerialization, with a {!Checkpoint.save} every [checkpoint_every]
    (default 2) updates — so the run writes WAL entries ahead of
    updates, a base, and a multi-entry append. *)

type baseline = {
  marginals : (string * Tuple.t * float) list;
  exercised : (string * int) list;
      (** every fault point the pipeline hit, with its hit count *)
}

val baseline :
  ?options:Engine.options ->
  ?semantics:Dd_fgraph.Semantics.t ->
  ?checkpoint_every:int ->
  dir:string ->
  Corpus.t ->
  baseline
(** Uninterrupted reference run ({!Dd_util.Fault.reset} first); doubles as
    fault-point discovery for {!sweep}. *)

type outcome = {
  point : string;
  trigger : int;  (** the armed Nth position *)
  crashed : bool;  (** false when the trigger lies beyond the run's hits *)
  latent : bool;
      (** the fault fired without killing the run (silent damage: bit
          flip, dropped fsync); the harness then forced a power cut
          ({!Dd_util.Fault_file.crash_lose_volatile}) and recovered *)
  recovered_from : string option;
      (** checkpoint the store recovered from; [None] means the crash
          predated the first publish and the run was redone from scratch *)
  replayed_to : int;  (** updates absorbed at the moment recovery finished *)
  agreement : Quality.agreement;
}

val crash_recover_compare :
  ?options:Engine.options ->
  ?semantics:Dd_fgraph.Semantics.t ->
  ?checkpoint_every:int ->
  dir:string ->
  point:string ->
  trigger:int ->
  reference:(string * Tuple.t * float) list ->
  Corpus.t ->
  outcome
(** Arm [point] to fail on its [trigger]-th hit, run, treat the escaping
    injection as a process death, recover, finish the update sequence,
    and compare final marginals against [reference].  Faults that fire
    without raising (bit flips, dropped fsyncs) get a forced power cut
    instead, and the outcome carries [latent = true].  When every
    published version proves unloadable, the damaged files are
    quarantined and the run is redone deterministically from scratch. *)

val sweep :
  ?options:Engine.options ->
  ?semantics:Dd_fgraph.Semantics.t ->
  ?checkpoint_every:int ->
  dir:string ->
  Corpus.t ->
  baseline * outcome list
(** Baseline run, then one crash–recover–compare per exercised fault
    point, each triggered mid-run (hit count / 2 + 1). *)
