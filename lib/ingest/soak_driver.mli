(** The full ingest→txn→checkpoint loop as a {!Dd_kbc.Soak.pipeline},
    built the way {!Dd_kbc.Soak.kbc_pipeline} is.

    Each pipeline step commits one pre-batched slice (at most 8 documents)
    of a deterministic document stream through {!Feed.ingest}; every
    second step publishes the feed state (sentence counter +
    canonicalizer) as a blob stamped with the engine's commit count, then
    a {!Dd_kbc.Checkpoint.save}, which appends the committed batches to
    the WAL.  Steps map to commits one to one: a batch the supervisor
    quarantines fails the schedule.  Recovery refuses to combine an
    engine with feed state from a different commit count — on a mismatch,
    or when nothing was published or every version was quarantined, it
    redrives the whole stream from scratch, which is deterministic and
    converges to the same state; any other recovery error raises.

    Engine faults inside an update are absorbed deterministically by
    {!Dd_core.Txn.apply}'s retry ladder and never reach the durability
    path this harness exists to break. *)

module Engine = Dd_core.Engine
module Txn = Dd_core.Txn

val pipeline :
  ?options:Engine.options ->
  ?attach:(Txn.t -> unit) ->
  ?verify_snapshot:(unit -> (unit, string) result) ->
  dir:string ->
  Source.t ->
  Dd_kbc.Soak.pipeline
(** Build the soakable pipeline over [source]'s full stream (consumed
    eagerly into batches) and a checkpoint store at [dir] (two versions
    kept).  [attach] is called with the live transactional supervisor
    after every reset and every recovery — the hook for rebuilding a
    serving layer on top; pair it with [verify_snapshot] so the scrub
    checks what that layer currently serves. *)
