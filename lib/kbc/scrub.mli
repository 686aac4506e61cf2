(** Background integrity scrub with a self-healing repair ladder.

    A production KBC loop runs for months; checksums only help if
    something re-reads them before recovery needs them.  {!run} walks
    every durable artifact in a {!Checkpoint} store — checkpoint
    versions, sidecar blobs, the dead-letter queue — plus the live
    tables' column stores and (through a caller-supplied verifier) the
    published serving snapshot, re-verifies everything, and climbs a
    repair ladder per damaged artifact:

    - a corrupt checkpoint version is quarantined ([.quarantined]
      suffix) and, when the live engine is available, a fresh base is
      re-published to restore the retention window;
    - a corrupt sidecar blob is rewritten from live subsystem state
      ([reblob]) when possible, else quarantined;
    - a corrupt table is healed in place
      ({!Dd_relational.Column_store.repair}, derived planes only) when
      the damage is confined to a derived plane; content damage is
      reported in [unrepaired] — the caller's cue to reground from
      scratch.  A successful repair marks the engine as needing a base
      ({!Engine.require_base}), since no WAL replay reproduces it; an
      unrepaired table does not, so saves keep appending to the base
      written before the damage.

    A scrub never deletes anything and never serves damaged state.
    Drive it on a {!cadence} from the update loop; surface the counters
    through [Server.health]. *)

module Engine = Dd_core.Engine

type report = {
  versions_ok : int;
  versions_quarantined : int;
  blobs_ok : int;
  blobs_rewritten : int;  (** re-encoded from live state via [reblob] *)
  blobs_quarantined : int;
  dead_letters_quarantined : bool;
  tables_ok : int;
  tables_repaired : int;  (** healed in place by [Column_store.repair] *)
  unrepaired : string list;  (** table names needing scratch regrounding *)
  snapshot_ok : bool option;  (** [None] when no verifier was supplied *)
  republished : bool;  (** a fresh base was saved to restore redundancy *)
}

val clean : report
(** The all-zero report (nothing scanned, nothing found). *)

val damage_found : report -> int
(** Number of damaged artifacts this scrub encountered (repaired or
    not). *)

val healthy : report -> bool
(** True when nothing is left in a damaged, unservable state: no
    unrepaired table and no failing snapshot.  Quarantined/rewritten
    artifacts count as healthy — the damage is contained. *)

val run :
  ?engine:Engine.t ->
  ?reblob:(string -> string option) ->
  ?verify_snapshot:(unit -> (unit, string) result) ->
  Checkpoint.t ->
  report
(** One full scrub pass over [store].  [engine] enables the live-table
    scan and the redundancy re-publish; [reblob] maps a blob name to
    freshly re-encoded subsystem state; [verify_snapshot] checks the
    currently served snapshot (e.g. [Server.read srv Snapshot.verify]). *)

(** {2 Cadence} *)

type cadence

val cadence : int -> cadence
(** [cadence n] is due every [n]-th {!due} call (n ≥ 1). *)

val due : cadence -> bool
(** Tick once (one update applied); [true] when a scrub is due. *)

val pp : Format.formatter -> report -> unit
