(** Crash-safe checkpoint/recovery for the incremental KBC loop.

    The whole value of incremental materialization is that each iteration
    of the develop–evaluate loop is cheap; a crash mid-update must not
    force a full Rerun.  This module makes the engine restartable:

    - {!save} appends the updates the engine committed since the last
      save to a write-ahead log, and on a bounded cadence publishes a
      versioned base of the full engine state instead (the factor graph
      in auditable ddgraph v2 text, plus a marshalled snapshot covering
      learned weights, the materialization, the database and the
      applied-rule list, each in a length- and CRC-checked
      {!Dd_util.Record} frame) atomically via temp-file + rename; a
      [MANIFEST] names the latest valid base.
    - {!recover} loads the manifest checkpoint, verifies every checksum,
      runs {!Dd_fgraph.Graph.validate} plus a relational schema check,
      replays the WAL through the ordinary update path (deterministic —
      the snapshot includes the PRNG state), and re-publishes.

    An engine commits updates through {!Dd_core.Engine.apply_update} (or
    a {!Dd_core.Txn} supervisor) and a later {!save} logs them; that is
    the only way into the WAL.  The store numbers everything by the
    engine's commit count ({!Dd_core.Engine.commits}): a base [ckpt-<n>]
    holds the engine after its [n]-th commit and WAL entry [n] is commit
    [n].  Crash sites in this module ({!fault_points}) and in the engine are instrumented with
    {!Dd_util.Fault} points; {!Soak} is the crash harness built on top. *)

module Engine = Dd_core.Engine

type error =
  | No_checkpoint  (** the store has no published manifest *)
  | Corrupt of string  (** bad magic, failed checksum, torn structure *)
  | Invalid_state of string
      (** checksums fine, semantic validation (graph/schema) failed *)

val error_to_string : error -> string

type t
(** A checkpoint store rooted at one directory. *)

val open_store : ?keep_versions:int -> ?fsync:bool -> string -> t
(** Create (or reattach to) a store directory.  Does not read anything:
    call {!recover} to load published state, or {!save} to publish.
    [keep_versions] (default 2, must be ≥ 1) is how many checkpoint/WAL
    version pairs {!save} retains — older versions are what {!recover}
    falls back to when the newest is damaged.  [fsync] (default [true])
    controls whether publishes fsync data and directories; turn it off
    only to measure what durability costs. *)

val save : t -> Engine.t -> unit
(** Make the engine's current state durable.  When [save] returns, a
    {!recover} of the store reproduces the engine as it was, bit for bit.

    Usually a save {e appends}: the updates the engine committed since
    the last save ({!Dd_core.Engine.committed_log}) go to the current WAL
    as consecutive entries, in one write and one fsync.  An engine that
    committed nothing appends nothing and writes nothing.  A torn append (crash point
    ["checkpoint.save.mid_append"]) recovers to a committed prefix.

    A save writes a full {e base} instead — a new [ckpt-<n>] with a fresh,
    empty WAL — when any of these holds:
    - the engine needs a base (it was just created, rematerialized,
      repaired by scrub, half-applied an update, or committed more
      updates than its log holds);
    - the engine is not the one this store last based, or its log does
      not continue where the WAL ends;
    - the current base or its WAL was quarantined, or an append failed;
    - the WAL would pass 32 entries ([max_wal_entries]) or half the
      base's bytes.

    A base absorbs the engine's log.  Its WAL header records whether it
    continues the chain: it ends it when the engine needed a base (first
    bullet), keeps the flag of the durable state when written again at
    its sequence, and continues it otherwise.  Its ordering (fresh
    WAL, then fsynced checkpoint rename, then manifest switch — all via
    {!Dd_util.Fault_file}) guarantees that a crash at any instant leaves
    the previously published checkpoint authoritative. *)

type save = Base | Append of int  (** entries appended, possibly 0 *)

val last_save : t -> save option
(** What the store's most recent successful {!save} did. *)

val fault_points : string list
(** This module's crash points: ["checkpoint.save.pre_rename"] and
    ["checkpoint.save.pre_manifest"] inside a base's publish, and
    ["checkpoint.save.mid_append"], which writes half an append and
    dies. *)

val max_wal_entries : int
(** The WAL entry cap above (32). *)

type wal_usage = { entries : int; bytes : int; base_bytes : int }

val wal_usage : t -> wal_usage
(** Entries and framed bytes appended to the current WAL since its base,
    and the base's size in bytes; zeros before the first base. *)

val applied : t -> int
(** The engine commit count the durable state holds: after a {!save} or
    {!recover}, that engine's {!Dd_core.Engine.commits}. *)

val recover : t -> (Engine.t * int, error) result
(** Load the newest checkpoint version that passes every checksum and
    validation — quarantining damaged checkpoint files on the way down
    ([.quarantined] suffix; never deleted) — then chain-replay the WALs
    forward from it, through the WAL of any damaged newer version whose
    base continues the chain (one that ends it is quarantined with its
    base), and return the rebuilt engine with its commit count.  A save
    appends at most {!max_wal_entries} entries to a base's WAL, which
    bounds the replay.  Torn WAL tail entries are discarded.  On success
    a fresh base is published.  [Error No_checkpoint] means the store
    holds no version at all; [Error (Corrupt _)] that versions exist but
    none was loadable.  A version whose sequence is not its engine's
    commit count fails validation ([Invalid_state]). *)

val versions : t -> int list
(** Checkpoint version sequences present on disk, newest first
    (quarantined files excluded). *)

val verify_version : t -> int -> (unit, error) result
(** Fully re-verify one on-disk version (every checksum, graph/schema
    validation) without touching the store's state. *)

val quarantine_version : t -> int -> unit
(** Rename a version's checkpoint and WAL files to [*.quarantined] so
    they are preserved for forensics but never loaded or served. *)

val quarantined_files : t -> string list
(** Names of quarantined files in the store, sorted. *)

val save_dead_letters : t -> Dd_core.Txn.dead_letter list -> unit
(** Atomically publish the supervisor's quarantine queue (oldest first, as
    {!Dd_core.Txn.dead_letters} returns it) to a [DEADLETTERS] file in the
    store: one {!Dd_util.Record} frame over the whole queue, so every
    letter's sequence number, attempt count and error sit under the same
    CRC as its replayable {!Dd_core.Txn.encode_update} payload.  Call
    with [[]] to clear. *)

val load_dead_letters : t -> (Dd_core.Txn.dead_letter list, error) result
(** Read back the persisted quarantine queue, oldest first ([Ok []] when
    none was ever saved).  The file's frame and every payload's frame are
    verified; feed the result to {!Dd_core.Txn.restore_dead_letters} after
    {!recover}, then replay with {!Dd_core.Txn.replay}. *)

val save_blob : t -> name:string -> string -> unit
(** Atomically publish a named sidecar state blob ([BLOB_<name>], one
    {!Dd_util.Record} frame) next to the checkpoints — for subsystem state that must travel
    with the engine snapshot, e.g. the ingestion feed's canonicalizer
    ({!Dd_ingest.Feed.encode_state}).  [name] must be non-empty
    [[A-Za-z0-9_-]]; raises [Invalid_argument] otherwise. *)

val load_blob : t -> name:string -> (string option, error) result
(** Read back a sidecar blob: [Ok None] when never saved, [Ok (Some s)]
    byte-exact on success, [Error (Corrupt _)] on any structural or
    checksum violation. *)

val blob_names : t -> string list
(** Names of sidecar blobs present in the store, sorted (quarantined
    blobs excluded). *)

val quarantine_blob : t -> name:string -> unit
(** Set a damaged blob aside as [BLOB_<name>.quarantined]. *)

val quarantine_dead_letters : t -> unit
(** Set a damaged [DEADLETTERS] file aside as [DEADLETTERS.quarantined]. *)

val validate : Engine.t -> (unit, string) result
(** The load-time validation pass, exported for direct use:
    {!Dd_fgraph.Graph.validate} on the factor graph and
    {!Dd_relational.Database.validate} on the restored tuples. *)

val latest : t -> string option
(** Name of the manifest's current checkpoint file, if any. *)

val abandon : t -> unit
(** Close the store's WAL channel without any further writes, so the next
    {!save} writes a base (the fault harness uses it to simulate a
    process death; scrub, to republish). *)
