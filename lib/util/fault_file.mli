(** Injectable file I/O for durability code.

    The checkpoint store routes every read and write through this module
    so the failures disks actually produce can be injected
    deterministically via the {!Fault} registry:

    - ["io.read.short"] — a whole-file read returns only a prefix.
    - ["io.atomic.torn_write"] — a write dies mid-way (prefix on disk),
      raising {!Fault.Injected} (process-death model).
    - ["io.atomic.bit_flip"] — one bit of the written content is flipped
      {e silently}; the run continues (scrub's job to find it).
    - ["io.atomic.dropped_fsync"] — the fsync silently never reaches
      stable storage; a later {!crash_lose_volatile} loses the tail.
    - ["io.atomic.rename_before_flush"] — the rename hits the directory
      before the data pages flush; the target exists but is torn
      (raises, process+power death).
    - ["io.wal.append_torn"] — an append dies mid-entry (raises).

    Damage positions (how much of a prefix survives, which bit flips)
    come from a dedicated PRNG reseeded with {!seed}, so a fault schedule
    is a pure function of its seed.

    The module tracks, per path, the byte length last made durable by a
    successful fsync.  {!crash_lose_volatile} simulates a power cut on
    top of a process death: every file with unsynced bytes is truncated
    back to its durable prefix. *)

val all_points : string list
(** The [io.*] fault-point names above (registered at module init). *)

val seed : int -> unit
(** Reseed the damage-position PRNG (independent of {!Fault.seed}). *)

val reset : unit -> unit
(** Forget all per-path durability tracking. *)

val read_file : string -> string
(** Whole-file read ([io.read.short] applies).  Raises [Sys_error] as
    [open_in] does. *)

val write_file : ?fsync:bool -> string -> string -> unit
(** Plain (non-atomic) whole-file write; flushes and — with [fsync]
    (default [true]) — fsyncs the data.  [io.atomic.torn_write],
    [io.atomic.bit_flip] and [io.atomic.dropped_fsync] apply. *)

val rename_durable : ?fsync:bool -> string -> string -> unit
(** [rename_durable src dst] renames and then fsyncs the containing
    directory so the rename itself is durable.
    [io.atomic.rename_before_flush] applies. *)

val write_atomic : ?fsync:bool -> string -> string -> unit
(** Durable atomic publish: {!write_file} to [path ^ ".tmp"] (data
    fsync), then {!rename_durable} into place (directory fsync).  A crash
    at any instant leaves either the old content or the new, never a
    mix — provided no silent fault was injected. *)

val append : path:string -> out_channel -> string -> unit
(** Append to an open log channel ([io.wal.append_torn] applies).
    [path] names the channel's file for durability tracking. *)

val flush_fsync : ?fsync:bool -> path:string -> out_channel -> unit
(** Flush and fsync an append channel, recording the new durable length
    ([io.atomic.dropped_fsync] applies). *)

val crash_lose_volatile : unit -> unit
(** Power-cut model: truncate every tracked file with unsynced bytes back
    to its last durable length.  Call when simulating a machine (not just
    process) death, before recovering. *)
