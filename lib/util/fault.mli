(** Deterministic, seedable fault injection.

    Durability-sensitive code marks its crash-critical sites with
    [hit "layer.operation.site"] (dotted lowercase names, e.g.
    ["engine.apply_update.post_ground"]).  Unarmed points cost one
    hashtable lookup and never fire.  A test harness arms a single point
    ({!Nth} for an exact crash position, {!Probability} for seeded random
    schedules) and treats the escaping {!Injected} as a simulated crash:
    abandon all in-memory state and recover from disk.

    [Injected] deliberately does not extend any domain error type, so
    recovery code can tell a simulated crash from a real failure with
    {!is_injected}. *)

exception Injected of string
(** Carries the point name that fired. *)

type mode =
  | Never
  | Nth of int  (** fail on exactly the nth hit (1-based) after arming *)
  | Probability of float
      (** independent per-hit chance, drawn from the stream seeded by {!seed} *)

val declare : string -> unit
(** Register a point name without hitting it (makes it discoverable). *)

val hit : string -> unit
(** Mark a crash site; raises {!Injected} when the armed mode triggers. *)

val check : string -> bool
(** Like {!hit} but returns [true] instead of raising — for faults whose
    effect is silent damage the caller applies itself (a flipped bit, a
    skipped fsync) rather than a simulated process death.  Counts hits
    and firings identically to {!hit} and respects {!with_suppressed}. *)

val arm : string -> mode -> unit
(** Set a point's mode and reset its counters. *)

val reset : unit -> unit
(** Disarm every point and zero all counters (names stay registered). *)

val seed : int -> unit
(** Reseed the stream backing {!Probability} points. *)

val hits : string -> int
(** Hits since the point was last armed/reset. *)

val fired : string -> int

val registered : unit -> string list
(** All point names seen so far, sorted. *)

val is_injected : exn -> bool

val with_suppressed : (unit -> 'a) -> 'a
(** [with_suppressed f] runs [f] with injection disabled: hits still
    register (and count), but armed points never fire.  This exists for
    exactly one caller — the transactional supervisor's last-resort
    rollback.  Rollback is idempotent, so after bounded retries under
    injection the supervisor re-runs it once suppressed rather than
    abandoning the engine in a half-restored state.  (A checkpoint-style
    harness treating [Injected] as a process crash should never need
    this.) *)
