(** Transactional update application with a graceful-degradation ladder.

    {!apply} runs one {!Engine.apply_update} under an engine transaction
    ({!Engine.txn_begin}); on any failure the engine is rolled back to a
    validated pre-update state and the supervisor walks the ladder:

    - bounded {b retry} with deterministic exponential backoff (transient
      failures only),
    - {b rematerialize} the inference baseline and retry,
    - full {b rerun}: rebuild a fresh engine from scratch over the
      rolled-back database and program ({!Engine.rebuild}, which
      continues the old engine's {!Engine.commits}), then retry,
    - {b quarantine}: park the update in the dead-letter queue with its
      error, attempt count and a replayable serialized delta.

    A poison update therefore costs one rejected batch, never a wedged
    pipeline.  Backoff delays come from a dedicated PRNG stream and the
    sleep hook defaults to a no-op, so tests are deterministic and
    wall-clock-free. *)

type error = Grounding.error

val error_message : error -> string

type options = {
  max_retries : int;  (** retry rung width; transients only *)
  backoff_base_s : float;  (** delay before retry [k] is
      [base * 2^(k-1) * (0.5 + u)] with [u] from the backoff stream *)
  backoff_seed : int;
  rollback_retries : int;
      (** extra attempts when the rollback itself is hit by an injected
          fault, before a final attempt with injection suppressed *)
  allow_rematerialize : bool;
  allow_rerun : bool;
  sleep : float -> unit;  (** called with each backoff delay; default no-op *)
}

val default_options : options

type rung =
  | Direct
  | Retry of int  (** succeeded on retry [k] (1-based) *)
  | Rematerialize
  | Rerun

val rung_to_string : rung -> string

type outcome = {
  report : Engine.report;
  rung : rung;  (** where on the ladder the update finally succeeded *)
  attempts : int;  (** total [apply_update] attempts, successful one included *)
  backoffs_s : float list;  (** backoff delay chosen before each retry *)
}

type dead_letter = {
  seq : int;  (** monotonic quarantine sequence number *)
  error : error;  (** classification of the final failed attempt *)
  attempts : int;
  payload : string;  (** replayable serialized delta, CRC-guarded *)
}

type event =
  | Committed of outcome
      (** an update committed; the engine (re-read it via {!engine}) holds
          the post-commit state when the observers run *)
  | Degraded of rung
      (** the supervisor is about to attempt this non-direct rung — the
          writer has entered degraded mode *)
  | Quarantined of dead_letter
      (** every rung failed; the update was parked and the engine rolled
          back to (and validated at) its last committed state *)

type t

val create : ?options:options -> Engine.t -> t

val engine : t -> Engine.t
(** The live engine.  Identity changes when a rerun rung succeeds (the
    fresh engine replaces the old one) — re-read after each {!apply}.
    Its {!Engine.commits} counts every update committed, across a rerun
    rung too: it is the supervisor's commit sequence. *)

val dead_letters : t -> dead_letter list
(** Quarantined updates, oldest first. *)

val on_event : t -> (event -> unit) -> unit
(** Subscribe to the supervisor's lifecycle.  Observers run synchronously
    on the writer's domain, in registration order, after the engine has
    reached the state the event describes — a [Committed] observer that
    snapshots {!engine} sees exactly the committed state.  An observer
    must not raise. *)

val restore_dead_letters : t -> dead_letter list -> unit
(** Prepend previously quarantined letters (oldest first, e.g. loaded
    from a persisted store after a restart) to the queue and advance the
    quarantine sequence counter past theirs, so future quarantines do not
    reuse their sequence numbers. *)

val apply : t -> Grounding.update -> (outcome, error) result
(** Apply one update transactionally, walking the degradation ladder on
    failure.  [Ok] means the update committed (the rung says at what
    cost); [Error] means every rung failed and the update was
    quarantined.  Either way the engine is in a validated state:
    committed on [Ok], rolled back on [Error]. *)

val classify : exn -> error
(** The boundary's error taxonomy: {!Grounding.Error} carries its own
    classification, {!Dd_util.Budget.Exceeded} is [`Inference_timeout],
    injected faults are [`Transient], [Invalid_argument] is
    [`Malformed_delta], anything else [`Internal]. *)

val encode_update : Grounding.update -> string
(** Serialize an update as a dead-letter payload: the marshalled update
    in one {!Dd_util.Record} frame (tag [ddtxn 2]). *)

val decode_update : string -> (Grounding.update, string) result

val decode_dead_letter : dead_letter -> (Grounding.update, string) result

val replay : t -> dead_letter -> (outcome, error) result
(** Decode a quarantined update and {!apply} it again; on success the
    letter is removed from the queue.  A corrupt payload is a
    [`Malformed_delta]. *)
