(** Concurrent fact server: one writer, many readers, atomic snapshots.

    The server owns an atomic pointer to the current {!Snapshot}.  A
    writer — the {!Dd_core.Txn} supervisor the server subscribes to at
    {!create} — builds a fresh snapshot after every committed update and
    publishes it with a single atomic store; a reader on another domain
    loads the pointer once and queries that snapshot lock-free.  Because
    snapshots are immutable, a reader always observes one internally
    consistent epoch no matter how many swaps happen mid-query, and the
    GC frees a superseded snapshot once its last reader drops it.

    Degradation is first-class: the supervisor's ladder events
    ({!Dd_core.Txn.event}) drive a visible writer status, and a
    quarantined update triggers a re-publish from the rolled-back engine
    so the served state never diverges from the live one — even when the
    failed attempt reached the rerun rung and replaced the engine. *)

module Tuple = Dd_relational.Tuple
module Txn = Dd_core.Txn

type t

val create : ?bins:int -> ?truth:Dd_kbc.Corpus.fact list -> Txn.t -> t
(** Build the initial snapshot (epoch 1) from the supervisor's engine and
    subscribe to its events: every commit publishes a new epoch, ladder
    rungs set the degraded status, and a quarantine re-publishes the
    rolled-back state.  [bins]/[truth] configure calibration for every
    snapshot the server builds (see {!Snapshot.build}). *)

val current : t -> Snapshot.t
(** The latest published snapshot.  Holding it keeps one consistent
    view across queries, as {!read} does. *)

val read : t -> (Snapshot.t -> 'a) -> 'a
(** Run the query against the current snapshot.  The callback sees
    exactly one epoch regardless of concurrent swaps.  Safe from any
    domain. *)

(** {1 Typed queries} — each is a {!read} that bumps its counter. *)

val lookup : t -> relation:string -> Tuple.t -> Snapshot.fact option
val top_k : t -> ?relation:string -> int -> Snapshot.fact list
val count_above : t -> ?relation:string -> float -> int
val entity_facts : t -> string -> Snapshot.fact list

(** {1 Health} *)

type counters = {
  lookups : int;
  scans : int;  (** {!count_above} *)
  top_ks : int;
  entities : int;
  generic : int;  (** {!read} calls made directly *)
}

type health = {
  epoch : int;  (** serving epoch *)
  txn_seq : int;  (** commit sequence the snapshot was built at *)
  writer_commits : int;
      (** the live engine's {!Dd_core.Engine.commits}: every update it has
          committed, before the server attached too, counted across a
          Rerun rung *)
  staleness_commits : int;  (** commits the served snapshot is behind *)
  staleness_s : float;  (** wall-clock age of the served snapshot *)
  degraded : string option;
      (** ladder rung the writer is currently attempting, if any *)
  quarantined : int;  (** quarantines observed since {!create} *)
  swaps : int;  (** snapshots published after the initial one *)
  last_swap_ms : float;  (** build+publish latency of the latest swap *)
  mean_swap_ms : float;
  max_swap_ms : float;
  scrubs : int;  (** scrub passes recorded via {!record_scrub} *)
  scrub_repaired : int;
      (** artifacts healed across all passes (tables repaired in place,
          blobs rewritten from live state) *)
  scrub_quarantined : int;
      (** artifacts set aside across all passes (checkpoint versions,
          blobs, dead-letter files) *)
  scrub_unrepaired : int;
      (** tables reported as needing scratch regrounding, cumulative *)
  last_scrub_healthy : bool option;
      (** verdict of the most recent pass; [None] before the first *)
  counters : counters;
}

val health : t -> health
(** Snapshot of the serving health surface; safe from any domain. *)

val record_scrub : t -> Dd_kbc.Scrub.report -> unit
(** Fold one {!Dd_kbc.Scrub.run} report into the health counters.  Call
    from the writer side, right after the scrub pass. *)
