(** The streaming feed: batches of arriving documents, translated through
    tokenize → mention finding → canonicalization into one
    {!Dd_core.Grounding.update} per batch and driven through the
    transactional supervisor ({!Dd_core.Txn.apply}) — so retries,
    quarantine, checkpoint WAL logging and serving republication all fire
    on the live stream.

    Entity-link ("merge, don't fork") discipline: mention names and [el]
    rows are keyed by the canonicalizer's normalized-string keys, and each
    key links to its {e canonical} entity id.  A late alias declaration
    that merges two established entities is translated into a retract +
    rederive delta — the losing entity's [el] rows are deleted and
    re-inserted under the winning id in the same batch, and DRed carries
    the consequences through candidates, supervision and the factor
    graph.

    With [~canonicalize:false] the feed degrades to the forking baseline
    the bench compares against: every raw surface string becomes its own
    entity id and alias declarations are ignored. *)

module Txn = Dd_core.Txn
module Database = Dd_relational.Database

type t

val create :
  ?canonicalize:bool ->
  ?state:int * Canonicalizer.t ->
  Txn.t ->
  t
(** Attach a feed to a transactional supervisor.  [canonicalize] defaults
    to [true].  [state] restores a previously persisted [(next_sid,
    canonicalizer)] pair (see {!encode_state}): the mention dictionary is
    rebuilt from the canonicalizer's keys and the entity-link bindings are
    re-read from the engine's [el] relation, so a recovered feed continues
    assigning the same canonical ids. *)

val prepare_database : Database.t -> Source.t -> unit
(** Create the standard base tables ({!Dd_kbc.Corpus.input_schemas}) when
    missing and load the stream's static tables — call once on the
    database before building the engine. *)

type batch_report = {
  outcome : (Txn.outcome, Txn.error) result;
  docs : int;
  delta_rows : int;  (** membership changes submitted in this batch *)
  merges : int;  (** canonical-entity merges triggered by this batch *)
}

val ingest : t -> Batcher.batch -> batch_report
(** Translate one batch and apply it transactionally. *)

type stats = {
  docs : int;
  batches : int;
  sentences : int;
  pairs : int;  (** mention pairs emitted (rows in [sentence]) *)
  mentions : int;
  merges : int;  (** late-alias merges of two established entities *)
  el_inserts : int;
  el_retracts : int;  (** [el] rows retracted by merge rebinding *)
  quarantined : int;  (** batches the supervisor gave up on *)
}

val stats : t -> stats

val canonicalizer : t -> Canonicalizer.t

val el_bindings : t -> int
(** Keys currently linked in [el]. *)

val entities_bound : t -> int
(** Distinct entity ids currently linked in [el] — the forked-vs-merged
    count the ingestion bench compares across canonicalization modes. *)

val encode_state : t -> string
(** Persistable feed state: next sentence id + the canonicalizer (alias
    table, union-find, key registry), CRC-gated.  Pair with
    {!Dd_kbc.Checkpoint.save_blob} so recovery preserves entity identity. *)

val decode_state : string -> (int * Canonicalizer.t, string) result

(* --- deterministic stream driver --------------------------------------- *)

type run_summary = {
  run_docs : int;
  run_batches : int;
  busy_s : float;  (** wall-clock seconds spent translating + applying *)
  latencies_s : float array;
      (** per document: arrival → post-commit (updated marginals), on the
          simulated stream clock (service times measured, queueing modeled) *)
  run_quarantined : int;
}

val run : t -> Source.t -> Batcher.t -> run_summary
(** Drain a source through a batcher into the feed.  Document arrivals
    follow the stream's own timestamps on a virtual clock; each batch's
    service time is measured on the wall clock and folded back into the
    virtual queue, so document latency (arrival → updated marginal) is
    reported faithfully without sleeping through the idle gaps. *)
