(** An immutable published view of the engine's extracted facts.

    A snapshot is built from a quiescent engine — in practice inside a
    {!Dd_core.Txn} commit observer, when the engine holds exactly the
    committed state — and then never mutated: readers on other domains
    query it freely with no synchronization beyond the single atomic load
    that fetched it ({!Server}).  It packages everything a fact-serving
    API needs:

    - every query-relation tuple with its marginal probability and a
      {e calibrated} probability (the empirical precision of its
      calibration bucket, {!Dd_kbc.Calibration}, when a ground-truth
      sample is available — the paper's "if one examined all facts with
      probability 0.9, approximately 90% would be correct" contract,
      applied as a correction);
    - per-relation indexes sorted by probability (top-k and threshold
      scans are array-prefix reads);
    - a point-lookup index by (relation, tuple) and an inverted index
      from tuple values to facts;
    - the publishing transaction's commit sequence and the publication
      epoch, for staleness accounting;
    - a CRC over the marginals, so tests and paranoid readers can prove a
      read was not torn.

    {b What carries across epochs.}  A snapshot keeps a {e layout}: per
    query variable its relation id, tuple hash and string values interned
    to int ids (with their hashes), the variables in (relation, tuple)
    order, the point-index and entity-index slots, and the per-value
    posting counts.  {!next} hands the previous snapshot's layout on,
    extended by the variables the grounding added since: the new ones are
    sorted by name and merged in.  Per epoch it
    then reads every marginal and evidence flag (learning moves tied
    weights on most commits), shares each fact whose fields did not move,
    orders by probability with a stable pass over the name order on
    unboxed floats, and fills the per-relation orders and entity postings
    as fresh int arrays from the cached ids; no value is hashed and no
    tuple compared on that path.

    {b When it is rebuilt.}  The layout is rebuilt from scratch whenever
    the engine's grounding is not its grounding grown: a new engine, the
    {!Dd_core.Txn} Rerun rung's [Engine.rebuild], a reground after
    [needs_rebuild], a recovered engine, or a rollback that removed
    variables a later update re-created under the same ids.  The check
    is one physical comparison: [Grounding.origin] allocates a fresh
    (relation, tuple) pair per variable created, and a rollback removes
    a suffix of ids, so the layout's last variable still holding its pair
    proves every earlier one does.

    {b Why readers never see a mutation.}  Extending a layout copies each
    array it changes (appends, a merged name order, a copied or regrown
    slot table) and never writes into one a published snapshot holds;
    each epoch's fact, order and posting arrays are new, and a fact
    shared with an earlier epoch is immutable.  So a
    snapshot held across any number of later publishes answers as it did
    when it was published. *)

module Tuple = Dd_relational.Tuple
module Engine = Dd_core.Engine
module Calibration = Dd_kbc.Calibration

type fact = {
  relation : string;
  tuple : Tuple.t;
  probability : float;  (** raw marginal *)
  calibrated : float;  (** bucket-corrected probability (= raw without truth) *)
  evidence : bool;  (** clamped as evidence — training data, not a prediction *)
}

type t

val build :
  ?bins:int ->
  ?truth:Dd_kbc.Corpus.fact list ->
  epoch:int ->
  txn_seq:int ->
  Engine.t ->
  t
(** Snapshot the engine's current marginals.  [truth] enables calibration
    ([bins] buckets, default 10); without it facts carry their raw
    probability as [calibrated] and {!calibration} is [None].  The engine
    must not be mutated concurrently — call from the writer's domain. *)

val next :
  ?bins:int ->
  ?truth:Dd_kbc.Corpus.fact list ->
  t ->
  epoch:int ->
  txn_seq:int ->
  Engine.t ->
  t
(** [next prev ~epoch ~txn_seq engine] answers exactly as {!build} does,
    reusing [prev]'s layout when the engine's grounding only grew since
    [prev] was built (see the header).  [prev] is left as it was. *)

(** {1 Identity} *)

val epoch : t -> int
val txn_seq : t -> int

val published_s : t -> float
(** Wall-clock publication time (seconds since the epoch). *)

val num_facts : t -> int

val relations : t -> string list
(** Query relations present, sorted. *)

val marginals : t -> float array
(** Fresh copy of the engine marginals at publication (variable-indexed). *)

(** {1 Queries} — all read-only, safe from any domain. *)

val lookup : t -> relation:string -> Tuple.t -> fact option

val relation_facts : t -> string -> fact array
(** Fresh copy, sorted by probability (descending). *)

val top_k : t -> ?relation:string -> int -> fact list
(** The [k] most probable facts, over one relation or all of them. *)

val count_above : t -> ?relation:string -> float -> int
(** Number of facts with [probability >= threshold], over one relation or
    all of them (binary search on the sorted per-relation arrays). *)

val entity_facts : t -> string -> fact list
(** Facts whose tuple mentions the given string value (e.g. a mention id
    or relation name), most probable first. *)

val calibration : t -> Calibration.report option

val calibrated_bucket : t -> float -> Calibration.bucket option
(** Bucket a raw probability falls into, when calibration is available. *)

(** {1 Integrity} *)

val verify : t -> (unit, string) result
(** Full internal-consistency audit: sort order of every per-relation
    array, agreement of the point-lookup and inverted indexes with the
    fact list in both directions (every fact is found under its key and
    each of its string values; every index entry and posting names a
    fact of this snapshot, and their counts are what the facts imply),
    probability/calibration ranges, calibration bucket arithmetic, and
    the marginals CRC.  [Ok] on every snapshot {!build}
    publishes; an [Error] means a reader observed torn state. *)
