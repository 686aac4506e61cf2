(** Columnar, dictionary-encoded tuple storage (VLog-style).

    A store holds one relation's bag of tuples in three planes:

    - {b Dictionaries}: one per column, mapping each distinct [Value.t] to a
      dense int id.  Dictionaries are append-only — an id, once assigned,
      never changes and never points at a different value, even across
      {!clear} — so int-id join plans stay valid across incremental deltas
      and ids can be compared for equality without decoding.
    - {b Sorted run}: the compacted bulk of the store, as flat per-column
      [int array] vectors plus a multiplicity vector, with rows unique and
      sorted id-lexicographically.
    - {b Indexes}, one per probed key-column set: a permutation of the run
      rows sorted by (key projection, row), built by an LSD counting sort
      over the dense dictionary ids (a merge sort when the dictionaries
      far outnumber the rows), plus first-key-column offsets: the rows
      whose first key column holds id [k] are one perm range found with
      two array loads, and a multi-column probe binary-searches the other
      key columns inside it.
    - {b Delta tail}: a small mutable hashtable absorbing {!insert_prev} /
      {!remove} / {!restore_count} between compactions.  Each entry records
      the tuple's run multiplicity ([base]) and the pending signed change
      ([delta]); the live multiplicity is [base + delta].  When the tail
      outgrows a fraction of the run it is merged into a fresh run
      ({!compact}), amortizing mutations to O(log run) each.

    A whole batch of tuples can instead be written as one sorted run
    ({!loader}): full datalog evaluation writes each stratum's output this
    way, so the next stratum and the factor pass probe a tail-free run.

    Multiplicities, journal notification and iteration contracts mirror
    {!Relation}; this module is the store behind it. *)

type t

val create : Schema.t -> t

val arity : t -> int

val cardinality : t -> int
(** Number of distinct live tuples. O(1). *)

val total_count : t -> int
(** Sum of live multiplicities. O(1). *)

val run_rows : t -> int
(** Rows in the compacted sorted run (including rows a tail entry has
    overridden). *)

val mem : t -> Tuple.t -> bool

val count : t -> Tuple.t -> int

val insert_prev : ?count:int -> ?notify:(int -> unit) -> t -> Tuple.t -> int
(** Add [count] (default 1) derivations and return the tuple's previous
    multiplicity.  [notify] is called with the previous multiplicity
    immediately before the store changes (the journal hook).  Interns any
    new column values. *)

val remove : ?count:int -> ?notify:(int -> unit) -> t -> Tuple.t -> int
(** Subtract up to [count] derivations; returns how many were removed.
    Dictionary ids stay interned even when the tuple disappears. *)

val delete_all : ?notify:(int -> unit) -> t -> Tuple.t -> unit

val restore_count : t -> Tuple.t -> int -> unit
(** Force a tuple's multiplicity to exactly [n] ([n <= 0] removes it),
    never notifying — the undo-log replay primitive. *)

val clear : ?notify:(Tuple.t -> int -> unit) -> t -> unit
(** Drop all tuples ([notify] sees each live tuple and its count first).
    Dictionaries are retained: id stability survives a re-derivation
    cycle (DRed's recursive-stratum recompute clears and refills). *)

val iter : (Tuple.t -> int -> unit) -> t -> unit
(** Live tuples with multiplicities: run rows in sorted order (minus
    tail-overridden ones), then tail entries in sorted id order —
    deterministic for a given store state. *)

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val copy : t -> t

val compact : t -> unit
(** Merge the delta tail into the sorted run now.  Also triggered
    automatically when the tail outgrows its threshold. *)

(** {2 Int-id plane}

    Probes work entirely on ids; values are decoded only where a consumer
    (a plan's bind step, a join's output) actually materializes them. *)

val find_id : t -> int -> Value.t -> int
(** [find_id t col v] is [v]'s id in column [col]'s dictionary, or [-1]
    when [v] was never interned.  Allocates nothing. *)

val dict_value : t -> int -> int -> Value.t
(** [dict_value t col id] decodes an id. Raises [Invalid_argument] on an
    out-of-range id. *)

val dict_size : t -> int -> int

val decode : t -> int array -> Tuple.t

val iter_ids : t -> (int array -> int -> unit) -> unit
(** Like {!iter} but yields encoded rows with live multiplicities.  The ids
    array passed to the callback is a buffer the store reuses (or owns): it
    is valid only for the duration of the callback and must not be mutated
    or retained — [Array.copy] it to keep it. *)

type probe
(** A keyed probe resolved once: the store, the index for one key-column
    set (built or refreshed on {!prepare}) and one scratch row. *)

val prepare : t -> int array -> probe
(** [prepare t key_cols] registers the index for the non-empty [key_cols]
    (adopting current tail entries) and brings its permutation up to date
    with the run.  The probe stays valid until the store is mutated. *)

val iter_probe : probe -> int array -> (int array -> int -> unit) -> unit
(** [iter_probe p key_ids f] yields every live encoded row whose
    projection on the probe's key columns equals [key_ids]: the key's perm
    range over the run, then its delta-tail bucket.  Allocates nothing on
    a tail-free store.  The ids arrays obey the no-retention rule of
    {!iter_ids}. *)

(** {2 Bulk load} *)

type loader
(** Tuples collected for one sorted run. *)

val loader : t -> loader

val load : loader -> int -> Tuple.t -> unit
(** [load l count tup] interns [tup]'s values (in call order, as {!insert_prev}
    would) and queues [count] derivations of it.  [tup] may be a reused
    buffer; it is not retained. *)

val finish_load : loader -> unit
(** Sort the queued rows once, merge equal rows' counts, and add them to
    the store: into an empty store they become the sorted run with no
    tail; otherwise they go through the tail and one {!compact}.  Never
    notifies.  The loader is empty afterwards. *)

(** {2 Audit} *)

val audit : t -> (unit, string) result
(** Deep structural audit: dictionary bijectivity, run sortedness and
    count positivity, tail/base consistency, cardinality and total-count
    accounting. *)

(** {2 Repair} *)

val repair : t -> (unit, string) result
(** Recompute every derived plane — dictionary lookup maps, the Bloom run
    filter, cached key indexes, override/cardinality/total accounting —
    from the content plane (dictionary values, run columns, tail), then
    re-{!audit}.  Damage confined to a derived plane heals in place
    ([Ok ()]); content damage still fails the re-audit, which is the
    caller's cue to reground from scratch. *)

(** {2 Test-only damage hooks}

    Simulated memory corruption for scrub/repair tests: [filter] and
    [accounting] damage derived planes ({!repair} heals them), while
    [run] damages content (no repair heals it). *)

val unsafe_corrupt_filter : t -> unit

val unsafe_corrupt_run : t -> unit
(** Raises [Invalid_argument] when the run is empty. *)
