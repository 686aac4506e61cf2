(** Named, schema-checked in-memory relations.

    Storage is a bag with per-tuple multiplicities ("derivation counts"),
    which is exactly the representation the DRed incremental view-maintenance
    algorithm needs (each delta relation carries a [count] column tracking
    the number of derivations of a tuple).  A relation with all counts equal
    to one behaves as a set.

    The bag lives in a dictionary-encoded column store ({!Column_store});
    {!store} exposes its int-id plane to consumers (the join planner) that
    probe it directly. *)

type t

val create : ?name:string -> Schema.t -> t

val store : t -> Column_store.t
(** The underlying column store.  Mutating it directly bypasses schema
    checks and the journal. *)

val name : t -> string

val schema : t -> Schema.t

val cardinality : t -> int
(** Number of distinct tuples. *)

val mem : t -> Tuple.t -> bool

val count : t -> Tuple.t -> int
(** Multiplicity; 0 when absent. *)

val insert : ?count:int -> t -> Tuple.t -> unit
(** Add [count] (default 1) derivations of a tuple.  Raises
    [Invalid_argument] when the tuple does not conform to the schema or
    [count <= 0]. *)

val insert_prev : ?count:int -> t -> Tuple.t -> int
(** Like {!insert} but returns the tuple's previous multiplicity — one
    store lookup where a [mem]-then-[insert] pair would pay two. *)

type loader
(** Tuples collected for one bulk insert ({!Column_store.loader}). *)

val loader : t -> loader

val load : ?count:int -> loader -> Tuple.t -> unit
(** Queue [count] (default 1) derivations of a tuple, checked as by
    {!insert}.  The tuple may be a reused buffer.  On a journaled relation
    the tuple is inserted (and logged) at once instead. *)

val finish_load : loader -> unit
(** Add every queued tuple as by {!insert}, written as one sorted run
    (into an empty relation) instead of through the delta tail. *)

val remove : ?count:int -> t -> Tuple.t -> int
(** Subtract up to [count] derivations; returns how many were actually
    removed. The tuple disappears when its multiplicity reaches zero. *)

val delete_all : t -> Tuple.t -> unit
(** Drop a tuple regardless of multiplicity. *)

val clear : t -> unit

val iter : (Tuple.t -> int -> unit) -> t -> unit

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> Tuple.t list
(** Distinct tuples, unspecified order. *)

val copy : t -> t
(** Deep copy of the tuple store; the copy and the original evolve
    independently from then on. *)

val set_journal : t -> (Tuple.t -> int -> unit) option -> unit
(** Attach (or detach, with [None]) an undo-log hook.  While attached, every
    mutation of a tuple's multiplicity — {!insert}, {!remove},
    {!delete_all}, and each row dropped by {!clear} — first calls the hook
    with the tuple and its {e previous} count, so a transaction can record
    the inverse operation before the store changes.  The hook must not
    mutate the relation.  {!copy} does not carry the hook over, and the
    hook must be detached before the relation is marshalled (closures do
    not marshal). *)

val restore_count : t -> Tuple.t -> int -> unit
(** [restore_count t tup n] forces [tup]'s multiplicity to exactly [n]
    ([n <= 0] removes it), bypassing any attached journal.  This is the
    undo-log replay primitive: applying a journal's [(tuple, previous
    count)] records newest-to-oldest restores the pre-transaction
    contents, and replaying is idempotent. *)

val equal_contents : t -> t -> bool
(** Same distinct tuples with the same multiplicities. *)

val validate : t -> (unit, string) result
(** Re-check every stored tuple against the schema (and counts against
    positivity).  [insert] enforces this on entry; relations restored from
    a checkpoint bypassed insert and must be re-audited.  Also runs
    {!Column_store.audit}. *)
