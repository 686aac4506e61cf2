(** Incremental view maintenance in the style of DRed
    (Gupta, Mumick, Subrahmanian; the algorithm DeepDive uses for
    incremental grounding).

    Derived relations store derivation counts (one per rule grounding).
    An update is a set of base-table membership changes; {!apply} propagates
    it through the program with counting delta rules — each elementary batch
    is evaluated with exact new-before / old-after staging, so counts remain
    exact for non-recursive programs, which covers all KBC programs we
    generate (13/14 KBC systems in the paper's survey are hierarchical and
    non-recursive).  Recursive strata fall back to recompute-and-diff, which
    is always sound.

    The result reports every membership flip (tuple appeared / disappeared)
    in every predicate, which is exactly the "delta of the modified factor
    graph" the incremental-inference phase consumes. *)

module Delta : sig
  type t
  (** A set of membership changes, per predicate, with signs:
      [+1] = tuple appeared, [-1] = tuple disappeared. *)

  val create : unit -> t

  val insert : t -> string -> Dd_relational.Tuple.t -> unit
  (** Request insertion of a base tuple. *)

  val delete : t -> string -> Dd_relational.Tuple.t -> unit
  (** Request deletion of a base tuple. *)

  val flips : t -> string -> (Dd_relational.Tuple.t * int) list
  (** Signed membership changes recorded for a predicate. *)

  val total : t -> int
  (** Total number of membership changes. *)
end

val apply :
  ?plans:Plan.Cache.t ->
  ?seeds:(string * (Dd_relational.Tuple.t * int) list) list ->
  ?budget:Dd_util.Budget.t ->
  Dd_relational.Database.t ->
  Ast.program ->
  Delta.t ->
  (Delta.t, string) result
(** [apply db program changes] applies the base-table changes and
    incrementally maintains every IDB predicate.  Returns the full set of
    membership flips (base and derived).  Errors when the program is unsafe
    or unstratifiable, or when a change targets an IDB predicate.

    Each elementary batch runs the delta-specialized compiled plan
    ({!Plan.compile_delta}) for every (rule, position) reading the changed
    predicate; the predicate's prior state is presented as a snapshot-free
    [Plan.Patched] view rather than a [Relation.copy].  [plans] shares the
    compiled-plan cache (and thus the relation indexes the plans probe)
    across successive incremental steps — pass the cache held by
    [Grounding.t] to amortize compilation the way the inference side reuses
    its compiled kernel.  Default: a fresh throwaway cache.

    [seeds] injects pre-computed derivation-count contributions for derived
    predicates (e.g. the groundings of a rule that was just added to the
    program, evaluated against the pre-update state); they are applied and
    propagated through the program like any other delta. *)
