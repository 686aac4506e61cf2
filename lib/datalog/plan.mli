(** Compiled join plans for rule bodies — the paper's rule-based optimizer
    applied to grounding.

    A {!t} is the one-shot compiled form of a rule body: literals are
    reordered once by a bound-variable/selectivity heuristic, every positive
    literal is resolved at compile time to a keyed probe on its bound
    columns against the relation's column store, variables become integer
    slots, and negated literals and guards are scheduled at the earliest
    step where their variables are bound.

    Execution advances a frontier of partial bindings step by step.  The
    frontier is one flat row-major [Value.t array] with stride = the
    plan's slot count, plus an [int array] of counts: a row owns no block,
    its values are the dictionaries' own.  A match step resolves its
    view's store and index once per execution
    ({!Dd_relational.Column_store.prepare}), encodes constant keys once,
    and then probes per frontier row with no allocation: keys encode
    through an id lookup that answers [-1] for an unknown value, one key
    buffer and one scratch row are reused, and the row callback is built
    once per step.

    Each body grounding contributes one derivation to its head tuple (body
    atoms contribute membership, not multiplicity); explicit delta tuples
    carry signed counts that propagate multiplicatively.  Execution is
    count-exact with the interpreted reference matcher kept under [test/]
    (property-tested in [test/test_plan.ml]).

    Relations are read through {!view}s.  A [Patched] view presents "the
    relation as it was" without copying: the live relation minus an
    exclusion set plus a (usually tiny) re-inclusion set.  This is what
    makes semi-naive fixpoints ({!Engine.eval_stratum}) and DRed batches
    ({!Dred.apply}) snapshot-free — the previous state is a view over the
    current one, not a [Relation.copy]. *)

module Value = Dd_relational.Value
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation

type view =
  | Whole of Relation.t
  | Patched of {
      base : Relation.t;
      minus : unit Tuple.Hashtbl.t;  (** members of [base] to hide *)
      plus : unit Tuple.Hashtbl.t;  (** tuples to add (disjoint from [base] \ [minus]) *)
    }
      (** A set-semantics snapshot of a relation's earlier state, expressed
          against its live contents.  Multiplicities are not represented:
          views only feed positive-literal matching (membership, count
          multiplier 1) and negation checks, where membership is all that
          matters. *)

type lookup = string -> view
(** Resolves a predicate name to its contents; must return an empty view
    for unknown predicates. *)

val whole : Relation.t -> view

val patched :
  base:Relation.t -> minus:unit Tuple.Hashtbl.t -> plus:unit Tuple.Hashtbl.t -> view

val view_of_lookup : (string -> Relation.t) -> lookup
(** Wrap a plain relation lookup as a [Whole]-view lookup. *)

val view_mem : view -> Tuple.t -> bool

type t
(** A compiled plan: either a full-evaluation plan ({!compile}) or a
    delta-specialized plan for one body position ({!compile_delta}). *)

val compile : Ast.rule -> t
(** Compile a full-evaluation plan.  The body literals are reordered by a
    greedy heuristic: at each step, pick the positive literal with the most
    already-bound argument positions (constants count), breaking ties
    toward fewer fresh variables and then source order — so every join
    step after the first can probe an index rather than scan. *)

val compile_delta : Ast.rule -> delta_pos:int -> t
(** Compile the delta-specialized variant for semi-naive / DRed evaluation:
    the literal at [delta_pos] is consumed first (against the explicit
    delta passed at run time), the remaining literals follow the same
    greedy order seeded by the delta literal's variables.  Resolution keys
    off {e original} body positions: strictly before [delta_pos] resolves
    through the run-time [before] lookup (new state), strictly after
    through [after] (old state).  A negated literal at [delta_pos] is
    matched positively against the delta (signs live in the counts): for
    it, [delta] holds membership flips, [+1] for tuples that left the
    predicate and [-1] for tuples that entered it. *)

val delta_pos : t -> int
(** The specialized position, or [-1] for a full plan. *)

val literal_order : t -> int list
(** Original body positions in execution order (for inspection/tests). *)

val run : t -> lookup:lookup -> (Tuple.t * int) list
(** Execute a full plan: every derivable head tuple with its derivation
    count (the number of body groundings deriving it).  Raises
    [Invalid_argument] on a delta plan. *)

val iter_heads : t -> lookup:lookup -> f:(Tuple.t -> int -> unit) -> unit
(** Execute a full plan, streaming [f head count] per surviving body
    grounding {e without} aggregating counts or materializing the result
    list — a head tuple derived [k] ways is yielded [k] times, with the
    same total count as {!run}.  [head] is one buffer reused across calls:
    valid only during the call, copy it to keep it.  Full evaluation
    encodes it straight into a {!Relation.loader}.  Raises
    [Invalid_argument] on a delta plan. *)

val run_staged :
  t ->
  before:lookup ->
  after:lookup ->
  delta:(Tuple.t * int) list ->
  (Tuple.t * int) list
(** Execute a delta plan: head tuples with signed derivation-count deltas.
    Raises [Invalid_argument] on a full plan. *)

(** {2 Slot rows}

    Every rule variable has an integer slot, the same in the full plan and
    in every delta plan of one rule.  A consumer that reads more than the
    head (grounding reads feature values, weight terms and the body's
    query atoms) resolves the variables it needs to slots once, with
    {!slot}, then reads each body grounding as a slot row. *)

val slot : t -> string -> int option
(** The slot of a rule variable; [None] for a name the rule never
    mentions. *)

val iter_rows : t -> lookup:lookup -> f:(Value.t array -> int -> unit) -> unit
(** Full plan: [f row count] per body grounding, where [row.(slot)] is the
    variable's value ([Value.Null] for a variable no body literal binds).
    [row] is one buffer reused across calls: valid only during the call. *)

val iter_rows_staged :
  t ->
  before:lookup ->
  after:lookup ->
  delta:(Tuple.t * int) list ->
  f:(Value.t array -> int -> unit) ->
  unit
(** Delta plan: slot rows with signed counts — incremental grounding uses
    this to build or retract factor bodies. *)

(** Compiled plans cached by rule identity (printed form) and delta
    position, so repeated {!Engine} rounds and {!Dred} batches reuse both
    the plan and the relation indexes it probes — mirroring how the
    inference side caches its compiled kernel across incremental steps. *)
module Cache : sig
  type plan := t

  type t

  val create : unit -> t

  val full : t -> Ast.rule -> plan

  val delta : t -> Ast.rule -> delta_pos:int -> plan

  val size : t -> int
  (** Number of distinct compiled plans held. *)

  val compiles : t -> int
  (** Total compilations performed (cache misses); for tests and stats. *)
end
