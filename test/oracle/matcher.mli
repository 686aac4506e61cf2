(** Interpreted rule-body matching: the reference that compiled join plans
    ({!Dd_datalog.Plan}) are checked against.  It re-derives bound argument
    positions per literal, resolves variables by name, and joins through
    {!Row_bag.hash_index} hash indexes built from scratch per call — none
    of which the plans share.

    Matching proceeds literal-by-literal over a frontier of partial variable
    bindings; each positive literal is matched with a hash index built on
    its bound argument positions.  Negated literals and guards are deferred
    until their variables are bound (rule safety guarantees they eventually
    are).  Each body grounding contributes one derivation to its head tuple
    (body atoms contribute membership, not multiplicity), so the result
    carries the exact number of distinct groundings deriving each head
    tuple — the count DRed maintains and the quantity [n(gamma, I)] of the
    paper's Equation 1 needs at grounding time.  Explicit delta tuples do
    carry signed counts, which propagate multiplicatively so membership
    flips yield signed grounding deltas. *)

module Ast = Dd_datalog.Ast

type lookup = string -> Dd_relational.Relation.t
(** Resolves a predicate name to its current contents; must return an empty
    relation for unknown predicates. *)

val eval_rule : lookup:lookup -> Ast.rule -> (Dd_relational.Tuple.t * int) list
(** All head tuples derivable by the rule, with derivation counts
    (multiplicity products over body matches). *)

val eval_rule_staged :
  before:lookup ->
  after:lookup ->
  delta_pos:int ->
  delta:(Dd_relational.Tuple.t * int) list ->
  Ast.rule ->
  (Dd_relational.Tuple.t * int) list
(** Semi-naive / delta-rule evaluation: the body literal at index
    [delta_pos] is matched against the explicit [delta] tuples (with signed
    counts), literals strictly before it resolve through [before] ("new"
    state) and literals strictly after it through [after] ("old" state).
    For a negated literal at [delta_pos], [delta] must hold membership
    flips: count [+1] for tuples that left the predicate, [-1] for tuples
    that entered it. *)

val eval_rule_bindings :
  lookup:lookup -> Ast.rule -> (string -> Dd_relational.Value.t option) list
(** Full body matches exposed as variable environments (used by grounding to
    extract feature values and variable columns); one entry per distinct
    grounding, counts ignored. *)

val eval_rule_bindings_staged :
  before:lookup ->
  after:lookup ->
  delta_pos:int ->
  delta:(Dd_relational.Tuple.t * int) list ->
  Ast.rule ->
  ((string -> Dd_relational.Value.t option) * int) list
(** Like {!eval_rule_staged} but exposing the full variable environment of
    each grounding together with its signed count — incremental grounding
    uses this to build or retract factor bodies. *)

val empty_relation : Dd_relational.Relation.t
(** A shared empty zero-arity relation, convenient for lookups of unknown
    predicates. *)
