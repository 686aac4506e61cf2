(** Grounding: from a DeepDive program and a database to a factor graph
    (the first phase of Section 2.5), plus *incremental* grounding (the
    first phase of Section 3).

    Full grounding evaluates the deterministic datalog program, creates one
    Boolean random variable per query-relation tuple, applies evidence from
    the [_ev] companions, and grounds one factor per (inference rule, head
    tuple, weight key) group with one body per rule grounding — so
    [n(gamma, I)] of Equation 1 is the number of satisfied bodies.

    Incremental grounding ([extend]) applies base-table changes through
    DRed, evaluates newly added rules, and updates the live graph in place:
    new variables, new factors, extended factors (new groundings of an
    existing group) and evidence changes.  Its output is their counts
    ({!report}); the [(Delta V, Delta F)] the incremental-inference phase
    consumes is the live graph against the materialized baseline
    ({!Materialize.cumulative_change}).  New variables, weights and
    factors take the next ids, so the graph only grows by a suffix: with
    no extended factor the engine extends its compiled kernel
    ({!Dd_inference.Compiled.extend}) instead of compiling it again.

    Deletions: tuples leaving a query relation have their variable clamped
    to [Evidence false], which deactivates every factor body mentioning
    them — energy-exact for conjunctive bodies.  A lost grounding whose
    vanished support was a purely deterministic tuple cannot be expressed
    that way; [needs_rebuild] reports it, and {!Engine.apply_update} then
    grounds again from scratch (our workloads, like the paper's KBC
    updates, are additive). *)

module Graph = Dd_fgraph.Graph
module Tuple = Dd_relational.Tuple
module Database = Dd_relational.Database
module Dred = Dd_datalog.Dred

type t

type error =
  [ `Malformed_delta of string
    (** the update (or the program it produced) is itself bad — no amount
        of retrying or re-running will make it apply *)
  | `Transient of string
    (** environmental, worth retrying (injected faults classify here) *)
  | `Inference_timeout of string  (** a cooperative {!Dd_util.Budget} expired *)
  | `Internal of string  (** engine invariant violation *) ]
(** Typed failure taxonomy of the update path.  Exposed as a polymorphic
    variant so the transactional supervisor ({!Txn}) and the engine
    boundary share it structurally. *)

exception Error of error

val error_message : error -> string

type stats = {
  variables : int;
  factors : int;
  weights : int;
  evidence : int;
}

val ground : Database.t -> Program.t -> t
(** Full grounding.  Raises {!Error} ([`Malformed_delta]) on an invalid
    program. *)

val graph : t -> Graph.t

val database : t -> Database.t

val program : t -> Program.t

val stats : t -> stats

val var_of : t -> string -> Tuple.t -> Graph.var option
(** Variable of a query-relation tuple. *)

val origin : t -> Graph.var -> string * Tuple.t
(** The (relation, tuple) a variable stands for.  The pair is allocated
    once, when the variable is created, and returned physically the same
    for as long as the variable exists; {!rollback} removes a suffix of
    variable ids, and a variable created again under a freed id gets a
    new pair.  [Dd_serve.Snapshot] relies on both to tell a grown
    grounding from a changed one. *)

val vars_of_relation : t -> string -> (Tuple.t * Graph.var) list

val weight_key_of : t -> Graph.weight_id -> string
(** Human-readable weight key ("rule|feature"), for inspection. *)

val marginals_by_relation :
  t -> float array -> (string * Tuple.t * float) list
(** Pair each query tuple with its inferred marginal. *)

type update = {
  edb : Dred.Delta.t option;  (** base-table changes *)
  new_rules : Program.rule list;  (** rules appended to the program *)
}

val data_update : Dred.Delta.t -> update

val rules_update : Program.rule list -> update

type report = {
  new_vars : int;
  new_factors : int;
  extended : int;
  evidence_changed : int;
  flips : int;  (** total membership flips propagated by DRed *)
  needs_rebuild : bool;
      (** a lost grounding no clamp expresses: [extend] grounds no factor
          after the staged pass, and the caller discards the graph *)
}

val extend : ?budget:Dd_util.Budget.t -> t -> update -> report
(** Incremental grounding: mutates the database, program and graph held by
    [t] and describes the graph delta.  Raises {!Error} on failure:
    [`Malformed_delta] for an invalid post-delta program or a DRed
    rejection, [`Internal] for engine invariant violations.  [budget] is
    polled once per DRed batch and per recursive-stratum recompute.

    On a raise the database and graph may be left partially mutated — run
    [extend] under an engine transaction ({!Engine.txn_begin} /
    {!Txn.apply}) when that matters. *)

type mark
(** Pre-update snapshot of the grounding's lookup tables (counters plus
    the program value — the tables are append-only keyed by graph ids). *)

val mark : t -> mark

val rollback : t -> mark -> unit
(** Prune every variable / weight / factor table entry created after
    {!mark} and restore the program.  Pair with {!Graph.rollback} (the
    graph) and the relation journals (the database); idempotent. *)
