(** Independent Metropolis-Hastings over materialized samples — the
    "sampling approach" to incremental inference (Section 3.2.2).

    Materialization stores worlds drawn from the original distribution
    [Pr(0)].  After the program or data changes, those worlds are proposals
    for a chain targeting the updated distribution [Pr(Delta)]; the
    acceptance test only needs the *changed* factors and weights, never the
    full original graph, which is where the speedup comes from.  The
    acceptance rate is the key efficiency statistic: near 1.0 when the
    distribution barely moved, near 0 under heavy change (e.g. new training
    data), in which case the engine's optimizer switches to the variational
    approach. *)

module Graph = Dd_fgraph.Graph

(** A description of how a factor graph changed between materialization
    time and now.  [graph] is the *updated* graph; the old graph is implied
    by the recorded old weights/evidence and by dropping the new factors
    and variables. *)
type change = {
  graph : Graph.t;
  new_factor_ids : int list;  (** factors absent from the original graph *)
  extended_factors : (int * int) list;
      (** (factor id, original body count) for factors that gained body
          groundings; the energy delta is [g(n_all) - g(n_prefix)] scaled *)
  changed_weights : (Graph.weight_id * float) list;
      (** (id, original value); current value lives in [graph] *)
  new_vars : Graph.var list;  (** variables absent from stored samples *)
  evidence_changes : (Graph.var * Graph.evidence) list;
      (** (var, original evidence status); current status lives in [graph] *)
}

val unchanged : Graph.t -> change
(** A change record describing "nothing changed" (acceptance rate 1). *)

val delta_log_weight : change -> bool array -> float
(** [W_new(I) - W_old(I)], computed from changed/new factors and new
    evidence only; [neg_infinity] when [I] violates newly added evidence. *)

type result = {
  marginals : float array;
  acceptance_rate : float;
  proposals : int;
  accepted : int;
}

val infer :
  Dd_util.Prng.t -> change -> stored:bool array array -> first:int -> proposals:int -> result
(** One independent MH chain from [stored.(first)], the store cursor,
    proposing [stored.(first + 1)], … in order with no wrap;
    [Invalid_argument] when [first] is past the store's end.  It stops
    early at the store's end and returns the chain's marginals (averages
    over its steps), acceptance rate and counts: it has read
    [stored.(first)] to [stored.(first + proposals)].  Applied without
    [~proposals] it is the chain itself: each call goes on from where the
    last stopped and returns the whole chain so far, so a probe of the
    acceptance rate is the chain's first steps.

    The chain reads only the change, prepared once (a pass over all
    factors only when a weight moved).  A proposal copies its stored
    world, draws [new_vars] uniformly, clamps the new and re-labelled
    variables that are evidence now, and resamples the new query
    variables in two Gibbs sweeps over their new and extended factors.
    Other variables keep their stored values, so stored worlds must hold
    the evidence they were drawn under (Gibbs chains' worlds do). *)
