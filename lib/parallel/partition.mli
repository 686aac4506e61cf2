(** Conflict-free partitioning of a factor graph for parallel Gibbs.

    Two query variables {e conflict} when some factor mentions both (as
    head or in a body).  Resampling conflicting variables concurrently is
    unsound twice over: each one's conditional reads the other's current
    value, and {!Dd_inference.Compiled} updates per-factor cached
    counts, so concurrent writers to a shared factor would race.
    Variables that never share a factor have disjoint factor sets and
    conditionally independent updates, so they can be resampled by
    different domains with no synchronization at all.

    A {e coloring} assigns every query variable a color such that
    conflicting variables differ; a parallel sweep then iterates the
    color classes with a barrier between them (chromatic, or
    color-synchronous, Gibbs — the same partitioned-evaluation idea
    DimmWitted applies across cores, and Urbani et al. apply to Datalog
    materialization).  We color greedily over variables in decreasing
    conflict-degree order (Welsh–Powell), which is deterministic and
    uses at most [max_conflict_degree + 1] colors.

    Degenerate case: a dense aggregation factor (the voting program's
    single factor touching every vote) makes its members pairwise
    conflicting, forcing singleton classes — the sweep then degrades to
    sequential execution.  {!Par_gibbs} detects single-worker phases and
    runs them inline, so the degradation costs no barrier traffic. *)

module Graph = Dd_fgraph.Graph

type t = {
  colors : int array;
      (** one entry per variable; [-1] for evidence variables, which are
          never resampled and take no part in the partition *)
  num_colors : int;
  classes : Graph.var array array;
      (** [classes.(c)] is the variables of color [c], ascending *)
}

val color : Graph.t -> t
(** Greedy chromatic coloring of the query variables.  Deterministic:
    the same graph always yields the same partition. *)

val validate : Graph.t -> t -> (unit, string) result
(** Full audit of a partition against its graph: every query variable
    holds a color in [[0, num_colors)] and appears in exactly its class,
    evidence variables hold [-1] and appear in no class, classes are
    sorted and duplicate-free, and no factor mentions two distinct
    query variables of the same color. *)

val slices : t -> domains:int -> Graph.var array array array
(** [slices p ~domains] deterministically splits every color class into
    [domains] contiguous near-equal slices; element [(c).(d)] is the
    work of domain [d] during phase [c].  Slices may be empty when a
    class is smaller than the domain count. *)
