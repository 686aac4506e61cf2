(** MAP inference: the single most probable world.

    Marginal inference drives DeepDive's output probabilities, but error
    analysis and downstream consumers often want the most likely knowledge
    base as a whole — the argmax of Equation 2 rather than per-variable
    marginals.  This module finds it by simulated annealing over the same
    energy the Gibbs sampler uses: sweeps at a decreasing temperature, with
    the best world ever visited retained (so the result can only improve on
    the initialization). *)

module Graph = Dd_fgraph.Graph

type result = {
  assignment : bool array;
  log_weight : float;  (** unnormalized [W(F, I)] of the returned world *)
  sweeps : int;
}

val default_schedule : sweeps:int -> int -> float
(** Geometric cooling from 2.0 down to 0.05 across the sweep budget. *)

val search :
  ?sweeps:int ->
  ?init:bool array ->
  Dd_util.Prng.t ->
  Graph.t ->
  result
(** [search rng g] anneals for [sweeps] (default 500) sweeps; evidence
    variables stay clamped.  Sweep [i] runs at temperature
    [default_schedule ~sweeps i]. *)

val greedy_refine : Graph.t -> bool array -> int
(** Deterministic hill-climbing: flip any variable that strictly increases
    the world's weight, until a local optimum; returns the number of flips
    applied.  [search] runs this on its result before returning. *)
