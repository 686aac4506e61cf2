(** The strawman complete materialization of Section 3.2.1: store the
    probability of every possible world.  Perfect fidelity, exponential
    cost — usable below ~20 variables and kept as the fidelity baseline of
    Figure 5(a).  No [lib/] module calls it. *)

module Graph = Dd_fgraph.Graph
module Metropolis = Dd_inference.Metropolis

type t = { worlds : (bool array * float) array }

val materialize : Graph.t -> t
(** Enumerate and store every world with its probability.  Raises on graphs
    beyond {!Exact.max_enumerable} query variables. *)

val marginals : t -> Metropolis.change -> float array
(** Exact marginals under the changed distribution: each stored world is
    reweighted by [exp (delta log-weight)] — no access to original factors. *)
