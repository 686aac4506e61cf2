(** Exact inference by exhaustive enumeration of possible worlds.

    Exponential in the number of query variables, so usable only on small
    graphs — exactly the regime where the paper's "strawman" complete
    materialization ({!Strawman}) lives, and the ground truth against which
    the samplers are tested. *)

module Graph = Dd_fgraph.Graph

val max_enumerable : int
(** Upper bound on the number of query variables accepted (25). *)

val world_probability : Graph.t -> bool array -> float

val marginals : Graph.t -> float array
(** Marginal probability of each variable being true; evidence variables
    report 0 or 1. *)

val enumerate : Graph.t -> (bool array * float) list
(** Every possible world (assignment over all variables, evidence fixed)
    with its normalized probability. *)
