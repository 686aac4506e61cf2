(** Learning references the tests measure {!Dd_inference.Learner} with:
    the per-weight gradient as a sparse list, which
    {!Dd_inference.Compiled.add_feature_counts} must match, and a
    quality proxy for generic graphs.  No [lib/] module calls them. *)

module Graph = Dd_fgraph.Graph

val feature_counts : Graph.t -> bool array -> (Graph.weight_id * float) list
(** Per learnable weight id, the energy gradient [sum over its factors of
    sign * g(n)] in the given world. *)

val pseudo_log_likelihood : ?worlds:int -> Dd_util.Prng.t -> Graph.t -> float
(** Average log conditional probability of each evidence variable's label
    given sampled assignments of the rest — the quality proxy for generic
    graphs. *)
