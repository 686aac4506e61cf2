(** Construction of the approximate factor graph (lines 5-8 of
    Algorithm 1) — the artifact the variational approach materializes.

    The log-det maximizer from {!Logdet} estimates a covariance completion;
    its inverse is the (sparse) precision matrix [theta] holding the model
    couplings.  Each non-negligible off-diagonal entry becomes an
    Ising-style agreement factor (energy [w . 1{a = b}]) with
    [w = -theta_ij / 2] — the coupling that matches the Gaussian cross term
    under 0/1 coding — plus per-variable unary factors moment-matched to
    the sampled means so singleton marginals survive the approximation
    (a documented implementation choice; Algorithm 1 itself only emits
    binary potentials).

    Lines 1-4 run one coupled block at a time: the covariance, the
    maximizer and [theta] are zero off NZ, the pairs of variables that
    share a factor, so they are block-diagonal over NZ's connected
    components.  Each component of two or more variables is estimated,
    solved ({!Logdet.solve}) and inverted as a k x k block, with its
    covariances read from the sample store at global ids; a variable that
    shares no factor gets only its unary factor.  The cost is the sum of
    k^3 over the blocks, so every graph gets an artifact.

    Inference on the approximate graph is compiled Gibbs sampling; because it
    has O(nnz) factors instead of the original graph's, sparse graphs run
    an order of magnitude faster (Figure 5(c)). *)

module Graph = Dd_fgraph.Graph

type stats = {
  pairwise_factors : int;
  candidate_pairs : int;  (** size of NZ *)
  solver_iterations_bound : int;
}

val materialize :
  ?lambda:float ->
  ?solver:Logdet.options ->
  Dd_util.Prng.t ->
  Graph.t ->
  samples:bool array array ->
  Graph.t * stats
(** [materialize rng g ~samples] builds the approximate graph from worlds
    sampled out of [g].  The result has the same variables and evidence as
    [g] (so variable ids line up), only simpler factors.  [lambda] defaults
    to 0.1, the paper's "safe region" choice; unary weights take three
    rounds of moment matching.  The pairwise factors come first, in
    ascending pair order, then one unary factor per query variable. *)
