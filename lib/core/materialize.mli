(** The materialization strategies of Section 3.2 that incremental
    inference runs on.

    - {b Sampling} (3.2.2): store worlds drawn from the original
      distribution (MCDB-style tuple bundles); incremental inference reuses
      them as independent Metropolis-Hastings proposals.
    - {b Variational} (3.2.3): store a sparser approximate graph obtained
      from the log-determinant relaxation; incremental inference applies
      the update to the approximate graph and runs Gibbs directly.

    {!materialize} produces the combined artifact the engine defers its
    strategy choice over (Section 3.3: "materialize the factor graph using
    both approaches, and defer the decision to the inference phase"),
    with the baseline [Pr(0)] (weights, body counts, evidence) that later
    updates are expressed against and the store cursor of the worlds MH
    has read: an immutable value, so restoring it restores all Section 3.2
    state. *)

module Graph = Dd_fgraph.Graph
module Metropolis = Dd_inference.Metropolis

(** {1 Combined materialization} *)

type t = {
  samples : bool array array;
  variational : Graph.t option;  (** absent under the NoRelaxation lesion *)
  base_weights : float array;
  base_bodies : int array;  (** body count of each factor at materialization *)
  base_evidence : Graph.evidence array;
  samples_used : int;
      (** the store cursor: MH chains have read [samples.(0)] up to
          [samples.(samples_used - 1)]; 0 when drawn *)
}

val materialize :
  n_samples:int ->
  burn_in:int ->
  lambda:float ->
  with_variational:bool ->
  domains:int ->
  kernel:Dd_inference.Compiled.t ->
  Dd_util.Prng.t ->
  t
(** Draw [n_samples] worlds on [kernel] after [burn_in] sweeps and, when
    [with_variational] holds, build the approximate graph of its graph
    ({!Dd_inference.Compiled.graph}) from the same samples with sparsity
    [lambda] ({!Dd_variational.Approx.materialize}, one coupled block at a
    time, so every graph gets one).  [domains = 1] is the bit-exact
    sequential path; above that the worlds come from that many
    independent chains in parallel
    via {!Dd_parallel.Par_gibbs.sample_worlds}.  The engine passes its
    {!Dd_core.Engine.options}, which hold the defaults. *)

(** {1 Inference against the materialization} *)

val cumulative_change : t -> Graph.t -> Metropolis.change
(** Describe the current graph as a delta against the materialized
    baseline: factors/variables beyond the baseline's are new, a baseline
    factor with more bodies than [base_bodies] records is extended
    (ascending factor id), learnable weights that moved are weight
    changes, and evidence flips are evidence changes. *)

val variational_infer :
  sweeps:int ->
  burn_in:int ->
  Dd_util.Prng.t ->
  approx:Graph.t ->
  change:Metropolis.change ->
  float array
(** Apply the update to (a copy of) the approximate graph — importing new
    variables, evidence, new factors and extension bodies with their current
    weights — and estimate marginals on the result with
    {!Dd_inference.Compiled.marginals}: Gibbs sampling over the coupled
    query variables, closed form for the isolated ones. *)
