(** Weight learning.

    Two learners back the paper's experiments:

    - {!train_cd}: generic contrastive-divergence learning over a factor
      graph — the positive phase clamps evidence variables to their labels,
      the negative phase lets everything float, and learnable (tied) weights
      move along the difference of expected feature counts.  This is the
      Gibbs-based learning loop DeepDive inherits from Tuffy/DimmWitted,
      with the chains kept to the variables that share a factor: for the
      others the difference has a closed form.
    - {!train_lr}: exact logistic regression over feature vectors, with
      stochastic or full-batch gradients and optional warmstart.  This backs
      the incremental-learning experiments (Appendix B.3/B.4, Figures 16 and
      17), where the model declared by [Class(x) :- R(x, f)] is exactly a
      logistic regression and exact losses make convergence measurable. *)

module Graph = Dd_fgraph.Graph

type cd_options = {
  epochs : int;
  learning_rate : float;
      (** step size at epoch [t] is [learning_rate / (1 + 0.05 t)]; each
          step adds an L2 penalty of [0.0001] and follows two Gibbs
          sweeps per phase *)
}

val default_cd : cd_options

val train_cd :
  ?options:cd_options ->
  kernel:Compiled.t ->
  Dd_util.Prng.t ->
  unit
(** Mutates the learnable weights of [kernel]'s graph
    ({!Compiled.graph}) in place.  Both persistent chains run on
    [kernel], which must hold the graph's current weights, over its
    shared variables only: the positive chain resamples the shared query
    variables ({!Compiled.sweep_shared_query}), the negative chain every
    shared variable ({!Compiled.sweep_shared}), and their gradients are
    read off the live satisfied-body counters into dense weight slots
    for the factors that touch a shared variable.  A factor over one
    lone evidence variable adds its exact term instead
    ({!Compiled.add_lone_terms}), and a factor over one lone query
    variable adds 0.  With no shared variable no chain state is built
    and nothing is drawn from the PRNG, so the learned weights do not
    depend on the seed.  Each step re-syncs the kernel via
    {!Compiled.refresh_weights} (weights only — no regrounding, no
    structural rebuild), so it is left holding the learned weights. *)

(** {1 Logistic regression} *)

type lr_data = {
  nfeatures : int;
  rows : (int array * bool) array;  (** (active feature ids, label) *)
}

val lr_loss : lr_data -> float array -> float
(** Mean negative log likelihood. *)

val lr_predict : float array -> int array -> float
(** [P(label = true)] for a feature vector under the weights. *)

type lr_method =
  | Sgd  (** per-example stochastic updates, shuffled each epoch *)
  | Gd  (** full-batch gradient descent *)

val train_lr :
  method_:lr_method ->
  ?warm:float array ->
  ?epochs:int ->
  ?learning_rate:float ->
  ?on_epoch:(int -> float array -> unit) ->
  Dd_util.Prng.t ->
  lr_data ->
  float array
(** Returns learned weights, under an L2 penalty of 0.0001.  [warm] seeds
    the model (warmstart); omitted means zero initialization. *)
