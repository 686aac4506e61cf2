(** Gibbs sampling over factor graphs, directly on {!Dd_fgraph.Graph.t}.

    The textbook sampler of the paper (Section 2.5): visit each query
    variable, resample it from its conditional given the rest, estimate
    marginals by averaging.  Evidence variables stay clamped.  Each
    conditional re-evaluates every adjacent factor, so this module is the
    test oracle for the production sampler {!Dd_inference.Compiled},
    which must track it draw for draw; no [lib/] module calls it.  Each
    call builds the variable-to-factor table once
    ({!Dd_fgraph.Graph.factors_of_var}, one pass over the factors): a
    multi-sweep run pays it once, and {!conditional_true_prob} and
    {!sweep} pay it per call. *)

module Graph = Dd_fgraph.Graph

val conditional_true_prob : Graph.t -> bool array -> Graph.var -> float
(** [P(v = true | rest)] — computed from the energy difference of the
    factors adjacent to [v] only. *)

val sweep : Dd_util.Prng.t -> Graph.t -> bool array -> unit
(** One pass resampling every query variable in order. *)

val init_assignment : Dd_util.Prng.t -> Graph.t -> bool array
(** Random initial world: evidence clamped, query variables uniform. *)

val run :
  ?burn_in:int ->
  ?init:bool array ->
  Dd_util.Prng.t ->
  Graph.t ->
  sweeps:int ->
  on_sweep:(int -> bool array -> unit) ->
  unit
(** Burn in, then call [on_sweep] after each of [sweeps] sweeps with the
    current world (not copied — copy if retained). *)

val marginals : ?burn_in:int -> Dd_util.Prng.t -> Graph.t -> sweeps:int -> float array
(** Estimated marginal of every variable (evidence variables report their
    clamped value). *)

val sample_worlds :
  ?burn_in:int -> ?spacing:int -> Dd_util.Prng.t -> Graph.t -> n:int -> bool array array
(** Draw [n] worlds, [spacing] sweeps apart (default 1); the tuple-bundle
    materialization of the sampling approach stores exactly this. *)

val sweeps_to_converge :
  ?tolerance:float ->
  ?max_sweeps:int ->
  Dd_util.Prng.t ->
  Graph.t ->
  target_var:Graph.var ->
  target_prob:float ->
  int option
(** Number of sweeps until the running-mean estimate of [target_var]'s
    marginal, checked every 10 sweeps, is within [tolerance] (default
    0.01) of [target_prob]; [None] if [max_sweeps] (default 100_000) is
    exhausted.  Used by the
    convergence experiments of Figure 13. *)
