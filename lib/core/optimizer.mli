(** The rule-based optimizer of Section 3.3: one inference strategy per
    update, from what the engine observes.

    Neither materialization strategy dominates (Figure 5), so DeepDive
    materializes both and defers the choice to the inference phase, when the
    workload is observable.  {!decide} applies, in order:

    + the exact rule: every coupled component small ([enumerable]) → exact;
    + availability: NoSampling, or fewer fresh stored worlds after the
      store cursor ([samples_used]) than a probe reads (its start and
      {!probe_length} proposals; an empty store never has them) →
      variational, or the real-graph chain without that artifact too;
    + lesions: no variational artifact (the NoRelaxation lesion) or
      NoWorkloadInfo → sampling;
    + Section 3.3 on the change: an evidence change → variational (rule 2);
      otherwise sampling, the default arm — the update either leaves the
      structure alone (rule 1) or introduces features (rule 3). *)

module Metropolis = Dd_inference.Metropolis

type observation = {
  enumerable : bool;  (** {!Dd_inference.Compiled.enumerable} on the live kernel *)
  stored_samples : int;
  samples_used : int;  (** the store cursor: stored worlds MH chains have read *)
  variational_built : bool;
  disable_sampling : bool;  (** the NoSampling lesion *)
  workload_aware : bool;  (** false = the NoWorkloadInfo lesion *)
  chain : int;  (** MH proposals / Gibbs sweeps per inference *)
  acceptance_floor : float;
}

type decision = Exact | Sampling | Variational | Real_graph_chain

val decide : observation -> change:Metropolis.change Lazy.t -> decision
(** [change], the update against the materialization, is forced only when
    the Section 3.3 rules are reached. *)

val probe_length : observation -> int
(** [max 1 (min 150 (stored_samples − 1))]: the proposals that open a
    sampling pick's chain and probe its acceptance rate ρ. *)

type after_probe = Mh_chain of int | Resort_to_variational

val after_probe : observation -> acceptance:float -> after_probe
(** [Mh_chain (min (10·chain) ⌈chain / max ρ 0.02⌉)]: the same chain goes
    on to that many proposals in all, probe included, for about [chain]
    effective samples, and stops early at the store's end; below
    [acceptance_floor], with a variational artifact, the method "resorts
    to another evaluation method" (Section 3.2.2). *)
