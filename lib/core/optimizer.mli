(** The rule-based optimizer of Section 3.3: one inference strategy per
    update, from what the engine observes.

    Neither materialization strategy dominates (Figure 5), so DeepDive
    materializes both and defers the choice to the inference phase, when the
    workload is observable.  {!decide} applies, in order:

    + the exact rule: every coupled component small ([enumerable]) → exact;
    + lesions and availability: no usable sample store (none drawn, or
      NoSampling) → variational, or the real-graph chain without that
      artifact too; no variational artifact (the NoRelaxation lesion) →
      sampling;
    + exhaustion: the next chain would run out of samples → variational;
    + NoWorkloadInfo → sampling;
    + Section 3.3 on the change: an evidence change → variational (rule 2);
      otherwise sampling, the default arm — the update either leaves the
      structure alone (rule 1) or introduces features (rule 3). *)

module Metropolis = Dd_inference.Metropolis

type observation = {
  enumerable : bool;  (** {!Dd_inference.Compiled.enumerable} on the live kernel *)
  stored_samples : int;
  samples_used : int;  (** MH proposals spent since materialization *)
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
(** A sampling pick first probes the MH acceptance rate ρ over this many
    proposals. *)

type after_probe = Mh_chain of int | Resort_to_variational

val after_probe : observation -> acceptance:float -> after_probe
(** [Mh_chain (min (10·chain) ⌈chain / max ρ 0.02⌉)], about [chain]
    effective samples; below [acceptance_floor], with a variational
    artifact, the method "resorts to another evaluation method"
    (Section 3.2.2). *)
