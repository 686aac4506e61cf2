(** The rule-based optimizer of Section 3.3.

    Neither materialization strategy dominates (Figure 5), so DeepDive
    materializes both and defers the choice to the inference phase, when the
    workload is observable.  The rules, in order:

    + if the update does not change the structure of the graph, choose the
      sampling approach;
    + if the update modifies the evidence, choose the variational approach;
    + if the update introduces new features, choose the sampling approach;
    + if we run out of samples, use the variational approach. *)

module Metropolis = Dd_inference.Metropolis

type strategy =
  | Sampling
  | Variational

type profile = {
  changes_structure : bool;  (** new variables, factors, or groundings *)
  modifies_evidence : bool;
  introduces_features : bool;  (** new or moved learnable weights *)
}

val profile_of_change : Metropolis.change -> profile

val choose : profile -> samples_exhausted:bool -> strategy
