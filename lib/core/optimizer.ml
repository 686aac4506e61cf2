module Metropolis = Dd_inference.Metropolis

type observation = {
  enumerable : bool;
  stored_samples : int;
  samples_used : int;
  variational_built : bool;
  disable_sampling : bool;
  workload_aware : bool;
  chain : int;
  acceptance_floor : float;
}

type decision = Exact | Sampling | Variational | Real_graph_chain

let probe_length o = max 1 (min 150 (o.stored_samples - 1))

let decide o ~change =
  if o.enumerable then Exact
  else if o.disable_sampling || o.stored_samples - o.samples_used <= probe_length o then
    if o.variational_built then Variational else Real_graph_chain
  else if (not o.variational_built) || not o.workload_aware then Sampling
  else if (Lazy.force change).Metropolis.evidence_changes <> [] then Variational (* rule 2 *)
  else Sampling (* rules 1 and 3 *)

type after_probe = Mh_chain of int | Resort_to_variational

let after_probe o ~acceptance =
  if acceptance < o.acceptance_floor && o.variational_built then Resort_to_variational
  else
    Mh_chain
      (min (o.chain * 10) (int_of_float (ceil (float_of_int o.chain /. max acceptance 0.02))))
