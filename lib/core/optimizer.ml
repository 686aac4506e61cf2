module Metropolis = Dd_inference.Metropolis
module Graph = Dd_fgraph.Graph

type strategy =
  | Sampling
  | Variational

type profile = {
  changes_structure : bool;
  modifies_evidence : bool;
  introduces_features : bool;
}

let profile_of_change (c : Metropolis.change) =
  let moved_learnable =
    List.exists
      (fun (w, old_value) ->
        Graph.weight_learnable c.Metropolis.graph w
        && Graph.weight_value c.Metropolis.graph w <> old_value)
      c.Metropolis.changed_weights
  in
  {
    changes_structure =
      c.Metropolis.new_factor_ids <> []
      || c.Metropolis.extended_factors <> []
      || c.Metropolis.new_vars <> [];
    modifies_evidence = c.Metropolis.evidence_changes <> [];
    introduces_features = moved_learnable;
  }

let choose p ~samples_exhausted =
  if samples_exhausted then Variational
  else if (not p.changes_structure) && not p.modifies_evidence then Sampling
  else if p.modifies_evidence then Variational
  else Sampling
