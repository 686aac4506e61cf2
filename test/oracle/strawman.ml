module Graph = Dd_fgraph.Graph
module Metropolis = Dd_inference.Metropolis

type t = { worlds : (bool array * float) array }

let materialize g = { worlds = Array.of_list (Exact.enumerate g) }

let marginals s change =
  let nvars = Graph.num_vars change.Metropolis.graph in
  (* Reweight each stored world by exp(delta); new variables do not exist
     in stored worlds and are marginalized by extending each world both
     ways would be exponential — the strawman is only used on unchanged
     variable sets, so we require none. *)
  if change.Metropolis.new_vars <> [] then
    invalid_arg "Strawman.marginals: strawman cannot absorb new variables";
  let reweighted =
    Array.map
      (fun (world, p) ->
        let delta = Metropolis.delta_log_weight change world in
        (world, p *. exp delta))
      s.worlds
  in
  let z = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 reweighted in
  let marginals = Array.make nvars 0.0 in
  Array.iter
    (fun (world, p) ->
      for v = 0 to min nvars (Array.length world) - 1 do
        if world.(v) then marginals.(v) <- marginals.(v) +. p
      done)
    reweighted;
  Array.map (fun m -> if z > 0.0 then m /. z else 0.0) marginals
