module Graph = Dd_fgraph.Graph
module Exact = Dd_fgraph.Exact
module Compiled = Dd_inference.Compiled
module Metropolis = Dd_inference.Metropolis
module Approx = Dd_variational.Approx
module Par_gibbs = Dd_parallel.Par_gibbs
module Timer = Dd_util.Timer

type strawman = { worlds : (bool array * float) array }

let strawman g = { worlds = Array.of_list (Exact.enumerate g) }

let strawman_marginals s change =
  let nvars = Graph.num_vars change.Metropolis.graph in
  (* Reweight each stored world by exp(delta); new variables do not exist
     in stored worlds and are marginalized by extending each world both
     ways would be exponential — the strawman is only used on unchanged
     variable sets, so we require none. *)
  if change.Metropolis.new_vars <> [] then
    invalid_arg "Materialize.strawman_marginals: strawman cannot absorb new variables";
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

type t = {
  samples : bool array array;
  variational : Graph.t option;
  base_weights : float array;
  base_factor_count : int;
  base_var_count : int;
  base_evidence : Graph.evidence array;
}

let baseline g =
  ( Array.init (Graph.num_weights g) (Graph.weight_value g),
    Graph.num_factors g,
    Graph.num_vars g,
    Array.init (Graph.num_vars g) (Graph.evidence_of g) )

let materialize ?(n_samples = 200) ?(burn_in = 20) ?(lambda = 0.1)
    ?(variational_var_limit = 600) ?(with_variational = true) ?(domains = 1) ~kernel rng =
  let g = Compiled.graph kernel in
  (* [domains = 1] is one compiled chain from [rng]; above that the
     sample store is drawn by independent chains, one per domain. *)
  let samples = Par_gibbs.sample_worlds ~burn_in ~kernel ~domains rng ~n:n_samples in
  let variational =
    if with_variational && Graph.num_vars g <= variational_var_limit then begin
      let approx, _stats = Approx.materialize ~lambda rng g ~samples in
      Some approx
    end
    else None
  in
  let base_weights, base_factor_count, base_var_count, base_evidence = baseline g in
  { samples; variational; base_weights; base_factor_count; base_var_count; base_evidence }

let materialize_within_budget ?(burn_in = 20) rng g ~seconds =
  let timer = Timer.start () in
  let st = Compiled.make_state rng (Compiled.compile g) in
  for _ = 1 to burn_in do
    Compiled.sweep rng st
  done;
  let acc = ref [] in
  while Timer.elapsed_s timer < seconds do
    Compiled.sweep rng st;
    acc := Compiled.snapshot st :: !acc
  done;
  let base_weights, base_factor_count, base_var_count, base_evidence = baseline g in
  {
    samples = Array.of_list (List.rev !acc);
    variational = None;
    base_weights;
    base_factor_count;
    base_var_count;
    base_evidence;
  }

let cumulative_change m g ~extension_origin =
  let new_factor_ids =
    List.init (Graph.num_factors g - m.base_factor_count) (fun i -> m.base_factor_count + i)
  in
  let new_vars =
    List.init (Graph.num_vars g - m.base_var_count) (fun i -> m.base_var_count + i)
  in
  let extended_factors =
    Hashtbl.fold
      (fun fid original acc ->
        if fid < m.base_factor_count then (fid, original) :: acc else acc)
      extension_origin []
  in
  let changed_weights = ref [] in
  for w = 0 to Array.length m.base_weights - 1 do
    let now = Graph.weight_value g w in
    if now <> m.base_weights.(w) then changed_weights := (w, m.base_weights.(w)) :: !changed_weights
  done;
  let evidence_changes = ref [] in
  for v = 0 to m.base_var_count - 1 do
    let now = Graph.evidence_of g v in
    if now <> m.base_evidence.(v) then evidence_changes := (v, m.base_evidence.(v)) :: !evidence_changes
  done;
  {
    Metropolis.graph = g;
    new_factor_ids;
    extended_factors;
    changed_weights = !changed_weights;
    new_vars;
    evidence_changes = !evidence_changes;
  }

(* Import one factor of the updated full graph into the approximate graph,
   mapping its weight to a fresh weight carrying the current value. *)
let import_factor approx full (f : Graph.factor) ~bodies =
  let w = Graph.add_weight approx (Graph.weight_value full f.Graph.weight_id) in
  ignore
    (Graph.add_factor approx
       { Graph.head = f.Graph.head; bodies; weight_id = w; semantics = f.Graph.semantics })

let variational_infer ?(sweeps = 200) ?(burn_in = 20) rng ~approx ~change =
  let full = change.Metropolis.graph in
  let working = Graph.copy approx in
  (* New variables (evidence synced below). *)
  for _ = Graph.num_vars working to Graph.num_vars full - 1 do
    ignore (Graph.add_var working)
  done;
  (* Sync evidence across the whole graph. *)
  for v = 0 to Graph.num_vars full - 1 do
    Graph.set_evidence working v (Graph.evidence_of full v)
  done;
  (* New factors come over verbatim (with their current weights). *)
  List.iter
    (fun fid ->
      let f = Graph.factor full fid in
      import_factor working full f ~bodies:f.Graph.bodies)
    change.Metropolis.new_factor_ids;
  (* Extended factors contribute their delta bodies as additional factors
     (exact under linear semantics; a documented approximation otherwise). *)
  List.iter
    (fun (fid, old_count) ->
      let f = Graph.factor full fid in
      let total = Array.length f.Graph.bodies in
      if total > old_count then begin
        let bodies = Array.sub f.Graph.bodies old_count (total - old_count) in
        import_factor working full f ~bodies
      end)
    change.Metropolis.extended_factors;
  Compiled.marginals ~burn_in rng (Compiled.compile working) ~sweeps
