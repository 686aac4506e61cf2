module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Metropolis = Dd_inference.Metropolis
module Approx = Dd_variational.Approx
module Par_gibbs = Dd_parallel.Par_gibbs

type t = {
  samples : bool array array;
  variational : Graph.t option;
  base_weights : float array;
  base_bodies : int array;
  base_evidence : Graph.evidence array;
  samples_used : int;
}

let materialize ~n_samples ~burn_in ~lambda ~with_variational ~domains ~kernel rng =
  let g = Compiled.graph kernel in
  (* [domains = 1] is one compiled chain from [rng]; above that the
     sample store is drawn by independent chains, one per domain. *)
  let samples = Par_gibbs.sample_worlds ~burn_in ~kernel ~domains rng ~n:n_samples in
  let variational =
    if with_variational then begin
      let approx, _stats = Approx.materialize ~lambda rng g ~samples in
      Some approx
    end
    else None
  in
  {
    samples;
    variational;
    base_weights = Array.init (Graph.num_weights g) (Graph.weight_value g);
    base_bodies =
      Array.init (Graph.num_factors g) (fun f -> Array.length (Graph.factor g f).Graph.bodies);
    base_evidence = Array.init (Graph.num_vars g) (Graph.evidence_of g);
    samples_used = 0;
  }

let cumulative_change m g =
  let base_factors = Array.length m.base_bodies and base_vars = Array.length m.base_evidence in
  let new_factor_ids =
    List.init (Graph.num_factors g - base_factors) (fun i -> base_factors + i)
  in
  let new_vars = List.init (Graph.num_vars g - base_vars) (fun i -> base_vars + i) in
  let extended_factors = ref [] in
  for f = base_factors - 1 downto 0 do
    let original = m.base_bodies.(f) in
    if Array.length (Graph.factor g f).Graph.bodies > original then
      extended_factors := (f, original) :: !extended_factors
  done;
  let changed_weights = ref [] in
  for w = 0 to Array.length m.base_weights - 1 do
    let now = Graph.weight_value g w in
    if now <> m.base_weights.(w) then changed_weights := (w, m.base_weights.(w)) :: !changed_weights
  done;
  let evidence_changes = ref [] in
  for v = 0 to base_vars - 1 do
    let now = Graph.evidence_of g v in
    if now <> m.base_evidence.(v) then evidence_changes := (v, m.base_evidence.(v)) :: !evidence_changes
  done;
  {
    Metropolis.graph = g;
    new_factor_ids;
    extended_factors = !extended_factors;
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

let variational_infer ~sweeps ~burn_in rng ~approx ~change =
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
