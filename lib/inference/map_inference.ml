module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

type result = {
  assignment : bool array;
  log_weight : float;
  sweeps : int;
}

let default_schedule ~sweeps i =
  let t0 = 2.0 and t1 = 0.05 in
  let progress = float_of_int i /. float_of_int (max 1 (sweeps - 1)) in
  t0 *. ((t1 /. t0) ** progress)

(* Energy difference of setting [v] to true vs false, over adjacent
   factors. *)
let local_delta g assignment v =
  let lookup v' = assignment.(v') in
  let energy_with value =
    let saved = assignment.(v) in
    assignment.(v) <- value;
    let acc =
      List.fold_left
        (fun acc fid -> acc +. Graph.factor_energy g (Graph.factor g fid) lookup)
        0.0 (Graph.factors_of_var g v)
    in
    assignment.(v) <- saved;
    acc
  in
  energy_with true -. energy_with false

let greedy_refine g assignment =
  let flips = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    for v = 0 to Graph.num_vars g - 1 do
      match Graph.evidence_of g v with
      | Graph.Evidence _ -> ()
      | Graph.Query ->
        let delta = local_delta g assignment v in
        if abs_float delta > 1e-12 then begin
          let desired = delta > 0.0 in
          if desired <> assignment.(v) then begin
            assignment.(v) <- desired;
            incr flips;
            improved := true
          end
        end
    done
  done;
  !flips

let search ?(sweeps = 500) ?init rng g =
  let schedule = default_schedule ~sweeps in
  let assignment =
    match init with Some a -> Array.copy a | None -> Gibbs.init_assignment rng g
  in
  let best = Array.copy assignment in
  let lookup_of a v = a.(v) in
  let best_weight = ref (Graph.total_energy g (lookup_of best)) in
  let current_weight = ref !best_weight in
  for i = 0 to sweeps - 1 do
    let temperature = max 1e-6 (schedule i) in
    for v = 0 to Graph.num_vars g - 1 do
      match Graph.evidence_of g v with
      | Graph.Evidence _ -> ()
      | Graph.Query ->
        let delta = local_delta g assignment v in
        let p_true = Stats.sigmoid (delta /. temperature) in
        let fresh = Prng.bernoulli rng p_true in
        if fresh <> assignment.(v) then begin
          current_weight :=
            !current_weight +. (if fresh then delta else -.delta);
          assignment.(v) <- fresh
        end
    done;
    if !current_weight > !best_weight then begin
      best_weight := !current_weight;
      Array.blit assignment 0 best 0 (Array.length assignment)
    end
  done;
  ignore (greedy_refine g best);
  { assignment = best; log_weight = Graph.total_energy g (lookup_of best); sweeps }
