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

(* [adj] is [Graph.factors_of_var g], built once per run; each flip reads
   the energy difference of [v]'s factors. *)
let refine adj g assignment =
  let flips = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    for v = 0 to Graph.num_vars g - 1 do
      match Graph.evidence_of g v with
      | Graph.Evidence _ -> ()
      | Graph.Query ->
        let delta = Graph.flip_energy g adj.(v) assignment v in
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

let greedy_refine g assignment = refine (Graph.factors_of_var g) g assignment

let search ?(sweeps = 500) ?init rng g =
  let schedule = default_schedule ~sweeps in
  let assignment =
    match init with
    | Some a -> Array.copy a
    | None -> Graph.freeze_assignment ~query:(fun () -> Prng.bool rng) g
  in
  let adj = Graph.factors_of_var g in
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
        let delta = Graph.flip_energy g adj.(v) assignment v in
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
  ignore (refine adj g best);
  { assignment = best; log_weight = Graph.total_energy g (lookup_of best); sweeps }
