module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

let conditional_true_prob g assignment v =
  let lookup v' = assignment.(v') in
  let energy_with value =
    let saved = assignment.(v) in
    assignment.(v) <- value;
    let acc =
      List.fold_left
        (fun acc fi -> acc +. Graph.factor_energy g (Graph.factor g fi) lookup)
        0.0 (Graph.factors_of_var g v)
    in
    assignment.(v) <- saved;
    acc
  in
  Stats.sigmoid (energy_with true -. energy_with false)

let resample_var rng g assignment v =
  assignment.(v) <- Prng.bernoulli rng (conditional_true_prob g assignment v)

let sweep rng g assignment =
  let n = Graph.num_vars g in
  for v = 0 to n - 1 do
    match Graph.evidence_of g v with
    | Graph.Query -> resample_var rng g assignment v
    | Graph.Evidence _ -> ()
  done

let init_assignment rng g =
  Array.init (Graph.num_vars g) (fun v ->
      match Graph.evidence_of g v with
      | Graph.Evidence b -> b
      | Graph.Query -> Prng.bool rng)

let run ?(burn_in = 0) ?init rng g ~sweeps ~on_sweep =
  let assignment = match init with Some a -> a | None -> init_assignment rng g in
  for _ = 1 to burn_in do
    sweep rng g assignment
  done;
  for i = 1 to sweeps do
    sweep rng g assignment;
    on_sweep i assignment
  done

let marginals ?(burn_in = 10) rng g ~sweeps =
  let n = Graph.num_vars g in
  let totals = Array.make n 0 in
  run ~burn_in rng g ~sweeps ~on_sweep:(fun _ a ->
      for v = 0 to n - 1 do
        if a.(v) then totals.(v) <- totals.(v) + 1
      done);
  Array.map (fun c -> float_of_int c /. float_of_int (max 1 sweeps)) totals

let sample_worlds ?(burn_in = 10) ?(spacing = 1) rng g ~n =
  let out = Array.make n [||] in
  let seen = ref 0 in
  run ~burn_in rng g
    ~sweeps:(n * spacing)
    ~on_sweep:(fun i a ->
      if i mod spacing = 0 && !seen < n then begin
        out.(!seen) <- Array.copy a;
        incr seen
      end);
  out

let sweeps_to_converge ?(tolerance = 0.01) ?(max_sweeps = 100_000) rng g ~target_var
    ~target_prob =
  let check_every = 10 in
  let trues = ref 0 and total = ref 0 in
  let converged_at = ref None in
  let assignment = init_assignment rng g in
  (try
     for i = 1 to max_sweeps do
       sweep rng g assignment;
       if assignment.(target_var) then incr trues;
       incr total;
       if i mod check_every = 0 then begin
         let estimate = float_of_int !trues /. float_of_int !total in
         if abs_float (estimate -. target_prob) <= tolerance then begin
           converged_at := Some i;
           raise Exit
         end
       end
     done
   with Exit -> ());
  !converged_at
