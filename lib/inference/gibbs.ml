module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

let conditional adj g assignment v = Stats.sigmoid (Graph.flip_energy g adj.(v) assignment v)

let conditional_true_prob g assignment v = conditional (Graph.factors_of_var g) g assignment v

let sweep_with adj rng g assignment =
  let n = Graph.num_vars g in
  for v = 0 to n - 1 do
    match Graph.evidence_of g v with
    | Graph.Query -> assignment.(v) <- Prng.bernoulli rng (conditional adj g assignment v)
    | Graph.Evidence _ -> ()
  done

let sweep rng g assignment = sweep_with (Graph.factors_of_var g) rng g assignment

let init_assignment rng g = Graph.freeze_assignment ~query:(fun () -> Prng.bool rng) g

let run ?(burn_in = 0) ?init rng g ~sweeps ~on_sweep =
  let assignment = match init with Some a -> a | None -> init_assignment rng g in
  let adj = Graph.factors_of_var g in
  for _ = 1 to burn_in do
    sweep_with adj rng g assignment
  done;
  for i = 1 to sweeps do
    sweep_with adj rng g assignment;
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
  let adj = Graph.factors_of_var g in
  (try
     for i = 1 to max_sweeps do
       sweep_with adj rng g assignment;
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
