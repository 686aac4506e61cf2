(* The marginal estimator that sweeps every query variable: a fresh
   compiled chain that resamples the whole query set each sweep and
   counts, per variable, the post-burn-in sweeps in which it was true.
   It is the reference for [Dd_inference.Compiled.marginals] and
   [Dd_parallel.Par_gibbs.marginals], which read isolated query variables
   in closed form and sweep only the coupled ones: on a graph with no
   isolated query variable they must return these exact bits. *)

module Compiled = Dd_inference.Compiled
module Budget = Dd_util.Budget

let marginals ?(burn_in = 10) ?(budget = Budget.unlimited) rng k ~sweeps =
  let st = Compiled.make_state rng k in
  for _ = 1 to burn_in do
    Budget.check budget "compiled.burn_in_sweep";
    Compiled.sweep rng st
  done;
  let n = Compiled.num_vars k in
  let totals = Array.make n 0 in
  for _ = 1 to sweeps do
    Budget.check budget "compiled.sweep";
    Compiled.sweep rng st;
    for v = 0 to n - 1 do
      if Compiled.value st v then totals.(v) <- totals.(v) + 1
    done
  done;
  Array.map (fun c -> float_of_int c /. float_of_int (max 1 sweeps)) totals
