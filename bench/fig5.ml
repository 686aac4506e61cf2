(* Figure 5: the materialization tradeoff space on synthetic factor graphs.
   (a) cost vs graph size, (b) inference cost vs acceptance rate,
   (c) inference cost vs sparsity of correlations. *)

open Harness
module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Metropolis = Dd_inference.Metropolis
module Materialize = Dd_core.Materialize
module Strawman = Dd_oracle.Strawman
module Approx = Dd_variational.Approx
module Prng = Dd_util.Prng
module Timer = Dd_util.Timer
module Table = Dd_util.Table

let samples_materialized = 200
let accepted_goal = 100

(* Inference time of the sampling approach: enough proposals for roughly
   [accepted_goal] accepted samples at the probed acceptance rate. *)
let sampling_inference_time rng change ~stored =
  let probe =
    (mh_chain (Prng.copy rng) change ~stored ~chain_length:(min 50 (Array.length stored)))
      .Metropolis.acceptance_rate
  in
  let chain_length =
    int_of_float (ceil (float_of_int accepted_goal /. max 0.005 probe))
  in
  let result = ref None in
  let seconds =
    Timer.time_s (fun () -> result := Some (mh_chain rng change ~stored ~chain_length))
  in
  (seconds, (Option.get !result).Metropolis.acceptance_rate)

let variational_inference_time rng ~approx ~change =
  Timer.time_s (fun () ->
      ignore (Materialize.variational_infer ~sweeps:accepted_goal ~burn_in:10 rng ~approx ~change))

let fig5a ~full =
  section "Figure 5(a): cost vs number of variables";
  note
    "Strawman materializes all 2^n worlds (infeasible past ~20 vars); sampling\n\
     and variational stay tractable.  Times in seconds; '-' = not applicable.";
  let sizes = if full then [ 2; 10; 17; 100; 1000; 10000 ] else [ 2; 10; 17; 100; 1000 ] in
  let variational_limit = if full then 400 else 200 in
  let mat = Table.create [ "n"; "straw mat"; "sample mat"; "var mat"; "straw inf"; "sample inf"; "var inf" ] in
  List.iter
    (fun n ->
      let rng = Prng.create (1000 + n) in
      let g = synthetic_graph rng n in
      (* Materialization. *)
      let strawman = ref None in
      let straw_mat =
        if n <= 17 then Some (Timer.time_s (fun () -> strawman := Some (Strawman.materialize g)))
        else None
      in
      let stored = ref [||] in
      let sample_mat =
        Timer.time_s (fun () ->
            stored :=
              Compiled.sample_worlds ~burn_in:10 rng (Compiled.compile g) ~n:samples_materialized)
      in
      let approx = ref None in
      let var_mat =
        if n <= variational_limit then
          Some
            (Timer.time_s (fun () ->
                 approx := Some (fst (Approx.materialize ~lambda:0.1 rng g ~samples:!stored))))
        else None
      in
      (* Inference after a mild update. *)
      let change = perturb_weights rng g 0.05 in
      let straw_inf =
        Option.map
          (fun _ ->
            Timer.time_s (fun () ->
                ignore (Strawman.marginals (Option.get !strawman) change)))
          straw_mat
      in
      let sample_inf, _rate = sampling_inference_time rng change ~stored:!stored in
      let var_inf =
        Option.map (fun a -> variational_inference_time rng ~approx:a ~change) !approx
      in
      restore_weights g change;
      let cell = function Some t -> Table.cell_f t | None -> "-" in
      Table.add_row mat
        [
          string_of_int n;
          cell straw_mat;
          Table.cell_f sample_mat;
          cell var_mat;
          cell straw_inf;
          Table.cell_f sample_inf;
          cell var_inf;
        ])
    sizes;
  Table.print mat

let fig5b ~full =
  section "Figure 5(b): inference cost vs acceptance rate";
  note
    "Sampling dominates at high acceptance (stored samples are reused almost\n\
     for free) and loses at low acceptance, where the variational approach's\n\
     flat cost wins.";
  let n = if full then 200 else 100 in
  let rng = Prng.create 7 in
  let g = synthetic_graph rng n in
  let stored =
    Compiled.sample_worlds ~burn_in:20 rng (Compiled.compile g) ~n:(samples_materialized * 4)
  in
  let approx, _ = Approx.materialize ~lambda:0.1 rng g ~samples:stored in
  let table = Table.create [ "target accept"; "measured accept"; "sampling (s)"; "variational (s)" ] in
  List.iter
    (fun target ->
      let delta = calibrate_acceptance rng g ~stored ~target in
      let change = perturb_weights rng g delta in
      let sample_seconds, measured = sampling_inference_time rng change ~stored in
      let var_seconds = variational_inference_time rng ~approx ~change in
      restore_weights g change;
      Table.add_row table
        [
          Table.cell_f target;
          Table.cell_f measured;
          Table.cell_f sample_seconds;
          Table.cell_f var_seconds;
        ])
    [ 1.0; 0.5; 0.1; 0.01 ];
  Table.print table

let fig5c ~full =
  section "Figure 5(c): inference cost vs sparsity of correlations";
  note
    "Sparser correlations give the variational approach a smaller approximate\n\
     graph and proportionally faster inference; the sampling approach's cost\n\
     is driven by acceptance, not sparsity.";
  let n = if full then 200 else 100 in
  let table =
    Table.create [ "sparsity"; "approx factors"; "sampling (s)"; "variational (s)" ]
  in
  List.iter
    (fun sparsity ->
      let rng = Prng.create 13 in
      let g = synthetic_graph ~sparsity ~extra_per_var:3 rng n in
      let stored =
        Compiled.sample_worlds ~burn_in:20 rng (Compiled.compile g) ~n:(4 * samples_materialized)
      in
      let solver = { Dd_variational.Logdet.default with Dd_variational.Logdet.prune_below = 2e-3 } in
      let approx, stats = Approx.materialize ~lambda:0.005 ~solver rng g ~samples:stored in
      (* A moderate update so the sampling approach must do real work. *)
      let delta = calibrate_acceptance rng g ~stored ~target:0.2 in
      let change = perturb_weights rng g delta in
      let sample_seconds, _ = sampling_inference_time rng change ~stored in
      let var_seconds = variational_inference_time rng ~approx ~change in
      restore_weights g change;
      Table.add_row table
        [
          Table.cell_f sparsity;
          string_of_int stats.Approx.pairwise_factors;
          Table.cell_f sample_seconds;
          Table.cell_f var_seconds;
        ])
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 1.0 ];
  Table.print table

let () =
  register "fig5a" "Figure 5(a): cost vs graph size" fig5a;
  register "fig5b" "Figure 5(b): cost vs acceptance rate" fig5b;
  register "fig5c" "Figure 5(c): cost vs sparsity" fig5c
