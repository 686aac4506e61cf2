(* Tests for Dd_inference: Gibbs sampling against exact marginals, the
   independent Metropolis-Hastings incremental sampler, and the learners. *)

module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Exact = Dd_oracle.Exact
module Gibbs = Dd_oracle.Gibbs
module Metropolis = Dd_inference.Metropolis
module Learner = Dd_inference.Learner
module Learner_ref = Dd_oracle.Learner_ref
module Compiled = Dd_inference.Compiled
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

let check_close epsilon = Alcotest.(check (float epsilon))

let lit ?(negated = false) var = { Graph.var; negated }

(* A small random-ish test graph: unary biases + a few pairwise couplings. *)
let small_graph () =
  let g = Graph.create () in
  let vars = Graph.add_vars g 5 in
  let biases = [| 0.4; -0.6; 0.2; 0.0; -0.3 |] in
  Array.iteri
    (fun idx v ->
      let w = Graph.add_weight g biases.(idx) in
      ignore (Graph.unary g ~weight:w v))
    vars;
  let couple a b value =
    let w = Graph.add_weight g value in
    ignore (Graph.pairwise g ~weight:w vars.(a) vars.(b))
  in
  couple 0 1 0.7;
  couple 1 2 (-0.5);
  couple 3 4 1.0;
  g

(* --- gibbs -------------------------------------------------------------- *)

let test_conditional_probability () =
  (* Single unary factor: P(v | nothing) = sigmoid(w). *)
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 1.1 in
  ignore (Graph.unary g ~weight:w a);
  let assignment = [| false |] in
  check_close 1e-9 "sigmoid" (Stats.sigmoid 1.1) (Gibbs.conditional_true_prob g assignment a)

let test_conditional_uses_neighbors () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g 2.0 in
  ignore (Graph.pairwise g ~weight:w a b);
  check_close 1e-9 "b true" (Stats.sigmoid 2.0)
    (Gibbs.conditional_true_prob g [| false; true |] a);
  check_close 1e-9 "b false" 0.5 (Gibbs.conditional_true_prob g [| false; false |] a)

let test_gibbs_respects_evidence () =
  let g = Graph.create () in
  let a = Graph.add_var ~evidence:(Graph.Evidence true) g in
  let b = Graph.add_var g in
  let w = Graph.add_weight g (-5.0) in
  ignore (Graph.unary g ~weight:w a);
  ignore (Graph.unary g ~weight:w b);
  let rng = Prng.create 1 in
  let marginals = Gibbs.marginals ~burn_in:10 rng g ~sweeps:200 in
  check_close 0.0 "evidence stays clamped" 1.0 marginals.(a);
  Alcotest.(check bool) "query follows bias" true (marginals.(b) < 0.1)

let gibbs_close_to_exact g ~sweeps ~tolerance =
  let rng = Prng.create 11 in
  let estimated = Gibbs.marginals ~burn_in:100 rng g ~sweeps in
  let exact = Exact.marginals g in
  Stats.max_abs_diff estimated exact <= tolerance

let test_gibbs_matches_exact_small () =
  Alcotest.(check bool) "within 3%" true
    (gibbs_close_to_exact (small_graph ()) ~sweeps:20_000 ~tolerance:0.03)

let test_gibbs_matches_exact_implication () =
  let g = Graph.create () in
  let h = Graph.add_var g and b1 = Graph.add_var g and b2 = Graph.add_var g in
  let w = Graph.add_weight g 1.2 in
  ignore
    (Graph.add_factor g
       {
         Graph.head = Some h;
         bodies = [| [| lit b1; lit b2 |] |];
         weight_id = w;
         semantics = Semantics.Ratio;
       });
  let wb = Graph.add_weight g 0.8 in
  ignore (Graph.unary g ~weight:wb b1);
  ignore (Graph.unary g ~weight:wb b2);
  Alcotest.(check bool) "within 3%" true (gibbs_close_to_exact g ~sweeps:20_000 ~tolerance:0.03)

let test_gibbs_matches_exact_negated () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g 0.9 in
  ignore
    (Graph.add_factor g
       {
         Graph.head = None;
         bodies = [| [| lit a; lit ~negated:true b |] |];
         weight_id = w;
         semantics = Semantics.Logical;
       });
  Alcotest.(check bool) "within 3%" true (gibbs_close_to_exact g ~sweeps:20_000 ~tolerance:0.03)

let test_sample_worlds_shape () =
  let g = small_graph () in
  let rng = Prng.create 3 in
  let samples = Gibbs.sample_worlds ~burn_in:5 ~spacing:2 rng g ~n:17 in
  Alcotest.(check int) "n samples" 17 (Array.length samples);
  Array.iter
    (fun world -> Alcotest.(check int) "world width" (Graph.num_vars g) (Array.length world))
    samples

let test_run_on_sweep_called () =
  let g = small_graph () in
  let calls = ref 0 in
  Gibbs.run (Prng.create 4) g ~sweeps:13 ~on_sweep:(fun _ _ -> incr calls);
  Alcotest.(check int) "called per sweep" 13 !calls

let test_sweeps_to_converge () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 0.5 in
  ignore (Graph.unary g ~weight:w a);
  match
    Gibbs.sweeps_to_converge ~tolerance:0.02 (Prng.create 5) g ~target_var:a
      ~target_prob:(Stats.sigmoid 0.5)
  with
  | Some sweeps -> Alcotest.(check bool) "converges quickly" true (sweeps < 10_000)
  | None -> Alcotest.fail "did not converge"

(* --- metropolis -------------------------------------------------------------- *)

let test_unchanged_full_acceptance () =
  let g = small_graph () in
  let rng = Prng.create 6 in
  let stored = Gibbs.sample_worlds ~burn_in:50 rng g ~n:100 in
  let result =
    Metropolis.infer (Prng.create 7) (Metropolis.unchanged g) ~stored ~first:0 ~proposals:100
  in
  check_close 0.0 "acceptance 1.0" 1.0 result.Metropolis.acceptance_rate

let test_delta_log_weight_new_factor () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g 1.5 in
  let fid = Graph.pairwise g ~weight:w a b in
  let change = { (Metropolis.unchanged g) with Metropolis.new_factor_ids = [ fid ] } in
  check_close 1e-12 "both true" 1.5 (Metropolis.delta_log_weight change [| true; true |]);
  check_close 1e-12 "one false" 0.0 (Metropolis.delta_log_weight change [| true; false |])

let test_delta_log_weight_weight_change () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 2.0 in
  ignore (Graph.unary g ~weight:w a);
  (* Weight moved from 0.5 to 2.0: delta = (2.0 - 0.5) * 1{a}. *)
  let change = { (Metropolis.unchanged g) with Metropolis.changed_weights = [ (w, 0.5) ] } in
  check_close 1e-12 "a true" 1.5 (Metropolis.delta_log_weight change [| true |]);
  check_close 1e-12 "a false" 0.0 (Metropolis.delta_log_weight change [| false |])

let test_delta_log_weight_zero_current_weight () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 0.0 in
  ignore (Graph.unary g ~weight:w a);
  (* Weight moved from 1.0 down to 0.0. *)
  let change = { (Metropolis.unchanged g) with Metropolis.changed_weights = [ (w, 1.0) ] } in
  check_close 1e-12 "a true" (-1.0) (Metropolis.delta_log_weight change [| true |])

let test_delta_log_weight_evidence_violation () =
  let g = Graph.create () in
  let a = Graph.add_var ~evidence:(Graph.Evidence true) g in
  let change =
    { (Metropolis.unchanged g) with Metropolis.evidence_changes = [ (a, Graph.Query) ] }
  in
  Alcotest.(check bool) "violating world -inf" true
    (Metropolis.delta_log_weight change [| false |] = neg_infinity);
  check_close 0.0 "satisfying world fine" 0.0 (Metropolis.delta_log_weight change [| true |])

let test_delta_log_weight_extension () =
  let g = Graph.create () in
  let h = Graph.add_var g and b1 = Graph.add_var g and b2 = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  let fid =
    Graph.add_factor g
      {
        Graph.head = Some h;
        bodies = [| [| lit b1 |] |];
        weight_id = w;
        semantics = Semantics.Linear;
      }
  in
  Graph.extend_factor g fid [| [| lit b2 |] |];
  let change =
    { (Metropolis.unchanged g) with Metropolis.extended_factors = [ (fid, 1) ] }
  in
  (* All true: energy now 2, was 1 -> delta 1. *)
  check_close 1e-12 "delta from new body" 1.0
    (Metropolis.delta_log_weight change [| true; true; true |]);
  (* New body unsatisfied: no delta. *)
  check_close 1e-12 "no delta" 0.0 (Metropolis.delta_log_weight change [| true; true; false |])

let test_mh_tracks_changed_distribution () =
  (* Materialize from a biased-down graph, then flip the bias up; the MH
     marginals must track the new distribution (compare to exact). *)
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g (-1.0) in
  ignore (Graph.unary g ~weight:w a);
  let rng = Prng.create 8 in
  let stored = Gibbs.sample_worlds ~burn_in:100 rng g ~n:2000 in
  Graph.set_weight g w 1.0;
  let change = { (Metropolis.unchanged g) with Metropolis.changed_weights = [ (w, -1.0) ] } in
  let result = Metropolis.infer (Prng.create 9) change ~stored ~first:0 ~proposals:2000 in
  let exact = (Exact.marginals g).(a) in
  Alcotest.(check bool) "tracks new marginal" true
    (abs_float (result.Metropolis.marginals.(a) -. exact) < 0.05);
  Alcotest.(check bool) "acceptance below 1" true (result.Metropolis.acceptance_rate < 1.0)

let test_mh_new_vars_filled () =
  let g = small_graph () in
  let rng = Prng.create 10 in
  let stored = Gibbs.sample_worlds ~burn_in:50 rng g ~n:200 in
  (* Add a new variable with a strong positive bias and a factor. *)
  let fresh = Graph.add_var g in
  let w = Graph.add_weight g 3.0 in
  let fid = Graph.unary g ~weight:w fresh in
  let change =
    {
      (Metropolis.unchanged g) with
      Metropolis.new_factor_ids = [ fid ];
      new_vars = [ fresh ];
    }
  in
  let result = Metropolis.infer (Prng.create 11) change ~stored ~first:0 ~proposals:300 in
  Alcotest.(check bool) "new var marginal learned" true
    (result.Metropolis.marginals.(fresh) > 0.8)

let test_acceptance_decreases_with_change () =
  let make_stored_and_change shift =
    let g = Graph.create () in
    let vars = Graph.add_vars g 6 in
    let w = Graph.add_weight g 0.0 in
    Array.iter (fun v -> ignore (Graph.unary g ~weight:w v)) vars;
    let rng = Prng.create 12 in
    let stored = Gibbs.sample_worlds ~burn_in:50 rng g ~n:500 in
    Graph.set_weight g w shift;
    let change =
      { (Metropolis.unchanged g) with Metropolis.changed_weights = [ (w, 0.0) ] }
    in
    (Metropolis.infer (Prng.create 13) change ~stored ~first:0 ~proposals:400).Metropolis
      .acceptance_rate
  in
  let small_change = make_stored_and_change 0.2 in
  let big_change = make_stored_and_change 3.0 in
  Alcotest.(check bool) "bigger change, lower acceptance" true (big_change < small_change)

let test_acceptance_probe () =
  let g = small_graph () in
  let rng = Prng.create 14 in
  let stored = Gibbs.sample_worlds ~burn_in:20 rng g ~n:50 in
  let rate =
    (Metropolis.infer (Prng.create 15) (Metropolis.unchanged g) ~stored ~first:0
       ~proposals:(min 30 (Array.length stored)))
      .Metropolis.acceptance_rate
  in
  check_close 0.0 "unchanged probe" 1.0 rate

(* A store of one-hot worlds (world i sets variable i) under an unchanged
   graph: every proposal is accepted, so a variable's marginal is the
   share of steps that held its world, and reveals which indexes the
   chain proposed. *)
let test_chain_reads_from_cursor () =
  let g = Graph.create () in
  ignore (Graph.add_vars g 10);
  let stored = Array.init 10 (fun i -> Array.init 10 (fun v -> v = i)) in
  let chain = Metropolis.infer (Prng.create 3) (Metropolis.unchanged g) ~stored ~first:3 in
  let shares r = Array.to_list r.Metropolis.marginals in
  let probe = chain ~proposals:4 in
  Alcotest.(check int) "probe proposals" 4 probe.Metropolis.proposals;
  Alcotest.(check (list (float 0.0))) "probe proposes 4..7"
    [ 0.; 0.; 0.; 0.; 0.25; 0.25; 0.25; 0.25; 0.; 0. ]
    (shares probe);
  let r = chain ~proposals:100 in
  Alcotest.(check int) "stops at the store's end" 6 r.Metropolis.proposals;
  let sixth = 1.0 /. 6.0 in
  Alcotest.(check (list (float 1e-15))) "the chain goes on with 8 and 9"
    [ 0.; 0.; 0.; 0.; sixth; sixth; sixth; sixth; sixth; sixth ]
    (shares r);
  Alcotest.(check bool) "no world left to start from" true
    (match Metropolis.infer (Prng.create 3) (Metropolis.unchanged g) ~stored ~first:10 with
    | (_ : proposals:int -> Metropolis.result) -> false
    | exception Invalid_argument _ -> true)

(* Independent draws from a graph's exact distribution (inverse CDF over
   its enumerated worlds), so MH proposals are exactly [Pr(0)]. *)
let exact_draws rng g ~n =
  let worlds = Array.of_list (Exact.enumerate g) in
  let last = Array.length worlds - 1 in
  let rec pick u i =
    let world, p = worlds.(i) in
    if i = last || u < p then Array.copy world else pick (u -. p) (i + 1)
  in
  Array.init n (fun _ -> pick (Prng.float_unit rng) 0)

(* MH marginals against [Exact] on coupled graphs.  The stored worlds are
   exact draws from the graph before [update]; the chain starts at store
   index 5 and runs as a sampling pick does, a 150-proposal probe and the
   same chain on to [length] proposals.  With [m] the largest ratio
   Pr(Δ)/Pr(0) over worlds, independent MH has spectral gap at least 1/m,
   so a marginal's chain average has standard error at most
   sqrt((2m − 1) / (4 length)) and a start bias at most m / length; the
   tolerance is four standard errors plus that bias. *)
let check_mh_against_exact name g update ~length =
  let before = Exact.enumerate g in
  let stored = exact_draws (Prng.create 41) g ~n:(length + 6) in
  let change = update g in
  let after = Exact.enumerate g in
  let m = List.fold_left2 (fun acc (_, p0) (_, p1) -> max acc (p1 /. p0)) 0.0 before after in
  let n = float_of_int length in
  let tolerance = (4.0 *. sqrt (((2.0 *. m) -. 1.0) /. (4.0 *. n))) +. (m /. n) in
  let chain = Metropolis.infer (Prng.create 43) change ~stored ~first:5 in
  ignore (chain ~proposals:150);
  let r = chain ~proposals:(length - 150) in
  Alcotest.(check int) (name ^ ": proposals") length r.Metropolis.proposals;
  Alcotest.(check bool) (name ^ ": the change moved the distribution") true (m > 1.05);
  let exact = Exact.marginals g in
  Array.iteri
    (fun v p ->
      let err = abs_float (r.Metropolis.marginals.(v) -. p) in
      if err > tolerance then
        Alcotest.failf "%s: variable %d: MH %.4f, exact %.4f, |error| %.4f > %.4f (m = %.3f)" name v
          r.Metropolis.marginals.(v) p err tolerance m)
    exact

let test_mh_matches_exact () =
  (* A chain of six pairwise-coupled variables with biases; the update
     moves two coupling weights, zeroes a bias and adds a new factor over
     old variables. *)
  let chain_case g =
    let v = Graph.add_vars g 6 in
    let biases = Array.map (Graph.add_weight g) [| 0.4; -0.3; 0.2; -0.5; 0.1; 0.3 |] in
    Array.iteri (fun i x -> ignore (Graph.unary g ~weight:biases.(i) x)) v;
    let couplings = Array.init 5 (fun i -> Graph.add_weight g (0.6 -. (0.2 *. float_of_int i))) in
    Array.iteri (fun i w -> ignore (Graph.pairwise g ~weight:w v.(i) v.(i + 1))) couplings;
    fun g ->
      let moved = [ (couplings.(1), 1.1); (couplings.(3), -0.7); (biases.(2), 0.0) ] in
      let changed_weights = List.map (fun (w, _) -> (w, Graph.weight_value g w)) moved in
      List.iter (fun (w, x) -> Graph.set_weight g w x) moved;
      let fid = Graph.pairwise g ~weight:(Graph.add_weight g 0.8) v.(0) v.(5) in
      { (Metropolis.unchanged g) with Metropolis.changed_weights; new_factor_ids = [ fid ] }
  in
  (* Five variables under implication factors of every semantics; the
     update extends two of them with bodies over old variables and moves
     a weight from 0. *)
  let factor_case g =
    let v = Graph.add_vars g 5 in
    Array.iteri
      (fun i x -> ignore (Graph.unary g ~weight:(Graph.add_weight g (0.1 *. float_of_int (i - 2))) x))
      v;
    let implication head bodies weight semantics =
      Graph.add_factor g
        { Graph.head = Some head; bodies; weight_id = Graph.add_weight g weight; semantics }
    in
    let f_linear = implication v.(0) [| [| lit v.(1) |] |] 0.7 Semantics.Linear in
    let f_ratio = implication v.(2) [| [| lit v.(3); lit ~negated:true v.(4) |] |] 0.9 Semantics.Ratio in
    let f_logical = implication v.(4) [| [| lit v.(0) |] |] 0.0 Semantics.Logical in
    fun g ->
      Graph.extend_factor g f_linear [| [| lit v.(2) |]; [| lit v.(3) |] |];
      Graph.extend_factor g f_ratio [| [| lit v.(1) |] |];
      let w = (Graph.factor g f_logical).Graph.weight_id in
      Graph.set_weight g w 1.2;
      {
        (Metropolis.unchanged g) with
        Metropolis.extended_factors = [ (f_linear, 1); (f_ratio, 1) ];
        changed_weights = [ (w, 0.0) ];
      }
  in
  List.iter
    (fun (name, case) ->
      let g = Graph.create () in
      let update = case g in
      check_mh_against_exact name g update ~length:20_000)
    [ ("pairwise chain", chain_case); ("implications", factor_case) ]

(* A change with everything MH reads: new variables inside extended
   factors and inside new factors, weights moved on untouched, extended and
   zeroed factors, and evidence set and lifted on old variables.  Stored
   worlds come from the original graph.  The digests below pin one chain
   from store index 0: a 60-proposal probe, then the same chain on to the
   store's end (119 proposals in all), as a sampling pick runs it. *)
let mh_pin_case () =
  let g = Graph.create () in
  let v = Graph.add_vars g 6 in
  let ev = Graph.add_var ~evidence:(Graph.Evidence true) g in
  let weight x = Graph.add_weight g x in
  let w_bias = Array.map (fun x -> weight x) [| 0.3; -0.5; 0.8; -0.2; 0.1; 0.4 |] in
  Array.iteri (fun i x -> ignore (Graph.unary g ~weight:w_bias.(i) x)) v;
  let w_pair = weight 0.7 and w_impl = weight 0.9 and w_ratio = weight 0.6 in
  ignore (Graph.pairwise g ~weight:w_pair v.(0) v.(1));
  ignore (Graph.pairwise g ~weight:w_pair v.(2) ev);
  let f_impl =
    Graph.add_factor g
      { Graph.head = Some v.(3); bodies = [| [| lit v.(4) |] |]; weight_id = w_impl;
        semantics = Semantics.Linear }
  in
  let f_ratio =
    Graph.add_factor g
      { Graph.head = Some v.(5); bodies = [| [| lit v.(0); lit ~negated:true v.(2) |] |];
        weight_id = w_ratio; semantics = Semantics.Ratio }
  in
  let stored = Gibbs.sample_worlds ~burn_in:30 (Prng.create 70) g ~n:120 in
  (* the update *)
  let n1 = Graph.add_var g and n2 = Graph.add_var g in
  let n3 = Graph.add_var ~evidence:(Graph.Evidence true) g in
  Graph.extend_factor g f_impl [| [| lit n1 |]; [| lit v.(1); lit n2 |] |];
  Graph.extend_factor g f_ratio [| [| lit n2; lit ~negated:true n1 |] |];
  let w_new = weight 1.1 in
  let fresh =
    [
      Graph.pairwise g ~weight:w_new n1 n2;
      Graph.unary g ~weight:(weight (-0.4)) n2;
      Graph.add_factor g
        { Graph.head = Some v.(4); bodies = [| [| lit n3; lit n1 |] |]; weight_id = w_new;
          semantics = Semantics.Logical };
    ]
  in
  let old_pair = Graph.weight_value g w_pair and old_impl = Graph.weight_value g w_impl in
  let old_bias = Graph.weight_value g w_bias.(1) in
  Graph.set_weight g w_pair 1.3;
  Graph.set_weight g w_impl 0.2;
  Graph.set_weight g w_bias.(1) 0.0;
  Graph.set_evidence g v.(2) (Graph.Evidence false);
  Graph.set_evidence g ev Graph.Query;
  let change =
    {
      Metropolis.graph = g;
      new_factor_ids = fresh;
      extended_factors = [ (f_impl, 1); (f_ratio, 1) ];
      changed_weights = [ (w_pair, old_pair); (w_impl, old_impl); (w_bias.(1), old_bias) ];
      new_vars = [ n1; n2; n3 ];
      evidence_changes = [ (v.(2), Graph.Query); (ev, Graph.Evidence true) ];
    }
  in
  (change, stored)

let mh_pin_digests () =
  let hex m = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") m)) in
  let change, stored = mh_pin_case () in
  List.map
    (fun seed ->
      let chain = Metropolis.infer (Prng.create seed) change ~stored ~first:0 in
      let probe = (chain ~proposals:60).Metropolis.acceptance_rate in
      let r = chain ~proposals:240 in
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "%s|%h|%d|%h|%d" (hex r.Metropolis.marginals)
              r.Metropolis.acceptance_rate r.Metropolis.accepted probe r.Metropolis.proposals)))
    [ 1; 2; 3 ]

let test_mh_digests_pinned () =
  let change, stored = mh_pin_case () in
  let chain = Metropolis.infer (Prng.create 1) change ~stored ~first:0 in
  ignore (chain ~proposals:60);
  let split = chain ~proposals:240 in
  Alcotest.(check bool) "a probe and its continuation are one chain" true
    (split = Metropolis.infer (Prng.create 1) change ~stored ~first:0 ~proposals:300);
  Alcotest.(check (list string)) "marginals, acceptance, probe and proposals per seed"
    [
      "75d5c936513e00cc84fbead3da875daa";
      "1c19c8fbfe13a1c389b22c6be33ab254";
      "5762ec5beb73bdc718b91f37016bc8d5";
    ]
    (mh_pin_digests ())

(* --- learner ------------------------------------------------------------------ *)

let test_feature_counts () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w_learn = Graph.add_weight ~learnable:true g 0.5 in
  let w_fixed = Graph.add_weight g 1.0 in
  ignore (Graph.unary g ~weight:w_learn a);
  ignore (Graph.unary g ~weight:w_learn b);
  ignore (Graph.unary g ~weight:w_fixed a);
  let counts = Learner_ref.feature_counts g [| true; true |] in
  Alcotest.(check int) "only learnable" 1 (List.length counts);
  let wid, value = List.hd counts in
  Alcotest.(check int) "right weight" w_learn wid;
  check_close 1e-12 "two active factors" 2.0 value

let test_feature_counts_zero_weight () =
  (* Gradient must be computable even when the current weight is 0. *)
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight ~learnable:true g 0.0 in
  ignore (Graph.unary g ~weight:w a);
  let counts = Learner_ref.feature_counts g [| true |] in
  check_close 1e-12 "unit gradient" 1.0 (snd (List.hd counts));
  check_close 0.0 "weight untouched" 0.0 (Graph.weight_value g w)

let test_cd_learns_evidence_sign () =
  (* Three evidence vars labeled true share a learnable classifier weight;
     three labeled false share another.  CD should push the first weight up
     and the second down. *)
  let g = Graph.create () in
  let w_pos = Graph.add_weight ~learnable:true g 0.0 in
  let w_neg = Graph.add_weight ~learnable:true g 0.0 in
  for _ = 1 to 3 do
    let vp = Graph.add_var ~evidence:(Graph.Evidence true) g in
    ignore (Graph.unary g ~weight:w_pos vp);
    let vn = Graph.add_var ~evidence:(Graph.Evidence false) g in
    ignore (Graph.unary g ~weight:w_neg vn)
  done;
  Learner.train_cd
    ~options:{ Learner.epochs = 80; learning_rate = 0.2 }
    ~kernel:(Compiled.compile g) (Prng.create 16);
  Alcotest.(check bool) "positive weight up" true (Graph.weight_value g w_pos > 0.3);
  Alcotest.(check bool) "negative weight down" true (Graph.weight_value g w_neg < -0.3)

(* With no evidence and only lone variables the exact gradient is 0, and
   learning draws nothing: every learnable weight ends at its start under
   the L2 decay alone, step for step, so a weight at 0 stays 0. *)
let test_cd_no_evidence_lone_weights_decay () =
  let g = Graph.create () in
  let starts = [| 0.0; 0.7; -1.3 |] in
  let weights = Array.map (fun w -> Graph.add_weight ~learnable:true g w) starts in
  let fixed = Graph.add_weight g 0.4 in
  for i = 0 to 5 do
    let v = Graph.add_var g in
    ignore (Graph.unary g ~weight:weights.(i mod 3) v);
    ignore
      (Graph.add_factor g
         {
           Graph.head = Some v;
           bodies = [| [| { Graph.var = v; negated = i mod 2 = 0 } |] |];
           weight_id = (if i < 3 then weights.((i + 1) mod 3) else fixed);
           semantics = Semantics.Ratio;
         })
  done;
  let options = { Learner.epochs = 25; learning_rate = 0.2 } in
  let rng = Prng.create 23 in
  let before = Prng.copy rng in
  Learner.train_cd ~options ~kernel:(Compiled.compile g) rng;
  Alcotest.(check int64) "no draw" (Prng.bits64 before) (Prng.bits64 rng);
  Array.iteri
    (fun i w ->
      let expected = ref starts.(i) in
      for epoch = 0 to options.Learner.epochs - 1 do
        let lr = options.Learner.learning_rate /. (1.0 +. (0.05 *. float_of_int epoch)) in
        expected := !expected +. (lr *. (0.0 -. (0.0001 *. !expected)))
      done;
      let got = Graph.weight_value g w in
      if Int64.bits_of_float got <> Int64.bits_of_float !expected then
        Alcotest.failf "weight %d: %h, L2 decay alone gives %h" w got !expected)
    weights;
  Alcotest.(check (float 0.0)) "fixed weight" 0.4 (Graph.weight_value g fixed)

let test_pseudo_log_likelihood_improves () =
  let build () =
    let g = Graph.create () in
    let w = Graph.add_weight ~learnable:true g 0.0 in
    for _ = 1 to 5 do
      let v = Graph.add_var ~evidence:(Graph.Evidence true) g in
      ignore (Graph.unary g ~weight:w v)
    done;
    g
  in
  let g = build () in
  let before = Learner_ref.pseudo_log_likelihood ~worlds:20 (Prng.create 17) g in
  Learner.train_cd
    ~options:{ Learner.epochs = 60; learning_rate = 0.2 }
    ~kernel:(Compiled.compile g) (Prng.create 18);
  let after = Learner_ref.pseudo_log_likelihood ~worlds:20 (Prng.create 19) g in
  Alcotest.(check bool) "likelihood improved" true (after > before)

let separable_data rng n =
  (* Feature 0 implies true, feature 1 implies false; feature 2 is noise. *)
  let rows =
    Array.init n (fun _ ->
        let label = Prng.bool rng in
        let strong = if label then 0 else 1 in
        let features = if Prng.bernoulli rng 0.5 then [| strong; 2 |] else [| strong |] in
        (features, label))
  in
  { Learner.nfeatures = 3; rows }

let test_lr_learns_separable () =
  let data = separable_data (Prng.create 20) 300 in
  let weights = Learner.train_lr ~method_:Learner.Sgd ~epochs:40 (Prng.create 21) data in
  Alcotest.(check bool) "w0 positive" true (weights.(0) > 0.5);
  Alcotest.(check bool) "w1 negative" true (weights.(1) < -0.5);
  Alcotest.(check bool) "low loss" true (Learner.lr_loss data weights < 0.2)

let test_lr_gd_also_converges () =
  let data = separable_data (Prng.create 22) 300 in
  let weights =
    Learner.train_lr ~method_:Learner.Gd ~epochs:400 ~learning_rate:2.0 (Prng.create 23) data
  in
  Alcotest.(check bool) "low loss" true (Learner.lr_loss data weights < 0.3)

let test_lr_warmstart_lowers_initial_loss () =
  let data = separable_data (Prng.create 24) 300 in
  let warm = Learner.train_lr ~method_:Learner.Sgd ~epochs:20 (Prng.create 25) data in
  let first_loss = ref infinity in
  let (_ : float array) =
    Learner.train_lr ~method_:Learner.Sgd ~warm ~epochs:1 (Prng.create 26) data
      ~on_epoch:(fun _ w -> first_loss := Learner.lr_loss data w)
  in
  let cold_first = ref infinity in
  let (_ : float array) =
    Learner.train_lr ~method_:Learner.Sgd ~epochs:1 (Prng.create 26) data
      ~on_epoch:(fun _ w -> cold_first := Learner.lr_loss data w)
  in
  Alcotest.(check bool) "warmstart ahead" true (!first_loss <= !cold_first)

let test_lr_predict () =
  let weights = [| 1.0; -2.0 |] in
  check_close 1e-9 "positive feature" (Stats.sigmoid 1.0) (Learner.lr_predict weights [| 0 |]);
  check_close 1e-9 "both" (Stats.sigmoid (-1.0)) (Learner.lr_predict weights [| 0; 1 |]);
  check_close 1e-9 "none" 0.5 (Learner.lr_predict weights [||])

let test_lr_loss_zero_weights () =
  let data = separable_data (Prng.create 27) 50 in
  check_close 1e-9 "log 2" (log 2.0) (Learner.lr_loss data (Array.make 3 0.0))

(* --- map inference ---------------------------------------------------------------- *)

module Map_inference = Dd_inference.Map_inference

(* A harsher structure mix: implications with multiple bodies, negated
   literals, evidence, all three semantics. *)
let mixed_graph seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let vars = Graph.add_vars g 8 in
  Graph.set_evidence g vars.(7) (Graph.Evidence true);
  Array.iter
    (fun v ->
      let w = Graph.add_weight g (Prng.float_range rng (-1.0) 1.0) in
      ignore (Graph.unary g ~weight:w v))
    vars;
  for _ = 1 to 6 do
    let a = Prng.int_below rng 8 and b = Prng.int_below rng 8 in
    if a <> b then begin
      let w = Graph.add_weight g (Prng.float_range rng (-1.0) 1.0) in
      let semantics = Prng.choice rng [| Semantics.Linear; Semantics.Logical; Semantics.Ratio |] in
      let head = if Prng.bool rng then Some (Prng.int_below rng 8) else None in
      let negated = Prng.bool rng in
      ignore
        (Graph.add_factor g
           {
             Graph.head;
             bodies =
               [|
                 [| { Graph.var = a; negated } |];
                 [| { Graph.var = a; negated = false }; { Graph.var = b; negated = true } |];
               |];
             weight_id = w;
             semantics;
           })
    end
  done;
  g

let exact_map g =
  (* Brute-force most probable world. *)
  let best = ref None in
  List.iter
    (fun (world, p) ->
      match !best with
      | Some (_, q) when q >= p -> ()
      | _ -> best := Some (world, p))
    (Exact.enumerate g);
  fst (Option.get !best)

let test_map_finds_exact_mode () =
  for seed = 0 to 4 do
    let g = mixed_graph seed in
    let result = Map_inference.search ~sweeps:300 (Prng.create (200 + seed)) g in
    let expected = exact_map g in
    let expected_weight = Graph.total_energy g (fun v -> expected.(v)) in
    (* Annealing may find a world tied with the mode; compare weights. *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d reaches mode weight" seed)
      true
      (result.Map_inference.log_weight >= expected_weight -. 1e-6)
  done

let test_map_respects_evidence () =
  let g = Graph.create () in
  let a = Graph.add_var ~evidence:(Graph.Evidence false) g in
  let w = Graph.add_weight g 10.0 in
  ignore (Graph.unary g ~weight:w a);
  let result = Map_inference.search ~sweeps:50 (Prng.create 7) g in
  Alcotest.(check bool) "evidence clamped" false result.Map_inference.assignment.(a)

let test_map_greedy_refine () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g 2.0 in
  ignore (Graph.unary g ~weight:w a);
  ignore (Graph.pairwise g ~weight:w a b);
  let world = [| false; false |] in
  let flips = Map_inference.greedy_refine g world in
  Alcotest.(check bool) "flipped up" true (world.(0) && world.(1));
  Alcotest.(check int) "two flips" 2 flips;
  Alcotest.(check int) "local optimum stable" 0 (Map_inference.greedy_refine g world)

let test_map_schedule_monotone () =
  let schedule = Map_inference.default_schedule ~sweeps:100 in
  Alcotest.(check bool) "cooling" true (schedule 0 > schedule 50 && schedule 50 > schedule 99)

(* --- qcheck -------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"conditional prob in [0,1]" ~count:100
      (pair small_int (float_range (-3.0) 3.0))
      (fun (seed, weight) ->
        let g = Graph.create () in
        let a = Graph.add_var g and b = Graph.add_var g in
        let w = Graph.add_weight g weight in
        ignore (Graph.pairwise g ~weight:w a b);
        let rng = Prng.create seed in
        let assignment = Gibbs.init_assignment rng g in
        let p = Gibbs.conditional_true_prob g assignment a in
        p >= 0.0 && p <= 1.0);
    Test.make ~name:"gibbs marginal of bias matches sigmoid" ~count:10
      (float_range (-2.0) 2.0)
      (fun weight ->
        let g = Graph.create () in
        let a = Graph.add_var g in
        let w = Graph.add_weight g weight in
        ignore (Graph.unary g ~weight:w a);
        let m = Gibbs.marginals ~burn_in:50 (Prng.create 31) g ~sweeps:8000 in
        abs_float (m.(a) -. Stats.sigmoid weight) < 0.05);
    Test.make ~name:"delta_log_weight of unchanged is 0" ~count:50 small_int (fun seed ->
        let g = small_graph () in
        let rng = Prng.create seed in
        let world = Gibbs.init_assignment rng g in
        Metropolis.delta_log_weight (Metropolis.unchanged g) world = 0.0);
  ]

let () =
  Alcotest.run "dd_inference"
    [
      ( "gibbs",
        [
          Alcotest.test_case "conditional" `Quick test_conditional_probability;
          Alcotest.test_case "conditional neighbors" `Quick test_conditional_uses_neighbors;
          Alcotest.test_case "respects evidence" `Quick test_gibbs_respects_evidence;
          Alcotest.test_case "matches exact (pairwise)" `Slow test_gibbs_matches_exact_small;
          Alcotest.test_case "matches exact (implication)" `Slow test_gibbs_matches_exact_implication;
          Alcotest.test_case "matches exact (negated)" `Slow test_gibbs_matches_exact_negated;
          Alcotest.test_case "sample worlds" `Quick test_sample_worlds_shape;
          Alcotest.test_case "on_sweep" `Quick test_run_on_sweep_called;
          Alcotest.test_case "sweeps to converge" `Quick test_sweeps_to_converge;
        ] );
      ( "metropolis",
        [
          Alcotest.test_case "unchanged accepts all" `Quick test_unchanged_full_acceptance;
          Alcotest.test_case "delta: new factor" `Quick test_delta_log_weight_new_factor;
          Alcotest.test_case "delta: weight change" `Quick test_delta_log_weight_weight_change;
          Alcotest.test_case "delta: zero weight" `Quick test_delta_log_weight_zero_current_weight;
          Alcotest.test_case "delta: evidence violation" `Quick test_delta_log_weight_evidence_violation;
          Alcotest.test_case "delta: extension" `Quick test_delta_log_weight_extension;
          Alcotest.test_case "tracks changed distribution" `Slow test_mh_tracks_changed_distribution;
          Alcotest.test_case "fills new vars" `Quick test_mh_new_vars_filled;
          Alcotest.test_case "acceptance vs change size" `Quick test_acceptance_decreases_with_change;
          Alcotest.test_case "acceptance probe" `Quick test_acceptance_probe;
          Alcotest.test_case "digests pinned" `Quick test_mh_digests_pinned;
          Alcotest.test_case "chain reads from the cursor" `Quick test_chain_reads_from_cursor;
          Alcotest.test_case "matches exact" `Quick test_mh_matches_exact;
        ] );
      ( "learner",
        [
          Alcotest.test_case "feature counts" `Quick test_feature_counts;
          Alcotest.test_case "feature counts w=0" `Quick test_feature_counts_zero_weight;
          Alcotest.test_case "cd learns signs" `Slow test_cd_learns_evidence_sign;
          Alcotest.test_case "lone weights decay only" `Quick test_cd_no_evidence_lone_weights_decay;
          Alcotest.test_case "pll improves" `Slow test_pseudo_log_likelihood_improves;
          Alcotest.test_case "lr separable" `Quick test_lr_learns_separable;
          Alcotest.test_case "lr gd" `Quick test_lr_gd_also_converges;
          Alcotest.test_case "lr warmstart" `Quick test_lr_warmstart_lowers_initial_loss;
          Alcotest.test_case "lr predict" `Quick test_lr_predict;
          Alcotest.test_case "lr loss zero weights" `Quick test_lr_loss_zero_weights;
        ] );
      ( "map",
        [
          Alcotest.test_case "finds exact mode" `Slow test_map_finds_exact_mode;
          Alcotest.test_case "respects evidence" `Quick test_map_respects_evidence;
          Alcotest.test_case "greedy refine" `Quick test_map_greedy_refine;
          Alcotest.test_case "schedule" `Quick test_map_schedule_monotone;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
