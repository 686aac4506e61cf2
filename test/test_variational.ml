(* Tests for Dd_variational: covariance estimation, the log-determinant
   solver of Algorithm 1, and the approximate-graph construction, one
   coupled block at a time, against the whole-graph build. *)

module Graph = Dd_fgraph.Graph
module Exact = Dd_oracle.Exact
module Gibbs = Dd_oracle.Gibbs
module Covariance = Dd_variational.Covariance
module Logdet = Dd_variational.Logdet
module Approx = Dd_variational.Approx
module Approx_dense = Dd_oracle.Approx_dense
module Matrix = Dd_linalg.Matrix
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Engine = Dd_core.Engine

let check_close epsilon = Alcotest.(check (float epsilon))

(* Two variables coupled by a conjunction factor of the given weight, plus
   mild biases. *)
let coupled_pair weight =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g weight in
  ignore (Graph.pairwise g ~weight:w a b);
  let bias = Graph.add_weight g 0.2 in
  ignore (Graph.unary g ~weight:bias a);
  ignore (Graph.unary g ~weight:bias b);
  (g, a, b)

(* --- covariance --------------------------------------------------------- *)

let test_nonzero_pairs () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g and c = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  ignore (Graph.pairwise g ~weight:w a b);
  ignore (Graph.unary g ~weight:w c);
  Alcotest.(check (list (pair int int))) "only coupled pair" [ (a, b) ]
    (Covariance.nonzero_pairs g)

let test_means () =
  let samples = [| [| true; false |]; [| true; true |]; [| false; false |]; [| true; false |] |] in
  let mu = Covariance.means samples 2 in
  check_close 1e-9 "var 0" 0.75 mu.(0);
  check_close 1e-9 "var 1" 0.25 mu.(1)

let test_estimate_diagonal () =
  let samples = [| [| true |]; [| true |]; [| false |]; [| false |] |] in
  let m = Covariance.estimate ~samples ~mu:(Covariance.means samples 1) ~vars:[| 0 |] ~pairs:[] in
  check_close 1e-9 "bernoulli variance" 0.25 (Matrix.get m 0 0)

let test_estimate_correlation_sign () =
  (* Perfectly correlated samples -> positive covariance; the pair (0,1)
     is in NZ, pair (0,2) is not and stays zero. *)
  let samples =
    [| [| true; true; false |]; [| false; false; true |]; [| true; true; true |];
       [| false; false; false |] |]
  in
  let m =
    Covariance.estimate ~samples ~mu:(Covariance.means samples 3) ~vars:[| 0; 1; 2 |]
      ~pairs:[ (0, 1) ]
  in
  Alcotest.(check bool) "positive cov" true (Matrix.get m 0 1 > 0.2);
  check_close 1e-9 "symmetric" (Matrix.get m 0 1) (Matrix.get m 1 0);
  check_close 0.0 "outside nz zero" 0.0 (Matrix.get m 0 2);
  (* A block reads its variables' samples at their global ids. *)
  let block =
    Covariance.estimate ~samples ~mu:(Covariance.means samples 3) ~vars:[| 1; 0 |]
      ~pairs:[ (0, 1) ]
  in
  check_close 0.0 "block entry" (Matrix.get m 0 1) (Matrix.get block 0 1);
  check_close 0.0 "block diagonal" (Matrix.get m 1 1) (Matrix.get block 0 0)

let test_estimate_from_gibbs () =
  let g, a, b = coupled_pair 1.5 in
  let rng = Prng.create 5 in
  let samples = Gibbs.sample_worlds ~burn_in:100 rng g ~n:2000 in
  let m =
    Covariance.estimate ~samples ~mu:(Covariance.means samples 2) ~vars:[| a; b |]
      ~pairs:[ (0, 1) ]
  in
  Alcotest.(check bool) "coupling visible" true (Matrix.get m 0 1 > 0.03)

(* --- logdet solver ------------------------------------------------------ *)

let sample_covariance () =
  let g, a, b = coupled_pair 1.5 in
  let rng = Prng.create 6 in
  let samples = Gibbs.sample_worlds ~burn_in:100 rng g ~n:1500 in
  ( Covariance.estimate ~samples ~mu:(Covariance.means samples 2) ~vars:[| a; b |]
      ~pairs:[ (0, 1) ],
    [ (0, 1) ] )

let test_logdet_constraints () =
  let m, nz = sample_covariance () in
  let lambda = 0.01 in
  let x = Logdet.solve ~nz ~lambda m in
  (* Diagonal equality constraint. *)
  check_close 1e-6 "diag 0" (Matrix.get m 0 0 +. (1.0 /. 3.0)) (Matrix.get x 0 0);
  check_close 1e-6 "diag 1" (Matrix.get m 1 1 +. (1.0 /. 3.0)) (Matrix.get x 1 1);
  (* Box constraint around M (pruning may zero entries only if within box). *)
  let off = Matrix.get x 0 1 in
  Alcotest.(check bool) "box" true
    (off = 0.0 || abs_float (off -. Matrix.get m 0 1) <= lambda +. 1e-6);
  Alcotest.(check bool) "SPD" true (Matrix.is_spd x)

let test_logdet_zero_pattern () =
  (* Entries outside NZ must remain exactly zero. *)
  let m = Matrix.create 3 in
  for i = 0 to 2 do
    Matrix.set m i i 1.0
  done;
  Matrix.set m 0 1 0.2;
  Matrix.set m 1 0 0.2;
  let x = Logdet.solve ~nz:[ (0, 1) ] ~lambda:0.05 m in
  check_close 0.0 "(0,2) zero" 0.0 (Matrix.get x 0 2);
  check_close 0.0 "(1,2) zero" 0.0 (Matrix.get x 1 2)

let test_logdet_large_lambda_sparsifies () =
  let m, nz = sample_covariance () in
  let tight = Logdet.solve ~nz ~lambda:0.001 m in
  let loose = Logdet.solve ~nz ~lambda:10.0 m in
  let nnz x = if Matrix.get x 0 1 <> 0.0 then 1 else 0 in
  Alcotest.(check bool) "looser lambda, sparser solution" true (nnz loose <= nnz tight);
  (* With a huge box the maximizer of log det is diagonal. *)
  Alcotest.(check int) "diagonal at lambda=10" 0 (nnz loose)

(* --- approximate graph ---------------------------------------------------- *)

let test_approx_preserves_marginals () =
  let g, a, b = coupled_pair 1.2 in
  let rng = Prng.create 7 in
  let samples = Gibbs.sample_worlds ~burn_in:100 rng g ~n:1500 in
  let approx, stats = Approx.materialize ~lambda:0.01 (Prng.create 8) g ~samples in
  Alcotest.(check int) "same vars" (Graph.num_vars g) (Graph.num_vars approx);
  let exact = Exact.marginals g in
  let approx_marginals = Exact.marginals approx in
  Alcotest.(check bool) "marginal a close" true (abs_float (exact.(a) -. approx_marginals.(a)) < 0.08);
  Alcotest.(check bool) "marginal b close" true (abs_float (exact.(b) -. approx_marginals.(b)) < 0.08);
  Alcotest.(check bool) "has pairwise factor" true (stats.Approx.pairwise_factors >= 0)

let test_approx_preserves_correlation_direction () =
  let g, a, b = coupled_pair 2.0 in
  let rng = Prng.create 9 in
  let samples = Gibbs.sample_worlds ~burn_in:100 rng g ~n:2000 in
  let approx, stats = Approx.materialize ~lambda:0.005 (Prng.create 10) g ~samples in
  Alcotest.(check int) "one pairwise factor" 1 stats.Approx.pairwise_factors;
  (* Positive coupling in the original must come out as positive association:
     P(a | b = true) > P(a | b = false) in the approximate graph. *)
  Graph.set_evidence approx b (Graph.Evidence true);
  let p_true = (Exact.marginals approx).(a) in
  Graph.set_evidence approx b (Graph.Evidence false);
  let p_false = (Exact.marginals approx).(a) in
  Alcotest.(check bool) "positive association" true (p_true > p_false)

let test_approx_keeps_evidence () =
  let g = Graph.create () in
  let a = Graph.add_var ~evidence:(Graph.Evidence true) g in
  let b = Graph.add_var g in
  let w = Graph.add_weight g 0.7 in
  ignore (Graph.pairwise g ~weight:w a b);
  let rng = Prng.create 11 in
  let samples = Gibbs.sample_worlds ~burn_in:50 rng g ~n:500 in
  let approx, _ = Approx.materialize (Prng.create 12) g ~samples in
  Alcotest.(check bool) "evidence carried over" true
    (Graph.evidence_of approx a = Graph.Evidence true)

let test_approx_sparsity_grows_with_lambda () =
  (* A denser graph: a chain of 6 variables. *)
  let g = Graph.create () in
  let vars = Graph.add_vars g 6 in
  for k = 0 to 4 do
    let w = Graph.add_weight g 0.8 in
    ignore (Graph.pairwise g ~weight:w vars.(k) vars.(k + 1))
  done;
  let rng = Prng.create 13 in
  let samples = Gibbs.sample_worlds ~burn_in:100 rng g ~n:1500 in
  let _, stats_tight = Approx.materialize ~lambda:0.001 (Prng.create 14) g ~samples in
  let _, stats_loose = Approx.materialize ~lambda:1.0 (Prng.create 15) g ~samples in
  Alcotest.(check bool) "lambda sparsifies" true
    (stats_loose.Approx.pairwise_factors <= stats_tight.Approx.pairwise_factors);
  Alcotest.(check int) "candidate pairs = chain edges" 5 stats_tight.Approx.candidate_pairs

let test_approx_independent_vars_get_no_factors () =
  (* Two independent biased variables: no NZ pairs at all. *)
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g 0.5 in
  ignore (Graph.unary g ~weight:w a);
  ignore (Graph.unary g ~weight:w b);
  let rng = Prng.create 16 in
  let samples = Gibbs.sample_worlds ~burn_in:50 rng g ~n:800 in
  let approx, stats = Approx.materialize (Prng.create 17) g ~samples in
  Alcotest.(check int) "no pairwise factors" 0 stats.Approx.pairwise_factors;
  (* Unary moment matching alone recovers the bias. *)
  let m = Exact.marginals approx in
  Alcotest.(check bool) "bias preserved" true (abs_float (m.(a) -. Stats.sigmoid 0.5) < 0.08)

(* --- one coupled block at a time vs the whole-graph build ------------------ *)

(* [Approx.materialize] against the whole-graph build it replaced, from
   the same samples and generator seed: the same variables, evidence and
   factors, and weights at most [tolerance] apart (0 asks for the same
   bits). *)
let check_against_dense ?(lambda = 0.1) ?(tolerance = 0.0) label g ~samples =
  let block, stats = Approx.materialize ~lambda (Prng.create 7) g ~samples in
  let dense, dense_stats = Approx_dense.materialize ~lambda (Prng.create 7) g ~samples in
  let check_int what = Alcotest.(check int) (label ^ ": " ^ what) in
  check_int "pairwise factors" dense_stats.Approx.pairwise_factors stats.Approx.pairwise_factors;
  check_int "candidate pairs" dense_stats.Approx.candidate_pairs stats.Approx.candidate_pairs;
  check_int "variables" (Graph.num_vars dense) (Graph.num_vars block);
  check_int "factors" (Graph.num_factors dense) (Graph.num_factors block);
  check_int "weights" (Graph.num_weights dense) (Graph.num_weights block);
  for v = 0 to Graph.num_vars dense - 1 do
    if Graph.evidence_of dense v <> Graph.evidence_of block v then
      Alcotest.failf "%s: evidence of variable %d differs" label v
  done;
  for f = 0 to Graph.num_factors dense - 1 do
    if Graph.factor dense f <> Graph.factor block f then Alcotest.failf "%s: factor %d differs" label f
  done;
  for w = 0 to Graph.num_weights dense - 1 do
    let a = Graph.weight_value dense w and b = Graph.weight_value block w in
    let agree =
      if tolerance = 0.0 then Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      else abs_float (a -. b) <= tolerance
    in
    if not agree then Alcotest.failf "%s: weight %d is %h, whole-graph build %h" label w b a
  done;
  stats

(* The graph and sample store of a fresh engine on [config]. *)
let engine_inputs config program =
  let db = Dd_relational.Database.create () in
  Corpus.load (Corpus.generate config) db;
  let e = Engine.create db program in
  (Engine.graph e, (Engine.materialization e).Dd_core.Materialize.samples)

let test_blocks_equal_dense_presets () =
  List.iter
    (fun config ->
      let g, samples = engine_inputs config (Pipeline.base_program ()) in
      ignore (check_against_dense config.Corpus.name g ~samples))
    Dd_kbc.Systems.all

let test_blocks_equal_dense_coupled_news () =
  let config = { Dd_kbc.Systems.news with Corpus.docs = 200; pair_repeat = 0.8 } in
  let g, samples = engine_inputs config (Pipeline.full_program ()) in
  let stats = check_against_dense "News 200" g ~samples in
  Alcotest.(check bool) "coupled: pairwise factors survive" true (stats.Approx.pairwise_factors > 0)

(* Three 4-cliques with strong couplings of mixed sign, so the
   off-diagonal box of several pairs excludes 0 while a cycle through
   them pulls other entries off it: the projected ascent moves.  Each
   block then stops on its own move, while the whole-graph solve stops
   only when the move of all blocks together falls below
   [Logdet.default.tolerance], so a block that has stopped keeps stepping
   beside one that still moves: on this fixture the two builds differ
   in the low bits.  The extra steps are at most [max_iterations], each
   moving the block less than the tolerance, hence the bound. *)
let test_blocks_near_dense_when_ascent_moves () =
  let couplings =
    [| 1.43; -2.30; -0.85; 2.27; -0.44; 0.86; -2.59; -0.70; -0.78; -1.84; 2.32; 2.39; 1.02; 0.05;
       0.07; 2.67; -0.68; -2.50 |]
  in
  let g = Graph.create () in
  let next = ref 0 in
  for _ = 1 to 3 do
    let vars = Graph.add_vars g 4 in
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        let w = Graph.add_weight g couplings.(!next) in
        incr next;
        ignore (Graph.pairwise g ~weight:w vars.(i) vars.(j))
      done
    done
  done;
  let lambda = 0.02 in
  let samples = Gibbs.sample_worlds ~burn_in:100 (Prng.create 13) g ~n:1000 in
  let nz = Covariance.nonzero_pairs g in
  let m = Approx_dense.estimate ~samples ~nvars:(Graph.num_vars g) ~nz in
  let start = Logdet.solve ~options:{ Logdet.default with Logdet.max_iterations = 0 } ~nz ~lambda m in
  Alcotest.(check bool) "the ascent moves" true
    (Matrix.frobenius_distance (Logdet.solve ~nz ~lambda m) start > 0.0);
  let tolerance =
    float_of_int Logdet.default.Logdet.max_iterations *. Logdet.default.Logdet.tolerance
  in
  ignore (check_against_dense ~lambda ~tolerance "cliques" g ~samples)

let () =
  Alcotest.run "dd_variational"
    [
      ( "covariance",
        [
          Alcotest.test_case "nonzero pairs" `Quick test_nonzero_pairs;
          Alcotest.test_case "means" `Quick test_means;
          Alcotest.test_case "diagonal" `Quick test_estimate_diagonal;
          Alcotest.test_case "correlation sign" `Quick test_estimate_correlation_sign;
          Alcotest.test_case "from gibbs" `Slow test_estimate_from_gibbs;
        ] );
      ( "logdet",
        [
          Alcotest.test_case "constraints" `Quick test_logdet_constraints;
          Alcotest.test_case "zero pattern" `Quick test_logdet_zero_pattern;
          Alcotest.test_case "lambda sparsifies" `Quick test_logdet_large_lambda_sparsifies;
        ] );
      ( "approx",
        [
          Alcotest.test_case "marginals preserved" `Slow test_approx_preserves_marginals;
          Alcotest.test_case "correlation direction" `Slow test_approx_preserves_correlation_direction;
          Alcotest.test_case "evidence kept" `Quick test_approx_keeps_evidence;
          Alcotest.test_case "sparsity vs lambda" `Slow test_approx_sparsity_grows_with_lambda;
          Alcotest.test_case "independent vars" `Slow test_approx_independent_vars_get_no_factors;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "equal the dense build on the presets" `Quick
            test_blocks_equal_dense_presets;
          Alcotest.test_case "equal the dense build on coupled News" `Quick
            test_blocks_equal_dense_coupled_news;
          Alcotest.test_case "near the dense build when the ascent moves" `Quick
            test_blocks_near_dense_when_ascent_moves;
        ] );
    ]
