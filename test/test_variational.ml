(* Tests for Dd_variational: covariance estimation, the log-determinant
   solver of Algorithm 1, and the approximate-graph construction. *)

module Graph = Dd_fgraph.Graph
module Exact = Dd_oracle.Exact
module Gibbs = Dd_oracle.Gibbs
module Covariance = Dd_variational.Covariance
module Logdet = Dd_variational.Logdet
module Approx = Dd_variational.Approx
module Matrix = Dd_linalg.Matrix
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

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
  let m = Covariance.estimate ~samples ~nvars:1 ~nz:[] in
  check_close 1e-9 "bernoulli variance" 0.25 (Matrix.get m 0 0)

let test_estimate_correlation_sign () =
  (* Perfectly correlated samples -> positive covariance; the pair (0,1)
     is in NZ, pair (0,2) is not and stays zero. *)
  let samples =
    [| [| true; true; false |]; [| false; false; true |]; [| true; true; true |];
       [| false; false; false |] |]
  in
  let m = Covariance.estimate ~samples ~nvars:3 ~nz:[ (0, 1) ] in
  Alcotest.(check bool) "positive cov" true (Matrix.get m 0 1 > 0.2);
  check_close 1e-9 "symmetric" (Matrix.get m 0 1) (Matrix.get m 1 0);
  check_close 0.0 "outside nz zero" 0.0 (Matrix.get m 0 2)

let test_estimate_from_gibbs () =
  let g, a, b = coupled_pair 1.5 in
  let rng = Prng.create 5 in
  let samples = Gibbs.sample_worlds ~burn_in:100 rng g ~n:2000 in
  let m = Covariance.estimate ~samples ~nvars:2 ~nz:[ (a, b) ] in
  Alcotest.(check bool) "coupling visible" true (Matrix.get m a b > 0.03)

(* --- logdet solver ------------------------------------------------------ *)

let sample_covariance () =
  let g, a, b = coupled_pair 1.5 in
  let rng = Prng.create 6 in
  let samples = Gibbs.sample_worlds ~burn_in:100 rng g ~n:1500 in
  (Covariance.estimate ~samples ~nvars:2 ~nz:[ (a, b) ], [ (a, b) ])

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
  let m = Matrix.identity 3 in
  Matrix.set m 0 1 0.2;
  Matrix.set m 1 0 0.2;
  let x = Logdet.solve ~nz:[ (0, 1) ] ~lambda:0.05 m in
  check_close 0.0 "(0,2) zero" 0.0 (Matrix.get x 0 2);
  check_close 0.0 "(1,2) zero" 0.0 (Matrix.get x 1 2)

let test_logdet_large_lambda_sparsifies () =
  let m, nz = sample_covariance () in
  let tight = Logdet.solve ~nz ~lambda:0.001 m in
  let loose = Logdet.solve ~nz ~lambda:10.0 m in
  let nnz x = List.length (Logdet.offdiag_nonzeros x) in
  Alcotest.(check bool) "looser lambda, sparser solution" true (nnz loose <= nnz tight);
  (* With a huge box the maximizer of log det is diagonal. *)
  Alcotest.(check int) "diagonal at lambda=10" 0 (nnz loose)

let test_offdiag_nonzeros () =
  let m = Matrix.identity 3 in
  Matrix.set m 0 2 0.5;
  let entries = Logdet.offdiag_nonzeros m in
  Alcotest.(check int) "one entry" 1 (List.length entries);
  let i, j, v = List.hd entries in
  Alcotest.(check int) "row" 0 i;
  Alcotest.(check int) "col" 2 j;
  check_close 0.0 "value" 0.5 v

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
          Alcotest.test_case "offdiag nonzeros" `Quick test_offdiag_nonzeros;
        ] );
      ( "approx",
        [
          Alcotest.test_case "marginals preserved" `Slow test_approx_preserves_marginals;
          Alcotest.test_case "correlation direction" `Slow test_approx_preserves_correlation_direction;
          Alcotest.test_case "evidence kept" `Quick test_approx_keeps_evidence;
          Alcotest.test_case "sparsity vs lambda" `Slow test_approx_sparsity_grows_with_lambda;
          Alcotest.test_case "independent vars" `Slow test_approx_independent_vars_get_no_factors;
        ] );
    ]
