module Graph = Dd_fgraph.Graph
module Matrix = Dd_linalg.Matrix
module Stats = Dd_util.Stats
module Compiled = Dd_inference.Compiled
module Covariance = Dd_variational.Covariance
module Logdet = Dd_variational.Logdet
module Approx = Dd_variational.Approx

let estimate ~samples ~nvars ~nz =
  let n = Array.length samples in
  let mu = Covariance.means samples nvars in
  let m = Matrix.create nvars in
  (* Diagonal: Bernoulli variance. *)
  for v = 0 to nvars - 1 do
    Matrix.set m v v (mu.(v) *. (1.0 -. mu.(v)))
  done;
  let inv_n = 1.0 /. float_of_int (max 1 n) in
  List.iter
    (fun (i, j) ->
      let both = ref 0 in
      Array.iter (fun world -> if world.(i) && world.(j) then incr both) samples;
      let cov = (float_of_int !both *. inv_n) -. (mu.(i) *. mu.(j)) in
      Matrix.set m i j cov;
      Matrix.set m j i cov)
    nz;
  m

(* Agreement factor: energy w when the two variables are equal.  Encoded as
   a headless factor with two bodies, (a and b) and (not a and not b); at
   most one body holds, so logical semantics yields exactly 1{a = b}. *)
let add_agreement g ~weight a b =
  ignore
    (Graph.add_factor g
       {
         Graph.head = None;
         bodies =
           [|
             [| { Graph.var = a; negated = false }; { Graph.var = b; negated = false } |];
             [| { Graph.var = a; negated = true }; { Graph.var = b; negated = true } |];
           |];
         weight_id = weight;
         semantics = Dd_fgraph.Semantics.Logical;
       })

let materialize ?(lambda = 0.1) ?(solver = Logdet.default) rng g ~samples =
  let unary_rounds = 3 in
  let nvars = Graph.num_vars g in
  let nz = Covariance.nonzero_pairs g in
  let m = estimate ~samples ~nvars ~nz in
  (* Line 4: the constrained maximizer x estimates a covariance completion;
     the model couplings live in its inverse, the (sparse) precision
     matrix theta.  The box width lambda controls how diagonal x is and
     hence how sparse theta is. *)
  let x = Logdet.solve ~options:solver ~nz ~lambda m in
  let theta = Matrix.spd_inverse x in
  let entries =
    List.filter_map
      (fun (i, j) ->
        let v = Matrix.get theta i j in
        if abs_float v >= solver.Logdet.prune_below then Some (i, j, v) else None)
      nz
  in
  let approx = Graph.create () in
  for v = 0 to nvars - 1 do
    ignore (Graph.add_var ~evidence:(Graph.evidence_of g v) approx)
  done;
  List.iter
    (fun (i, j, theta_ij) ->
      (* Match the Gaussian cross term -theta_ij a_i a_j (0/1 coding):
         w . 1{a=b} contributes (w/2) s_i s_j in +-1 coding while
         -theta_ij a_i a_j contributes -(theta_ij/4) s_i s_j, so
         w = -theta_ij / 2; linear leftovers are absorbed by the unary
         moment matching below. *)
      let w = Graph.add_weight approx (-.theta_ij /. 2.0) in
      add_agreement approx ~weight:w i j)
    entries;
  (* Unary moment matching: adjust per-variable bias factors until the
     approximate graph's marginals track the sampled means. *)
  let mu = Covariance.means samples nvars in
  let unary_weights =
    Array.init nvars (fun v ->
        match Graph.evidence_of g v with
        | Graph.Evidence _ -> None
        | Graph.Query ->
          let w = Graph.add_weight approx (Stats.logit mu.(v)) in
          ignore (Graph.unary approx ~weight:w v);
          Some w)
  in
  let sweeps = min 300 (max 50 (Array.length samples / 4)) in
  (* The rounds move weights only: compile once, re-sync the slots. *)
  let kernel = Compiled.compile approx in
  for _ = 1 to unary_rounds do
    Compiled.refresh_weights kernel;
    let est = Compiled.marginals rng kernel ~sweeps in
    Array.iteri
      (fun v weight ->
        match weight with
        | None -> ()
        | Some w ->
          let correction = Stats.logit mu.(v) -. Stats.logit est.(v) in
          (* Damped update keeps the matching loop stable. *)
          Graph.set_weight approx w (Graph.weight_value approx w +. (0.5 *. correction)))
      unary_weights
  done;
  ( approx,
    {
      Approx.pairwise_factors = List.length entries;
      candidate_pairs = List.length nz;
      solver_iterations_bound = solver.Logdet.max_iterations;
    } )
