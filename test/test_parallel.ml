(* Tests for Dd_parallel: partition validity (property-tested), the
   domain pool, and the equivalence contract of the parallel sampler —
   bit-identical to the sequential samplers at [domains = 1], and
   statistically agreeing with them at [domains > 1] on the voting and
   Fig-KBC graphs. *)

module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Exact = Dd_oracle.Exact
module Voting = Dd_fgraph.Voting
module Gibbs = Dd_oracle.Gibbs
module Partition = Dd_parallel.Partition
module Pool = Dd_parallel.Pool
module Par_gibbs = Dd_parallel.Par_gibbs
module Compiled = Dd_inference.Compiled
module Materialize = Dd_core.Materialize
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Checkpoint = Dd_kbc.Checkpoint
module Quality = Dd_kbc.Quality
module Database = Dd_relational.Database
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

(* A random graph mixing the structures grounding produces: unary biases,
   multi-body implications with negated literals, all three semantics,
   some evidence variables. *)
let random_graph ?(nvars = 12) seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let vars = Graph.add_vars g nvars in
  Array.iter
    (fun v ->
      if Prng.bernoulli rng 0.2 then
        Graph.set_evidence g v (Graph.Evidence (Prng.bool rng));
      let w = Graph.add_weight g (Prng.float_range rng (-1.0) 1.0) in
      ignore (Graph.unary g ~weight:w v))
    vars;
  for _ = 1 to nvars do
    let a = Prng.int_below rng nvars and b = Prng.int_below rng nvars in
    if a <> b then begin
      let w = Graph.add_weight g (Prng.float_range rng (-1.0) 1.0) in
      let semantics =
        Prng.choice rng [| Semantics.Linear; Semantics.Logical; Semantics.Ratio |]
      in
      let head = if Prng.bool rng then Some (Prng.int_below rng nvars) else None in
      ignore
        (Graph.add_factor g
           {
             Graph.head;
             bodies =
               [|
                 [| { Graph.var = a; negated = Prng.bool rng } |];
                 [| { Graph.var = a; negated = false }; { Graph.var = b; negated = true } |];
               |];
             weight_id = w;
             semantics;
           })
    end
  done;
  g

(* --- partition --------------------------------------------------------- *)

let test_partition_valid_small () =
  for seed = 0 to 19 do
    let g = random_graph seed in
    match Partition.validate g (Partition.color g) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: %s" seed m
  done

let test_partition_covers_queries () =
  let g = random_graph 3 in
  let p = Partition.color g in
  let listed = Array.fold_left (fun acc cls -> acc + Array.length cls) 0 p.Partition.classes in
  Alcotest.(check int) "classes hold exactly the query variables"
    (List.length (Graph.query_vars g))
    listed

let test_partition_deterministic () =
  let g = random_graph 7 in
  let p1 = Partition.color g and p2 = Partition.color g in
  Alcotest.(check bool) "identical colors" true (p1.Partition.colors = p2.Partition.colors)

let test_partition_voting_degenerates () =
  (* All up-votes share one aggregation factor (likewise the down-votes,
     and q sits in both), so the chromatic number collapses to
     [max n_up n_down + 1] — each color class holds at most one up and
     one down vote, the conflict-dense degradation DESIGN.md documents. *)
  let cfg = { Voting.default with Voting.n_up = 12; n_down = 9 } in
  let g, _, _, _ = Voting.build cfg in
  let p = Partition.color g in
  Alcotest.(check int) "max(n_up, n_down) + 1 colors" 13 p.Partition.num_colors;
  Alcotest.(check bool) "still valid" true (Partition.validate g p = Ok ())

let test_partition_rejects_corrupt () =
  let g = random_graph 11 in
  let p = Partition.color g in
  (* Force the first two query variables that share a factor onto one
     color; validate must object. *)
  let colors = Array.copy p.Partition.colors in
  let clash = ref None in
  Graph.iter_factors
    (fun _ f ->
      if !clash = None then
        match List.filter (fun v -> colors.(v) >= 0) (Graph.vars_of_factor f) with
        | a :: b :: _ when colors.(a) <> colors.(b) -> clash := Some (a, b)
        | _ -> ())
    g;
  match !clash with
  | None -> () (* no multi-variable factor in this draw; nothing to corrupt *)
  | Some (a, b) ->
    colors.(b) <- colors.(a);
    let corrupt = { p with Partition.colors } in
    Alcotest.(check bool) "corruption detected" true
      (match Partition.validate g corrupt with Ok () -> false | Error _ -> true)

let test_slices_cover () =
  let g = random_graph 5 in
  let p = Partition.color g in
  let sliced = Partition.slices p ~domains:3 in
  Array.iteri
    (fun c phase ->
      let merged = Array.concat (Array.to_list phase) in
      Alcotest.(check bool)
        (Printf.sprintf "phase %d preserves its class" c)
        true
        (merged = p.Partition.classes.(c)))
    sliced

let partition_qcheck =
  let open QCheck in
  [
    Test.make ~name:"greedy coloring is always valid" ~count:60
      (pair small_int (int_range 1 30))
      (fun (seed, nvars) ->
        let g = random_graph ~nvars seed in
        Partition.validate g (Partition.color g) = Ok ());
    Test.make ~name:"slices preserve classes for any domain count" ~count:40
      (pair small_int (int_range 1 9))
      (fun (seed, domains) ->
        let g = random_graph seed in
        let p = Partition.color g in
        Array.for_all2
          (fun phase cls -> Array.concat (Array.to_list phase) = cls)
          (Partition.slices p ~domains)
          p.Partition.classes);
  ]

(* --- pool -------------------------------------------------------------- *)

let test_pool_runs_all_indices () =
  let pool = Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let hits = Array.make 4 0 in
      (* Reuse across batches is the whole point: same pool, many runs. *)
      for _ = 1 to 50 do
        Pool.run pool (fun d -> hits.(d) <- hits.(d) + 1)
      done;
      Alcotest.(check (array int)) "every index ran every batch" (Array.make 4 50) hits)

let test_pool_propagates_exception () =
  let pool = Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let raised =
        match Pool.run pool (fun d -> if d = 1 then failwith "worker boom") with
        | () -> false
        | exception Failure m -> m = "worker boom"
      in
      Alcotest.(check bool) "worker exception re-raised" true raised;
      (* The pool survives a failed batch. *)
      let ok = ref 0 in
      Pool.run pool (fun _ -> incr ok);
      Alcotest.(check bool) "usable after failure" true (!ok >= 1))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create 2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check bool) "run after shutdown rejected" true
    (match Pool.run pool (fun _ -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- par_gibbs: domains = 1 is bit-exact ------------------------------- *)

let test_seq_marginals_bit_identical () =
  for seed = 0 to 4 do
    let g = random_graph seed in
    let kernel = Compiled.compile g in
    let a = Par_gibbs.marginals ~burn_in:15 ~kernel ~domains:1 (Prng.create (50 + seed)) ~sweeps:80 in
    let b = Compiled.marginals ~burn_in:15 (Prng.create (50 + seed)) kernel ~sweeps:80 in
    Alcotest.(check bool) (Printf.sprintf "seed %d identical" seed) true (a = b)
  done

(* A grounded KBC graph: the Genomics preset at twice its documents, with
   briefly learned weights so the conditionals are not all one half. *)
let genomics_graph () =
  let config = Dd_kbc.Systems.genomics in
  let corpus = Corpus.generate { config with Corpus.docs = config.Corpus.docs * 2 } in
  let db = Database.create () in
  Corpus.load corpus db;
  let g = Grounding.graph (Grounding.ground db (Pipeline.full_program ())) in
  Dd_inference.Learner.train_cd
    ~options:{ Dd_inference.Learner.default_cd with Dd_inference.Learner.epochs = 10 }
    ~kernel:(Compiled.compile g) (Prng.create 62);
  g

let test_seq_sample_worlds_bit_identical () =
  List.iter
    (fun (name, g) ->
      let a =
        Par_gibbs.sample_worlds ~burn_in:10 ~kernel:(Compiled.compile g) ~domains:1 (Prng.create 60)
          ~n:25
      in
      let b = Gibbs.sample_worlds ~burn_in:10 (Prng.create 60) g ~n:25 in
      Alcotest.(check bool) (name ^ ": identical worlds") true (a = b))
    [ ("random graph", random_graph 9); ("genomics", genomics_graph ()) ]

let test_seq_materialize_bit_identical () =
  (* The engine's default path must not move: materialize with the
     [domains] argument at 1 equals the historical sequential draw. *)
  let g = random_graph 13 in
  let a =
    (Materialize.materialize ~n_samples:40 ~burn_in:20 ~lambda:0.1 ~with_variational:false
       ~domains:1 ~kernel:(Compiled.compile g)
       (Prng.create 61))
      .Materialize.samples
  in
  let b = Gibbs.sample_worlds ~burn_in:20 (Prng.create 61) g ~n:40 in
  Alcotest.(check bool) "identical sample store" true (a = b)

(* --- par_gibbs: domains > 1 ------------------------------------------- *)

let test_par_reproducible () =
  let g = random_graph 21 in
  let kernel = Compiled.compile g in
  let run () = Par_gibbs.marginals ~burn_in:10 ~kernel ~domains:3 (Prng.create 70) ~sweeps:60 in
  Alcotest.(check bool) "same seed, same domains -> identical" true (run () = run ())

let test_par_sample_worlds_shape () =
  let g = random_graph 22 in
  let worlds =
    Par_gibbs.sample_worlds ~burn_in:5 ~kernel:(Compiled.compile g) ~domains:3 (Prng.create 71) ~n:20
  in
  Alcotest.(check int) "n worlds" 20 (Array.length worlds);
  Array.iter
    (fun w -> Alcotest.(check int) "width" (Graph.num_vars g) (Array.length w))
    worlds;
  (* Evidence variables hold their clamped value in every chain's worlds. *)
  Array.iter
    (fun w ->
      for v = 0 to Graph.num_vars g - 1 do
        match Graph.evidence_of g v with
        | Graph.Evidence b -> Alcotest.(check bool) "evidence clamped" b w.(v)
        | Graph.Query -> ()
      done)
    worlds



let test_par_voting_agrees () =
  (* The voting aggregation factor degrades the partition to singleton
     classes (sequential inline execution) — the sampler must stay
     correct there. *)
  let cfg = { Voting.default with Voting.n_up = 25; n_down = 18 } in
  let g, q, _, _ = Voting.build cfg in
  let exact = Voting.exact_marginal_q cfg in
  let m =
    Par_gibbs.marginals ~burn_in:200 ~kernel:(Compiled.compile g) ~domains:4 (Prng.create 74)
      ~sweeps:8000
  in
  Alcotest.(check bool) "q marginal within 5%" true (abs_float (m.(q) -. exact) < 0.05)

(* --- budget polling inside worker slices -------------------------------- *)

(* A unary-only graph: one color class, and every variable isolated. *)
let unary_graph n =
  let g = Graph.create () in
  Array.iter
    (fun v ->
      let w = Graph.add_weight g 0.3 in
      ignore (Graph.unary g ~weight:w v))
    (Graph.add_vars g n);
  g

(* [n] variables on a pairwise path, each with a unary bias: one coupled
   component too large to enumerate, so the chain runs, and two color
   classes (odd and even ids), so every sweep is exactly two parallel
   phases whose [domains] slices all carry work.  Poll counts are then a
   pure function of the shapes: 1 coordinator poll per phase plus
   [ceil (slice / 128)] polls per worker slice — deterministic no matter
   how the domains interleave, because the tick counter is atomic. *)
let path_graph n =
  let g = unary_graph n in
  let w = Graph.add_weight g 0.4 in
  for i = 0 to n - 2 do
    ignore (Graph.pairwise g ~weight:w i (i + 1))
  done;
  g

let test_budgeted_worker_slices () =
  let module Budget = Dd_util.Budget in
  let g = path_graph 1200 in
  let kernel = Compiled.compile g in
  let run budget =
    Par_gibbs.marginals ?budget ~burn_in:1 ~kernel ~domains:3 (Prng.create 90) ~sweeps:5
  in
  (* 6 sweeps x 2 phases x (1 phase poll + 3 slices x 2 chunk polls) = 84 ticks. *)
  let free = run None in
  let exact = run (Some (Budget.start (Budget.Ticks 84))) in
  Alcotest.(check bool) "budgeted sweep is bit-identical" true (free = exact);
  (* One tick short: the very last poll — inside a worker slice, not on
     the coordinator — must raise, and from the worker's own site. *)
  match run (Some (Budget.start (Budget.Ticks 83))) with
  | _ -> Alcotest.fail "expected Budget.Exceeded from a worker slice"
  | exception Budget.Exceeded site -> Alcotest.(check string) "worker site" "par_gibbs.slice" site

(* --- closed-form marginals for isolated query variables ------------------- *)

module Sweep_oracle = Dd_oracle.Sweep_marginals

(* Graphs with no isolated query variable: every query variable shares a
   factor with another one.  Each builder adds [copies] disjoint,
   identical components in turn, so every component's query variables
   are contiguous in the packed query array. *)

(* A pairwise chain with unary biases, clamped at its first variable. *)
let chain_graph ~copies n =
  let g = Graph.create () in
  for _ = 1 to copies do
    let vars = Graph.add_vars g n in
    Graph.set_evidence g vars.(0) (Graph.Evidence true);
    Array.iteri
      (fun i v ->
        let w = Graph.add_weight g (0.15 *. float_of_int ((i mod 7) - 3)) in
        ignore (Graph.unary g ~weight:w v))
      vars;
    let w = Graph.add_weight g 0.6 in
    for i = 0 to n - 2 do
      ignore (Graph.pairwise g ~weight:w vars.(i) vars.(i + 1))
    done
  done;
  g

let test_par_marginals_match_exact () =
  (* Color-synchronous and sequential sweeps sample the same
     distribution: compare to exact marginals on a graph [Exact]
     enumerates but whose one 19-variable component is over the bound at
     12,100 steps, so the chain runs. *)
  let g = chain_graph ~copies:1 20 in
  Alcotest.(check bool) "over the bound" false
    (Compiled.enumerable (Compiled.compile g) ~steps:12_100);
  let m =
    Par_gibbs.marginals ~burn_in:100 ~kernel:(Compiled.compile g) ~domains:3 (Prng.create 72)
      ~sweeps:12_000
  in
  let exact = Exact.marginals g in
  Alcotest.(check bool) "within 4%" true (Stats.max_abs_diff m exact < 0.04);
  let seq = Compiled.marginals ~burn_in:100 (Prng.create 72) (Compiled.compile g) ~sweeps:12_000 in
  Alcotest.(check bool) "sequential chain within 4%" true (Stats.max_abs_diff seq exact < 0.04)

(* Example 2.5's voting program: one head [q], an up and a down
   aggregation factor with one body per voter, unary biases on voters. *)
let voting_graph ~copies ~up ~down semantics =
  let g = Graph.create () in
  for _ = 1 to copies do
    let q = Graph.add_var g in
    let vote weight voters =
      let w = Graph.add_weight g weight in
      ignore
        (Graph.add_factor g
           {
             Graph.head = Some q;
             bodies = Array.map (fun v -> [| { Graph.var = v; negated = false } |]) voters;
             weight_id = w;
             semantics;
           })
    in
    let ups = Graph.add_vars g up and downs = Graph.add_vars g down in
    vote 0.8 ups;
    vote (-0.8) downs;
    let wu = Graph.add_weight g 0.2 and wd = Graph.add_weight g (-0.1) in
    Array.iter (fun v -> ignore (Graph.unary g ~weight:wu v)) ups;
    Array.iter (fun v -> ignore (Graph.unary g ~weight:wd v)) downs
  done;
  g

(* The shape the I1 inference rule grounds to: a symmetric relation whose
   two tuples imply each other, plus an evidence-conditioned two-body
   Ratio factor with negated literals. *)
let i1_graph ~copies pairs =
  let g = Graph.create () in
  for _ = 1 to copies do
    for i = 0 to pairs - 1 do
      let x = Graph.add_var g and y = Graph.add_var g in
      let e = Graph.add_var ~evidence:(Graph.Evidence (i mod 2 = 0)) g in
      let wp = Graph.add_weight g (0.2 *. float_of_int ((i mod 5) - 2)) in
      ignore (Graph.unary g ~weight:wp x);
      let ws = Graph.add_weight g 0.9 in
      let imply body head =
        Graph.add_factor g
          {
            Graph.head = Some head;
            bodies = [| [| { Graph.var = body; negated = false } |] |];
            weight_id = ws;
            semantics = Semantics.Logical;
          }
      in
      ignore (imply x y);
      ignore (imply y x);
      let wr = Graph.add_weight g (-0.5) in
      ignore
        (Graph.add_factor g
           {
             Graph.head = Some x;
             bodies =
               [|
                 [| { Graph.var = y; negated = true }; { Graph.var = e; negated = false } |];
                 [| { Graph.var = e; negated = true } |];
               |];
             weight_id = wr;
             semantics = Semantics.Ratio;
           })
    done
  done;
  g

(* Each has a component too large to enumerate at 7 + 40 steps, so
   the estimators run the chain. *)
let no_isolated_graphs () =
  [
    ("chain", chain_graph ~copies:3 24);
    ("voting", voting_graph ~copies:3 ~up:9 ~down:7 Semantics.Logical);
  ]

let digest m =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") m))))

let check_no_isolated name g =
  let k = Compiled.compile g in
  Alcotest.(check int) (name ^ ": every query variable coupled") (Compiled.num_query k)
    (Compiled.num_coupled k);
  Alcotest.(check bool) (name ^ ": over the enumeration bound") false
    (Compiled.enumerable k ~steps:47)

(* On graphs with no isolated query variable the closed-form estimators
   must return the bits of the count-every-sweep oracle: the compiled
   estimator and the sequential sampler. *)
let test_no_isolated_matches_oracle () =
  List.iter
    (fun (name, g) ->
      check_no_isolated name g;
      List.iter
        (fun seed ->
          let oracle =
            Sweep_oracle.marginals ~burn_in:7 (Prng.create seed) (Compiled.compile g) ~sweeps:40
          in
          let same what m =
            Alcotest.(check string) (Printf.sprintf "%s seed %d: %s" name seed what)
              (digest oracle) (digest m)
          in
          same "Compiled.marginals"
            (Compiled.marginals ~burn_in:7 (Prng.create seed) (Compiled.compile g) ~sweeps:40);
          same "sequential"
            (Par_gibbs.marginals ~burn_in:7 ~kernel:(Compiled.compile g) ~domains:1 (Prng.create seed)
               ~sweeps:40))
        [ 31; 32; 33 ])
    (no_isolated_graphs ())

(* Color-sync at 3 domains against digests recorded with the estimator
   that swept every query variable: it is deterministic per (seed, graph,
   domains). *)
let parent_digests =
  [
    ("chain", "3f24775dbe62b47b654bee64408eed06");
    ("voting", "d4d047db7bdce1c5100d091788ed5d2c");
  ]

let test_no_isolated_three_domains_pinned () =
  List.iter2
    (fun (name, g) (name', sync_digest) ->
      assert (name = name');
      let sync =
        Par_gibbs.marginals ~burn_in:7 ~kernel:(Compiled.compile g) ~domains:3 (Prng.create 31)
          ~sweeps:40
      in
      Alcotest.(check string) (name ^ ": color-sync, 3 domains") sync_digest (digest sync))
    (no_isolated_graphs ()) parent_digests

(* Random small graphs mixing isolated and coupled query variables: all
   three semantics, one to three bodies per factor, negated literals,
   heads that are absent, the anchor, or another variable, factors whose
   other variables are all evidence, and (sometimes) a variable with no
   factor at all.  At most 11 variables, so [Exact] enumerates them. *)
let isolated_mix_graph seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let n = 4 + Prng.int_below rng 7 in
  let vars = Graph.add_vars g n in
  Array.iter
    (fun v -> if Prng.bernoulli rng 0.3 then Graph.set_evidence g v (Graph.Evidence (Prng.bool rng)))
    vars;
  let evidence =
    Array.of_list
      (List.filter (fun v -> Graph.evidence_of g v <> Graph.Query) (Array.to_list vars))
  in
  let lit v = { Graph.var = v; negated = Prng.bool rng } in
  for _ = 1 to 2 + Prng.int_below rng (2 * n) do
    let anchor = Prng.int_below rng n in
    let partners =
      if Array.length evidence > 0 && Prng.bernoulli rng 0.6 then evidence else vars
    in
    let partners = List.filter (fun v -> v <> anchor) (Array.to_list partners) in
    let body () =
      let others = List.filter (fun _ -> Prng.bernoulli rng 0.4) partners in
      let lits = if others = [] || Prng.bernoulli rng 0.7 then anchor :: others else others in
      Array.of_list (List.map lit lits)
    in
    let head =
      match Prng.int_below rng 3 with
      | 0 -> None
      | 1 -> Some anchor
      | _ -> ( match partners with [] -> None | l -> Some (List.nth l (Prng.int_below rng (List.length l))))
    in
    let w = Graph.add_weight g (Prng.float_range rng (-1.5) 1.5) in
    ignore
      (Graph.add_factor g
         {
           Graph.head;
           bodies = Array.init (1 + Prng.int_below rng 3) (fun _ -> body ());
           weight_id = w;
           semantics = Prng.choice rng [| Semantics.Linear; Semantics.Logical; Semantics.Ratio |];
         })
  done;
  if Prng.bool rng then ignore (Graph.add_var g);
  g

(* The split by definition, one variable at a time: [v] is coupled iff
   some factor mentioning it mentions another query variable. *)
let reference_coupled g =
  let is_query v = Graph.evidence_of g v = Graph.Query in
  let adj = Graph.factors_of_var g in
  List.filter
    (fun v ->
      List.exists
        (fun fid ->
          List.exists (fun u -> u <> v && is_query u) (Graph.vars_of_factor (Graph.factor g fid)))
        adj.(v))
    (Graph.query_vars g)

let isolated_of g =
  let coupled = Compiled.coupled_vars (Compiled.compile g) in
  List.filter (fun v -> not (Array.mem v coupled)) (Graph.query_vars g)

let closed_form_qcheck =
  let open QCheck in
  [
    Test.make ~name:"coupled set = per-variable reference" ~count:200 small_int (fun seed ->
        let g = isolated_mix_graph seed in
        Array.to_list (Compiled.coupled_vars (Compiled.compile g)) = reference_coupled g);
    Test.make ~name:"isolated marginals = exact, every mode" ~count:40 small_int (fun seed ->
        let g = isolated_mix_graph seed in
        let exact = Exact.marginals g in
        let isolated = isolated_of g in
        let estimates =
          [
            ("compiled", Compiled.marginals ~burn_in:3 (Prng.create seed) (Compiled.compile g) ~sweeps:5);
            ( "sequential",
              Par_gibbs.marginals ~burn_in:3 ~kernel:(Compiled.compile g) ~domains:1 (Prng.create seed)
                ~sweeps:5 );
            ( "color-sync 3",
              Par_gibbs.marginals ~burn_in:3 ~kernel:(Compiled.compile g) ~domains:3 (Prng.create seed)
                ~sweeps:5 );
          ]
        in
        List.for_all
          (fun (mode, m) ->
            let bad v = abs_float (m.(v) -. exact.(v)) > 1e-12 in
            match List.find_opt bad isolated with
            | Some v ->
              Test.fail_reportf "seed %d, %s: isolated var %d reads %.17g, exact %.17g" seed mode v
                m.(v) exact.(v)
            | None ->
              List.for_all (fun (v, b) -> m.(v) = if b then 1.0 else 0.0) (Graph.evidence_vars g))
          estimates);
  ]

(* Coupled variables are still sampled: on a mixed graph they match exact
   enumeration within the chain-length tolerance the other enumerable
   checks use (0.03 at 20,000 sweeps), while the isolated ones are exact. *)
let test_coupled_match_exact () =
  let g = isolated_mix_graph 22 in
  let k = Compiled.compile g in
  let coupled = Compiled.coupled_vars k in
  Alcotest.(check bool) "graph mixes coupled and isolated" true
    (Array.length coupled >= 2 && isolated_of g <> []);
  let exact = Exact.marginals g in
  let check what m =
    Array.iter
      (fun v ->
        if abs_float (m.(v) -. exact.(v)) > 0.03 then
          Alcotest.failf "%s: coupled var %d reads %.4f, exact %.4f" what v m.(v) exact.(v))
      coupled
  in
  check "compiled" (Compiled.marginals ~burn_in:100 (Prng.create 12) k ~sweeps:20_000);
  check "color-sync 3"
    (Par_gibbs.marginals ~burn_in:100 ~kernel:k ~domains:3 (Prng.create 13) ~sweeps:20_000)

(* With every query variable isolated the chain sweeps nothing, but the
   budget is still polled once per sweep: a tick budget runs out at the
   sweep it ran out at when every sweep resampled every variable. *)
let test_budget_with_no_coupled () =
  let module Budget = Dd_util.Budget in
  let g = unary_graph 50 in
  let k = Compiled.compile g in
  Alcotest.(check int) "nothing coupled" 0 (Compiled.num_coupled k);
  (* The poll that runs out: its index (ticks + 1) and site, or none. *)
  let outcome ticks run =
    match run (Budget.start (Budget.Ticks ticks)) with
    | _ -> "finished"
    | exception Budget.Exceeded site -> site
  in
  let oracle budget = Sweep_oracle.marginals ~budget ~burn_in:4 (Prng.create 3) k ~sweeps:6 in
  let compiled budget = Compiled.marginals ~budget ~burn_in:4 (Prng.create 3) k ~sweeps:6 in
  let sequential budget =
    Par_gibbs.marginals ~budget ~burn_in:4 ~kernel:k ~domains:1 (Prng.create 3) ~sweeps:6
  in
  for ticks = 0 to 11 do
    let expected = outcome ticks oracle in
    Alcotest.(check string) (Printf.sprintf "compiled, %d ticks" ticks) expected
      (outcome ticks compiled);
    (* At one domain the sampler is [Compiled.marginals]: same poll,
       same site. *)
    Alcotest.(check string) (Printf.sprintf "sequential, %d ticks" ticks) expected
      (outcome ticks sequential)
  done;
  Alcotest.(check string) "10 polls: 4 burn-in + 6 counted sweeps" "finished" (outcome 10 compiled);
  Alcotest.(check string) "the 10th poll is the last sweep's" "compiled.sweep" (outcome 9 compiled)

(* --- exact marginals for small coupled components --------------------- *)

let max_query_diff g m exact =
  List.fold_left (fun acc v -> Float.max acc (abs_float (m.(v) -. exact.(v)))) 0.0 (Graph.query_vars g)

(* At 10 + 200 steps every graph of at most 11 variables is enumerable:
   2^11 <= 210 * 11.  The property still checks the rule's verdict. *)
let exact_qcheck =
  let open QCheck in
  [
    Test.make ~name:"enumerated marginals = exact, every mode" ~count:100 small_int (fun seed ->
        let g = isolated_mix_graph seed in
        let k = Compiled.compile g in
        (not (Compiled.enumerable k ~steps:210))
        ||
        let exact = Exact.marginals g in
        List.for_all
          (fun (mode, m) ->
            let d = max_query_diff g m exact in
            d <= 1e-12 || Test.fail_reportf "seed %d, %s: max |marginal - exact| %.3g" seed mode d)
          [
            ("compiled", Compiled.marginals ~burn_in:10 (Prng.create seed) k ~sweeps:200);
            ( "sequential",
              Par_gibbs.marginals ~burn_in:10 ~kernel:k ~domains:1 (Prng.create seed) ~sweeps:200 );
            ( "color-sync 3",
              Par_gibbs.marginals ~burn_in:10 ~kernel:k ~domains:3 (Prng.create seed) ~sweeps:200 );
          ]);
  ]

(* The I1 shape: eight coupled pairs, eight components of two.  Exact at
   every domain count, without a draw, with one budget poll per
   component. *)
let test_i1_pairs_enumerate () =
  let module Budget = Dd_util.Budget in
  let g = i1_graph ~copies:1 8 in
  let k = Compiled.compile g in
  Alcotest.(check int) "eight components" 8 (Compiled.num_components k);
  Alcotest.(check bool) "enumerable" true (Compiled.enumerable k ~steps:47);
  let exact = Exact.marginals g in
  let rng = Prng.create 31 in
  let m = Par_gibbs.marginals ~burn_in:7 ~kernel:k ~domains:3 rng ~sweeps:40 in
  Alcotest.(check bool) "within 1e-12 of exact" true (max_query_diff g m exact <= 1e-12);
  Alcotest.(check string) "same bits at 1 domain" (digest m)
    (digest (Par_gibbs.marginals ~burn_in:7 ~kernel:k ~domains:1 (Prng.create 32) ~sweeps:40));
  Alcotest.(check string) "same bits from Compiled" (digest m)
    (digest (Compiled.marginals ~burn_in:7 (Prng.create 33) k ~sweeps:40));
  Alcotest.(check int) "nothing drawn" (Prng.bits53 (Prng.create 31)) (Prng.bits53 rng);
  let run ticks = Compiled.marginals ~budget:(Budget.start (Budget.Ticks ticks)) ~burn_in:7 rng k ~sweeps:40 in
  Alcotest.(check string) "8 polls finish" (digest m) (digest (run 8));
  match run 7 with
  | _ -> Alcotest.fail "expected Budget.Exceeded at the eighth component"
  | exception Budget.Exceeded site -> Alcotest.(check string) "component site" "compiled.component" site

(* With nothing to split across domains — nothing coupled, or every
   coupled component enumerable — the multi-domain sampler is
   [Compiled.marginals], bit for bit, and draws exactly what it draws:
   no partition, no per-domain stream, no pool. *)
let test_routes_to_compiled () =
  List.iter
    (fun (name, g) ->
      let k = Compiled.compile g in
      let par_rng = Prng.create 41 and seq_rng = Prng.create 41 in
      let par = Par_gibbs.marginals ~burn_in:5 ~kernel:k ~domains:3 par_rng ~sweeps:30 in
      let seq = Compiled.marginals ~burn_in:5 seq_rng k ~sweeps:30 in
      Alcotest.(check string) (name ^ ": bits of Compiled.marginals") (digest seq) (digest par);
      Alcotest.(check int) (name ^ ": same draws") (Prng.bits53 seq_rng) (Prng.bits53 par_rng))
    [ ("all isolated", unary_graph 50); ("enumerable", i1_graph ~copies:1 8) ]

(* --- Fig-KBC agreement (the recovery harness comparators) -------------- *)

let tiny_news =
  {
    Dd_kbc.Systems.news with
    Corpus.docs = 40;
    entities = 30;
    truth_pairs_per_relation = 6;
  }

let test_par_fig_kbc_agreement () =
  let corpus = Corpus.generate tiny_news in
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db (Pipeline.full_program ()) in
  let g = Grounding.graph grounding in
  let kernel = Compiled.compile g in
  Dd_inference.Learner.train_cd
    ~options:{ Dd_inference.Learner.default_cd with Dd_inference.Learner.epochs = 10 }
    ~kernel (Prng.create 80);
  let sweeps = 2500 in
  let seq = Compiled.marginals ~burn_in:50 (Prng.create 81) kernel ~sweeps in
  let par = Par_gibbs.marginals ~burn_in:50 ~kernel ~domains:3 (Prng.create 81) ~sweeps in
  let agreement =
    Quality.compare_marginals
      (Grounding.marginals_by_relation grounding par)
      (Grounding.marginals_by_relation grounding seq)
  in
  if agreement.Quality.high_conf_jaccard < 0.8 then
    Alcotest.failf "high-confidence Jaccard %.3f < 0.8" agreement.Quality.high_conf_jaccard;
  if agreement.Quality.frac_diff_gt > 0.1 then
    Alcotest.failf "%.1f%% of tuples differ by > 0.05" (100.0 *. agreement.Quality.frac_diff_gt);
  if agreement.Quality.max_diff > 0.15 then
    Alcotest.failf "max marginal difference %.3f > 0.15" agreement.Quality.max_diff

let test_engine_parallel_smoke () =
  (* End-to-end: an engine configured with parallel_domains > 1
     materializes through parallel chains and stays numerically sane. *)
  let corpus = Corpus.generate tiny_news in
  let db = Database.create () in
  Corpus.load corpus db;
  let options =
    {
      Engine.default_options with
      Engine.materialization_samples = 60;
      inference_chain = 40;
      initial_learning_epochs = 5;
      disable_variational = true;
      parallel_domains = 3;
    }
  in
  let engine = Engine.create ~options db (Pipeline.base_program ()) in
  let mat = Engine.materialization engine in
  Alcotest.(check int) "sample store filled" 60 (Array.length mat.Materialize.samples);
  Array.iter
    (fun m ->
      Alcotest.(check bool) "marginal in [0,1]" true (m >= 0.0 && m <= 1.0))
    (Engine.marginals engine)

(* Full-Gibbs inference at [parallel_domains > 1] keeps the engine's two
   contracts: a store whose WAL replays two updates through
   [apply_update] recovers the live engine bit for bit, and a Rerun
   reproduces itself. *)
let test_full_gibbs_durable () =
  let corpus = Corpus.generate tiny_news in
  let db () =
    let db = Database.create () in
    Corpus.load corpus db;
    db
  in
  let options =
    {
      Engine.default_options with
      Engine.materialization_samples = 40;
      inference_chain = 60;
      initial_learning_epochs = 5;
      disable_sampling = true;
      disable_variational = true;
      parallel_domains = 2;
    }
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dd_parallel_durable" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  let engine = Engine.create ~options (db ()) (Pipeline.base_program ()) in
  let store = Checkpoint.open_store ~fsync:false dir in
  Checkpoint.save store engine;
  List.iter
    (fun rule ->
      let report = Engine.apply_update engine (Pipeline.update_of rule) in
      Alcotest.(check string) "full gibbs" "full-gibbs"
        (Engine.strategy_used_to_string report.Engine.strategy))
    [ Pipeline.A1; Pipeline.FE1 ];
  Checkpoint.save store engine;
  Alcotest.(check bool) "both updates appended to the WAL" true
    (Checkpoint.last_save store = Some (Checkpoint.Append 2));
  Checkpoint.abandon store;
  (match Checkpoint.recover (Checkpoint.open_store ~fsync:false dir) with
  | Ok (recovered, applied) ->
    Alcotest.(check int) "both updates replayed" 2 applied;
    Alcotest.(check string) "recovered marginals bit-identical" (digest (Engine.marginals engine))
      (digest (Engine.marginals recovered))
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  let rerun () =
    let options = { options with Engine.parallel_domains = 3 } in
    digest (fst (Engine.rerun ~options (db ()) (Pipeline.full_program ())))
  in
  Alcotest.(check string) "rerun at 3 domains reproduces itself" (rerun ()) (rerun ())

let () =
  Alcotest.run "dd_parallel"
    [
      ( "partition",
        [
          Alcotest.test_case "valid on random graphs" `Quick test_partition_valid_small;
          Alcotest.test_case "covers query variables" `Quick test_partition_covers_queries;
          Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
          Alcotest.test_case "voting degenerates to singletons" `Quick
            test_partition_voting_degenerates;
          Alcotest.test_case "validator rejects corruption" `Quick test_partition_rejects_corrupt;
          Alcotest.test_case "slices cover classes" `Quick test_slices_cover;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs all indices, reusable" `Quick test_pool_runs_all_indices;
          Alcotest.test_case "propagates exceptions" `Quick test_pool_propagates_exception;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
        ] );
      ( "sequential equivalence",
        [
          Alcotest.test_case "marginals bit-identical" `Quick test_seq_marginals_bit_identical;
          Alcotest.test_case "sample worlds bit-identical" `Quick
            test_seq_sample_worlds_bit_identical;
          Alcotest.test_case "materialize bit-identical" `Quick test_seq_materialize_bit_identical;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "deterministic per (seed, domains)" `Quick test_par_reproducible;
          Alcotest.test_case "sample worlds shape + evidence" `Quick test_par_sample_worlds_shape;
          Alcotest.test_case "marginals vs exact" `Slow test_par_marginals_match_exact;
          Alcotest.test_case "voting graph agrees" `Slow test_par_voting_agrees;
          Alcotest.test_case "fig-kbc agreement (jaccard/maxdiff)" `Slow
            test_par_fig_kbc_agreement;
          Alcotest.test_case "engine smoke with parallel_domains" `Quick
            test_engine_parallel_smoke;
          Alcotest.test_case "budget polled inside worker slices" `Quick
            test_budgeted_worker_slices;
          Alcotest.test_case "full-gibbs durability" `Quick test_full_gibbs_durable;
        ] );
      ( "closed form",
        [
          Alcotest.test_case "no isolated: bits of the sweep-count oracle" `Quick
            test_no_isolated_matches_oracle;
          Alcotest.test_case "no isolated: 3-domain digests pinned" `Quick
            test_no_isolated_three_domains_pinned;
          Alcotest.test_case "coupled marginals vs exact" `Slow test_coupled_match_exact;
          Alcotest.test_case "budget ticks with nothing coupled" `Quick test_budget_with_no_coupled;
        ] );
      ("closed form properties", List.map QCheck_alcotest.to_alcotest closed_form_qcheck);
      ( "exact components",
        [
          Alcotest.test_case "I1 pairs enumerate" `Quick test_i1_pairs_enumerate;
          Alcotest.test_case "3 domains route to Compiled" `Quick test_routes_to_compiled;
        ] );
      ("exact properties", List.map QCheck_alcotest.to_alcotest exact_qcheck);
      ("partition properties", List.map QCheck_alcotest.to_alcotest partition_qcheck);
    ]
