(* Tests for the compiled flat (CSR) factor-graph kernel: trajectories
   that track the plain Gibbs oracle per (seed, graph), agreement with
   exact marginals, refresh_weights-vs-recompile equivalence, extend
   against compile, dense gradient agreement with the graph-walking
   feature counter, the lone variables' exact gradient terms, and the
   engine's kernel cache across incremental steps. *)

module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Database = Dd_relational.Database
module Ast = Dd_datalog.Ast
module Dred = Dd_datalog.Dred
module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Exact = Dd_oracle.Exact
module Voting = Dd_fgraph.Voting
module Gibbs = Dd_oracle.Gibbs
module Compiled = Dd_inference.Compiled
module Learner_ref = Dd_oracle.Learner_ref
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Engine = Dd_core.Engine
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

(* Random mixed graphs: unary biases on every variable plus multi-body
   factors with random heads, negation, and semantics — the shape of
   [mixed_graph8] below, with size and learnable weights drawn by seed. *)
let mixed_graph ?(learnable = false) seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let n = 6 + Prng.int_below rng 5 in
  let vars = Graph.add_vars g n in
  Graph.set_evidence g vars.(n - 1) (Graph.Evidence (Prng.bool rng));
  Array.iter
    (fun v ->
      let l = learnable && Prng.bool rng in
      let w = Graph.add_weight ~learnable:l g (Prng.float_range rng (-1.0) 1.0) in
      ignore (Graph.unary g ~weight:w v))
    vars;
  for _ = 1 to 4 + Prng.int_below rng 5 do
    let a = Prng.int_below rng n and b = Prng.int_below rng n in
    if a <> b then begin
      let l = learnable && Prng.bool rng in
      let w = Graph.add_weight ~learnable:l g (Prng.float_range rng (-1.0) 1.0) in
      let semantics = Prng.choice rng [| Semantics.Linear; Semantics.Logical; Semantics.Ratio |] in
      let head = if Prng.bool rng then Some (Prng.int_below rng n) else None in
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

(* --- tracking the Gibbs oracle ------------------------------------------------- *)

(* Same initial world and seed: the compiled chain must reproduce the
   oracle's trajectory sweep for sweep.  Conditionals sum the same factor
   energies in another order, so they agree to 1e-9, not bit-for-bit. *)
let tracks_oracle seed =
  let g = mixed_graph seed in
  let init = Gibbs.init_assignment (Prng.create (1000 + seed)) g in
  let st = Compiled.make_state ~init (Prng.create 1) (Compiled.compile g) in
  let oracle = Array.copy init in
  let rng_c = Prng.create (2000 + seed) and rng_o = Prng.create (2000 + seed) in
  let ok = ref true in
  for _ = 1 to 30 do
    Compiled.sweep rng_c st;
    Gibbs.sweep rng_o g oracle;
    if Compiled.snapshot st <> oracle then ok := false
  done;
  for v = 0 to Graph.num_vars g - 1 do
    if abs_float (Compiled.conditional_true_prob st v -. Gibbs.conditional_true_prob g oracle v)
       > 1e-9
    then ok := false
  done;
  !ok

let test_tracks_oracle () =
  for seed = 0 to 24 do
    if not (tracks_oracle seed) then
      Alcotest.failf "seed %d: compiled sampler diverged from the Gibbs oracle" seed
  done

let test_same_rng_consumption () =
  (* The initial world and every sweep must draw the same count from the
     stream as the oracle: identical clones stay in step throughout. *)
  let g = mixed_graph 5 in
  let rng_c = Prng.create 77 and rng_o = Prng.create 77 in
  let st = Compiled.make_state rng_c (Compiled.compile g) in
  let oracle = Gibbs.init_assignment rng_o g in
  Alcotest.(check bool) "same initial world" true (Compiled.snapshot st = oracle);
  for _ = 1 to 10 do
    Compiled.sweep rng_c st;
    Gibbs.sweep rng_o g oracle
  done;
  Alcotest.(check int64) "streams in step" (Prng.bits64 rng_o) (Prng.bits64 rng_c)

(* A Ratio factor whose satisfied-body count wanders across the end of
   [Compiled.ratio_table_len]: [n] query variables, each the single
   positive literal of one body, biased so that about [ratio_table_len]
   of them are true.  Both the table and the [log] fallback serve
   conditionals, and the compiled chain must still reproduce the oracle's
   trajectory draw for draw. *)
let ratio_boundary_graph () =
  let g = Graph.create () in
  let n = Compiled.ratio_table_len + 16 in
  let vars = Graph.add_vars g n in
  let head = Graph.add_var g in
  let p = float_of_int Compiled.ratio_table_len /. float_of_int n in
  let bias = Graph.add_weight g (log (p /. (1.0 -. p))) in
  Array.iter (fun v -> ignore (Graph.unary g ~weight:bias v)) vars;
  ignore (Graph.unary g ~weight:(Graph.add_weight g 0.5) head);
  ignore
    (Graph.add_factor g
       {
         Graph.head = Some head;
         bodies = Array.map (fun v -> [| { Graph.var = v; negated = false } |]) vars;
         weight_id = Graph.add_weight g 0.3;
         semantics = Semantics.Ratio;
       });
  (g, vars)

let test_ratio_table_boundary () =
  let g, vars = ratio_boundary_graph () in
  let init = Gibbs.init_assignment (Prng.create 31) g in
  let st = Compiled.make_state ~init (Prng.create 1) (Compiled.compile g) in
  let oracle = Array.copy init in
  let rng_c = Prng.create 32 and rng_o = Prng.create 32 in
  let lo = ref max_int and hi = ref min_int in
  for sweep = 1 to 300 do
    Compiled.sweep rng_c st;
    Gibbs.sweep rng_o g oracle;
    if Compiled.snapshot st <> oracle then
      Alcotest.failf "sweep %d: compiled diverged from the Gibbs oracle" sweep;
    let n = Array.fold_left (fun n v -> if oracle.(v) then n + 1 else n) 0 vars in
    lo := min !lo n;
    hi := max !hi n
  done;
  (* A conditional of a body variable sees counts n and n + 1 (or n - 1),
     so the chain exercised both sides of the table's last entry. *)
  if not (!lo < Compiled.ratio_table_len - 1 && !hi > Compiled.ratio_table_len) then
    Alcotest.failf "satisfied bodies stayed in [%d, %d]; the boundary %d was not crossed" !lo !hi
      Compiled.ratio_table_len;
  for v = 0 to Graph.num_vars g - 1 do
    let a = Compiled.conditional_true_prob st v and b = Gibbs.conditional_true_prob g oracle v in
    if abs_float (a -. b) > 1e-9 then Alcotest.failf "var %d: compiled %.17g oracle %.17g" v a b
  done

(* --- zero allocation per update ------------------------------------------------ *)

(* Linear, Logical and Ratio factors, heads on some, negated literals, and
   one Ratio factor wide enough for the [log] fallback. *)
let semantics_mix_graph () =
  let rng = Prng.create 91 in
  let g = Graph.create () in
  let n = 40 in
  let vars = Graph.add_vars g n in
  Graph.set_evidence g vars.(0) (Graph.Evidence true);
  Array.iter
    (fun v -> ignore (Graph.unary g ~weight:(Graph.add_weight g (Prng.float_range rng (-1.0) 1.0)) v))
    vars;
  let semantics = [| Semantics.Linear; Semantics.Logical; Semantics.Ratio |] in
  for i = 0 to (3 * n) - 1 do
    let a = Prng.int_below rng n in
    let b = (a + 1 + Prng.int_below rng (n - 1)) mod n in
    ignore
      (Graph.add_factor g
         {
           Graph.head = (if i mod 2 = 0 then Some (Prng.int_below rng n) else None);
           bodies =
             [|
               [| { Graph.var = a; negated = Prng.bool rng } |];
               [| { Graph.var = a; negated = false }; { Graph.var = b; negated = true } |];
             |];
           weight_id = Graph.add_weight g (Prng.float_range rng (-1.0) 1.0);
           semantics = semantics.(i mod 3);
         })
  done;
  ignore
    (Graph.add_factor g
       {
         Graph.head = Some vars.(1);
         bodies = Array.map (fun v -> [| { Graph.var = v; negated = false } |]) vars;
         weight_id = Graph.add_weight g 0.2;
         semantics = Semantics.Ratio;
       });
  g

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* [run k] performs [k] sweeps.  What 1,000 sweeps allocate beyond 10
   must be a small constant, not a per-update cost: an update that boxes
   its floats or its generator state allocates 12-25 words. *)
let check_allocation_free name run =
  run 1;
  let few = minor_words (fun () -> run 10) in
  let many = minor_words (fun () -> run 1000) in
  if many -. few > 64.0 then
    Alcotest.failf "%s: 1000 sweeps allocate %.0f minor words, 10 sweeps %.0f" name many few

let test_sweeps_allocation_free () =
  let g = semantics_mix_graph () in
  let k = Compiled.compile g in
  let rng = Prng.create 5 in
  let st = Compiled.make_state rng k in
  let repeat f k =
    for _ = 1 to k do
      f ()
    done
  in
  let slice = Compiled.query_vars k in
  check_allocation_free "sweep" (repeat (fun () -> Compiled.sweep rng st));
  check_allocation_free "sweep_shared" (repeat (fun () -> Compiled.sweep_shared rng st));
  check_allocation_free "sweep_slice" (repeat (fun () -> Compiled.sweep_slice rng st slice))

(* --- agreement with exact marginals -------------------------------------------- *)

let test_marginals_match_exact_mixed () =
  let g = mixed_graph 3 in
  let kernel = Compiled.compile g in
  let m = Compiled.marginals ~burn_in:100 (Prng.create 10) kernel ~sweeps:20_000 in
  let exact = Exact.marginals g in
  Alcotest.(check bool) "within 3%" true (Stats.max_abs_diff m exact < 0.03)

let test_marginals_match_exact_voting () =
  (* The Example 2.5 voting graph: the compiled sampler's estimate of
     P(q) must match the closed-form counting answer. *)
  let cfg =
    {
      Voting.n_up = 6;
      n_down = 4;
      rule_weight = 0.8;
      unary_up = 0.2;
      unary_down = -0.1;
      semantics = Semantics.Logical;
    }
  in
  let g, q, _, _ = Voting.build cfg in
  let kernel = Compiled.compile g in
  let m = Compiled.marginals ~burn_in:200 (Prng.create 11) kernel ~sweeps:30_000 in
  let exact = Voting.exact_marginal_q cfg in
  Alcotest.(check (float 0.03)) "P(q)" exact m.(q)

(* --- refresh_weights vs full recompile ----------------------------------------- *)

let test_refresh_weights_equiv_recompile () =
  let g = mixed_graph 7 in
  let kernel = Compiled.compile g in
  (* Move every weight after compilation, as learning would. *)
  let rng = Prng.create 21 in
  for w = 0 to Graph.num_weights g - 1 do
    Graph.set_weight g w (Prng.float_range rng (-1.5) 1.5)
  done;
  Compiled.refresh_weights kernel;
  let fresh = Compiled.compile g in
  let init = Gibbs.init_assignment (Prng.create 4) g in
  let st_refreshed = Compiled.make_state ~init (Prng.create 5) kernel in
  let st_fresh = Compiled.make_state ~init:(Array.copy init) (Prng.create 5) fresh in
  for v = 0 to Graph.num_vars g - 1 do
    let a = Compiled.conditional_true_prob st_refreshed v in
    let b = Compiled.conditional_true_prob st_fresh v in
    if a <> b then Alcotest.failf "var %d: refreshed %.17g fresh %.17g" v a b
  done;
  let rng_a = Prng.create 6 and rng_b = Prng.create 6 in
  for _ = 1 to 20 do
    Compiled.sweep rng_a st_refreshed;
    Compiled.sweep rng_b st_fresh
  done;
  Alcotest.(check bool) "same trajectory" true
    (Compiled.snapshot st_refreshed = Compiled.snapshot st_fresh)

let test_matches_structure () =
  let g = mixed_graph 2 in
  let kernel = Compiled.compile g in
  Alcotest.(check bool) "fresh" true (Compiled.matches_structure kernel g);
  Graph.set_weight g 0 5.0;
  Alcotest.(check bool) "weight change ok" true (Compiled.matches_structure kernel g);
  let v = Graph.add_var g in
  Alcotest.(check bool) "new var detected" false (Compiled.matches_structure kernel g);
  let kernel2 = Compiled.compile g in
  let w = Graph.add_weight g 1.0 in
  ignore (Graph.unary g ~weight:w v);
  Alcotest.(check bool) "new factor detected" false (Compiled.matches_structure kernel2 g)

(* Every array of a kernel, weight bits included: two kernels over one
   graph are equal iff their marshalled bytes are. *)
let kernel_bytes k = Marshal.to_string k [ Marshal.No_sharing ]

let check_extend_equals_compile label k g =
  if kernel_bytes k <> kernel_bytes (Compiled.compile g) then
    Alcotest.failf "%s: extend differs from compile" label

let extend_exn k g =
  match Compiled.extend k g with
  | Some k' -> k'
  | None -> Alcotest.fail "extend refused an appending update"

(* Evidence flips keep every count but change the query set, and with it
   the packed query array and the isolated/coupled and lone/shared
   splits: [matches_structure] does not see them, and [extend] marks the
   whole graph again, giving [compile]'s kernel. *)
let test_extend_evidence_flip () =
  let g = mixed_graph 2 in
  let q = List.hd (Graph.query_vars g) in
  let kernel = Compiled.compile g in
  Graph.set_evidence g q (Graph.Evidence true);
  Alcotest.(check bool) "counts still match" true (Compiled.matches_structure kernel g);
  let kernel2 = extend_exn kernel g in
  check_extend_equals_compile "query -> evidence" kernel2 g;
  Alcotest.(check int) "one query variable fewer" (Compiled.num_query kernel - 1)
    (Compiled.num_query kernel2);
  Graph.set_evidence g q Graph.Query;
  check_extend_equals_compile "evidence -> query" (extend_exn kernel2 g) g;
  Graph.set_evidence g q (Graph.Evidence false);
  let kernel3 = extend_exn kernel g in
  Graph.set_evidence g q (Graph.Evidence true);
  check_extend_equals_compile "clamped value flip" (extend_exn kernel3 g) g;
  (* Counts equal, sets differ: one variable freed, another clamped. *)
  let e = List.hd (List.map fst (Graph.evidence_vars g)) in
  let q' = List.hd (Graph.query_vars g) in
  let kernel4 = Compiled.compile g in
  Graph.set_evidence g e Graph.Query;
  Graph.set_evidence g q' (Graph.Evidence false);
  check_extend_equals_compile "swapped query set" (extend_exn kernel4 g) g

(* A factor over an older variable is not an append: [extend] declines
   it, and so does it a graph the kernel was not built from. *)
let test_extend_declines () =
  let g = mixed_graph 4 in
  let kernel = Compiled.compile g in
  let v = Graph.add_var g in
  let kernel2 = extend_exn kernel g in
  check_extend_equals_compile "new variable" kernel2 g;
  ignore (Graph.pairwise g ~weight:(Graph.add_weight g 0.5) 0 v);
  Alcotest.(check bool) "factor over an older variable" true (Compiled.extend kernel2 g = None);
  Alcotest.(check bool) "another graph" true (Compiled.extend kernel2 (mixed_graph 4) = None)

let random_evidence rng =
  match Prng.int_below rng 3 with
  | 0 -> Graph.Query
  | 1 -> Graph.Evidence true
  | _ -> Graph.Evidence false

(* One appending step: new variables (query or evidence), new learnable
   and fixed weights (some unused), and factors over the new variables
   only, of every semantics, with heads, negation, empty bodies and
   old weights reused; a three-variable chain now and then, whose
   middle a later step may clamp, splitting its component; then
   evidence moves and value flips on older variables. *)
let appending_step rng g chains =
  let v0 = Graph.num_vars g in
  let fresh = Prng.int_below rng 6 in
  let vars = Array.init fresh (fun _ -> Graph.add_var ~evidence:(random_evidence rng) g) in
  let weight () =
    if Graph.num_weights g > 0 && Prng.int_below rng 3 = 0 then Prng.int_below rng (Graph.num_weights g)
    else Graph.add_weight ~learnable:(Prng.bool rng) g (Prng.float_range rng (-1.0) 1.0)
  in
  if Prng.bool rng then ignore (Graph.add_weight ~learnable:(Prng.bool rng) g 0.25);
  let semantics () = Prng.choice rng [| Semantics.Linear; Semantics.Logical; Semantics.Ratio |] in
  let lit v = { Graph.var = v; negated = Prng.bool rng } in
  Array.iter
    (fun v ->
      match Prng.int_below rng 4 with
      | 0 -> ()
      | 1 -> ignore (Graph.unary g ~weight:(weight ()) v)
      | 2 ->
        ignore
          (Graph.add_factor g
             { Graph.head = Some v; bodies = [| [| lit v |]; [||] |]; weight_id = weight (); semantics = semantics () })
      | _ ->
        ignore
          (Graph.add_factor g
             { Graph.head = None; bodies = [| [| lit v |]; [| lit v |] |]; weight_id = weight (); semantics = semantics () }))
    vars;
  if fresh >= 2 then
    for _ = 1 to Prng.int_below rng 4 do
      let a = vars.(Prng.int_below rng fresh) and b = vars.(Prng.int_below rng fresh) in
      if a <> b then
        ignore
          (Graph.add_factor g
             {
               Graph.head = (if Prng.bool rng then Some vars.(Prng.int_below rng fresh) else None);
               bodies = [| [| lit a |]; [| lit a; lit b |] |];
               weight_id = weight ();
               semantics = semantics ();
             })
    done;
  if fresh >= 3 && Prng.bool rng then begin
    let w = weight () in
    ignore (Graph.pairwise g ~weight:w vars.(0) vars.(1));
    ignore (Graph.pairwise g ~weight:w vars.(1) vars.(2));
    chains := vars.(1) :: !chains
  end;
  if v0 > 0 then
    for _ = 1 to Prng.int_below rng 3 do
      Graph.set_evidence g (Prng.int_below rng v0) (random_evidence rng)
    done;
  match !chains with
  | middle :: _ when middle < v0 && Prng.bool rng -> Graph.set_evidence g middle (random_evidence rng)
  | _ -> ()

let extend_tracks_compile seed =
  let rng = Prng.create (7000 + seed) in
  let g = mixed_graph ~learnable:true seed in
  let chains = ref [] in
  let k = ref (Compiled.compile g) in
  for step = 1 to 12 do
    appending_step rng g chains;
    k := extend_exn !k g;
    check_extend_equals_compile (Printf.sprintf "seed %d step %d" seed step) !k g
  done;
  true
let test_compile_rejects_duplicate_literal () =
  let g = Graph.create () in
  let v = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  ignore
    (Graph.add_factor g
       {
         Graph.head = None;
         bodies = [| [| { Graph.var = v; negated = false }; { Graph.var = v; negated = true } |] |];
         weight_id = w;
         semantics = Semantics.Linear;
       });
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Compiled.compile: variable repeated within a body")
    (fun () -> ignore (Compiled.compile g))

(* --- fast (cached) gibbs: the compiled sampler against the plain one ---------- *)

(* A harsher structure mix for equivalence testing: implications with
   multiple bodies, negated literals, evidence, all three semantics, on a
   fixed eight variables. *)
let mixed_graph8 seed =
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

let test_fast_gibbs_conditionals_match () =
  (* The cached sampler's conditional must agree with the plain sampler's
     for every variable under many random assignments. *)
  for seed = 0 to 9 do
    let g = mixed_graph8 seed in
    let rng = Prng.create (100 + seed) in
    for _ = 1 to 10 do
      let a = Gibbs.init_assignment rng g in
      let fast = Compiled.make_state ~init:a (Prng.copy rng) (Compiled.compile g) in
      for v = 0 to Graph.num_vars g - 1 do
        let plain = Gibbs.conditional_true_prob g a v in
        let cached = Compiled.conditional_true_prob fast v in
        if abs_float (plain -. cached) > 1e-9 then
          Alcotest.failf "seed %d var %d: plain %.12f fast %.12f" seed v plain cached
      done
    done
  done

let test_fast_gibbs_identical_chain () =
  (* Same PRNG stream -> bit-identical trajectories. *)
  let g = mixed_graph8 42 in
  let init = Gibbs.init_assignment (Prng.create 7) g in
  let a = Array.copy init in
  let rng_plain = Prng.create 8 and rng_fast = Prng.create 8 in
  let fast = Compiled.make_state ~init (Prng.create 9) (Compiled.compile g) in
  for _ = 1 to 50 do
    Gibbs.sweep rng_plain g a;
    Compiled.sweep rng_fast fast
  done;
  Alcotest.(check bool) "same trajectory" true (a = Compiled.snapshot fast)

let test_fast_gibbs_marginals_match_exact () =
  let g = mixed_graph8 3 in
  let m = Compiled.marginals ~burn_in:100 (Prng.create 10) (Compiled.compile g) ~sweeps:20_000 in
  let exact = Exact.marginals g in
  Alcotest.(check bool) "within 3%" true (Stats.max_abs_diff m exact < 0.03)

let test_fast_gibbs_voting_fast () =
  (* The whole point: a voting factor with 500 bodies costs O(1) per vote
     update instead of O(n).  Just check it converges on a mid-size
     instance within a modest wall-clock. *)
  let cfg = { Dd_fgraph.Voting.default with Dd_fgraph.Voting.n_up = 250; n_down = 250 } in
  let graph, q, _, _ = Dd_fgraph.Voting.build cfg in
  let exact = Dd_fgraph.Voting.exact_marginal_q cfg in
  match
    Compiled.sweeps_to_converge ~tolerance:0.02 ~max_sweeps:20_000 (Prng.create 11)
      (Compiled.compile graph)
      ~target_var:q ~target_prob:exact
  with
  | Some _ -> ()
  | None -> Alcotest.fail "did not converge"

let test_fast_gibbs_rejects_duplicate_literal () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  ignore
    (Graph.add_factor g
       {
         Graph.head = None;
         bodies = [| [| { Graph.var = a; negated = false }; { Graph.var = a; negated = true } |] |];
         weight_id = w;
         semantics = Semantics.Logical;
       });
  Alcotest.(check bool) "rejected" true
    (match Compiled.compile g with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- dense gradients vs the graph-walking feature counter ----------------------- *)

(* The lone variables of [g], by the definition: every factor that
   mentions the variable mentions no other. *)
let lone_vars g =
  let by_var = Graph.factors_of_var g in
  Array.map
    (fun fids -> List.for_all (fun fid -> List.length (Graph.vars_of_factor (Graph.factor g fid)) = 1) fids)
    by_var

(* [g]'s variables, evidence and weights, with only the factors [keep]
   selects. *)
let restrict g keep =
  let g' = Graph.create () in
  for v = 0 to Graph.num_vars g - 1 do
    ignore (Graph.add_var ~evidence:(Graph.evidence_of g v) g')
  done;
  for w = 0 to Graph.num_weights g - 1 do
    ignore (Graph.add_weight ~learnable:(Graph.weight_learnable g w) g' (Graph.weight_value g w))
  done;
  Graph.iter_factors (fun _ f -> if keep f then ignore (Graph.add_factor g' f)) g;
  g'

(* The chains count the factors that touch a shared variable; the
   factors over one lone variable are [add_lone_terms]'s. *)
let test_add_feature_counts_matches_reference () =
  for seed = 0 to 9 do
    let g = mixed_graph ~learnable:true seed in
    let nw = Graph.num_weights g in
    let kernel = Compiled.compile g in
    let init = Gibbs.init_assignment (Prng.create (300 + seed)) g in
    let st = Compiled.make_state ~init (Prng.create 1) kernel in
    let dense = Array.make nw 0.0 in
    Compiled.add_feature_counts st ~scale:1.0 dense;
    let lone = lone_vars g in
    let chain = restrict g (fun f -> List.exists (fun v -> not lone.(v)) (Graph.vars_of_factor f)) in
    let reference = Learner_ref.feature_counts chain init in
    List.iter
      (fun (w, expected) ->
        if abs_float (dense.(w) -. expected) > 1e-9 then
          Alcotest.failf "seed %d weight %d: dense %.12f reference %.12f" seed w dense.(w) expected)
      reference;
    (* Slots absent from the reference list must be zero in the dense array. *)
    Array.iteri
      (fun w v ->
        if (not (List.mem_assoc w reference)) && v <> 0.0 then
          Alcotest.failf "seed %d weight %d: spurious gradient %.12f" seed w v)
      dense
  done

(* Lone evidence, lone query and shared variables under one semantics:
   four lone variables with one to three factors each (a unary bias, a
   headed factor with a negated and an empty body, a head-only factor),
   and a coupled triangle with an evidence corner.  Small enough to
   enumerate. *)
let lone_fixture semantics seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let weight () = Graph.add_weight ~learnable:true g (Prng.float_range rng (-1.5) 1.5) in
  let lone =
    Array.init 4 (fun i ->
        Graph.add_var ~evidence:(if i = 3 then Graph.Query else Graph.Evidence (i mod 2 = 0)) g)
  in
  Array.iteri
    (fun i v ->
      ignore (Graph.unary g ~weight:(weight ()) v);
      if i <> 1 then
        ignore
          (Graph.add_factor g
             {
               Graph.head = Some v;
               bodies = [| [| { Graph.var = v; negated = true } |]; [||]; [| { Graph.var = v; negated = false } |] |];
               weight_id = weight ();
               semantics;
             });
      if i = 2 then
        ignore (Graph.add_factor g { Graph.head = Some v; bodies = [| [||] |]; weight_id = weight (); semantics }))
    lone;
  let tri = Graph.add_vars g 3 in
  Graph.set_evidence g tri.(0) (Graph.Evidence true);
  Array.iteri
    (fun i a ->
      let b = tri.((i + 1) mod 3) in
      ignore
        (Graph.add_factor g
           {
             Graph.head = Some a;
             bodies = [| [| { Graph.var = b; negated = i = 1 } |] |];
             weight_id = weight ();
             semantics;
           }))
    tri;
  g

(* The exact expectation, from the oracles: for each lone evidence
   variable [v], with [p] its free-phase marginal ([Exact.marginals] of
   the graph with every variable released), the feature counts of the
   world with [v] at its label minus [p] times those with [v] true and
   [1 - p] times those with [v] false; every other variable is false in
   all three, so its factors cancel. *)
let lone_reference g =
  let n = Graph.num_vars g in
  let free = Graph.copy g in
  for v = 0 to n - 1 do
    Graph.set_evidence free v Graph.Query
  done;
  let p = Exact.marginals free in
  let grad = Array.make (Graph.num_weights g) 0.0 in
  let counts v x =
    let a = Array.make n false in
    a.(v) <- x;
    Learner_ref.feature_counts g a
  in
  let add scale = List.iter (fun (w, c) -> grad.(w) <- grad.(w) +. (scale *. c)) in
  Array.iteri
    (fun v is_lone ->
      match Graph.evidence_of g v with
      | Graph.Evidence label when is_lone ->
        add 1.0 (counts v label);
        add (-.p.(v)) (counts v true);
        add (-.(1.0 -. p.(v))) (counts v false)
      | _ -> ())
    (lone_vars g);
  grad

let test_lone_terms_exact () =
  List.iter
    (fun semantics ->
      for seed = 0 to 4 do
        let g = lone_fixture semantics seed in
        let kernel = Compiled.compile g in
        let grad = Array.make (Graph.num_weights g) 0.0 in
        Compiled.add_lone_terms kernel grad;
        let reference = lone_reference g in
        Array.iteri
          (fun w expected ->
            if abs_float (grad.(w) -. expected) > 1e-12 then
              Alcotest.failf "%s seed %d weight %d: kernel %.17g exact %.17g"
                (Semantics.to_string semantics) seed w grad.(w) expected)
          reference;
        if Array.for_all (fun x -> abs_float x < 1e-3) reference then
          Alcotest.failf "seed %d: the fixture has no lone evidence term" seed
      done)
    [ Semantics.Linear; Semantics.Logical; Semantics.Ratio ]

(* --- engine kernel cache -------------------------------------------------------- *)

let s = Value.str
let v name = Ast.Var name
let atom = Ast.atom

let item_schema = Schema.make [ ("item", Value.TStr); ("feature", Value.TStr) ]
let label_schema = Schema.make [ ("item", Value.TStr); ("lbl", Value.TBool) ]
let query_schema = Schema.make [ ("item", Value.TStr) ]

let classifier_rule =
  Program.Infer
    {
      Program.name = "classify";
      head = atom "is_pos" [ v "x" ];
      body = [ Ast.Pos (atom "item_feature" [ v "x"; v "f" ]) ];
      guards = [];
      weight = Program.Tied [ v "f" ];
      semantics = Semantics.Linear;
      populate_head = true;
    }

let supervision_rule =
  Program.Supervise
    ( "labels",
      Ast.rule
        (atom "is_pos_ev" [ v "x"; v "l" ])
        [ Ast.Pos (atom "label_src" [ v "x"; v "l" ]) ] )

let engine_fixture () =
  let db = Database.create () in
  ignore (Database.create_table db "item_feature" item_schema);
  ignore (Database.create_table db "label_src" label_schema);
  List.iter
    (fun (item, feature) -> Database.insert_rows db "item_feature" [ [| s item; s feature |] ])
    [ ("a", "f1"); ("b", "f1"); ("c", "f2"); ("d", "f2") ];
  Database.insert_rows db "label_src" [ [| s "a"; Value.Bool true |] ];
  let prog =
    {
      Program.input_schemas = [ ("item_feature", item_schema); ("label_src", label_schema) ];
      query_relations = [ ("is_pos", query_schema) ];
      rules = [ classifier_rule; supervision_rule ];
    }
  in
  (db, prog)

let full_gibbs_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 20;
    inference_chain = 30;
    burn_in = 5;
    initial_learning_epochs = 5;
    incremental_learning_epochs = 1;
    (* Force the full-Gibbs fallback so every update exercises the
       compiled-kernel path. *)
    disable_sampling = true;
    disable_variational = true;
  }

let test_engine_reuses_kernel () =
  let db, prog = engine_fixture () in
  let engine = Engine.create ~options:full_gibbs_options db prog in
  (* One compile serves create's learning, inference and materialization,
     and the first update with no structural change reuses it. *)
  Alcotest.(check int) "create compiles once" 1 (Engine.kernel_compiles engine);
  let r1 = Engine.apply_update engine (Grounding.rules_update []) in
  Alcotest.(check string) "full gibbs" "full-gibbs" (Engine.strategy_used_to_string r1.Engine.strategy);
  Alcotest.(check int) "create's kernel reused" 1 (Engine.kernel_compiles engine);
  (* Weight-only steps (no structural or evidence change) reuse the kernel. *)
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  Alcotest.(check int) "cache reused" 1 (Engine.kernel_compiles engine);
  (* A data update that appends a variable and a factor over it extends
     the kernel instead of compiling it. *)
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "item_feature" [| s "e"; s "f1" |];
  let r2 = Engine.apply_update engine (Grounding.data_update delta) in
  Alcotest.(check bool) "graph grew" true (r2.Engine.grounding.Grounding.new_vars > 0);
  Alcotest.(check int) "extended" 1 (Engine.kernel_compiles engine);
  (* A new factor over an existing variable is not an append. *)
  let delta = Dred.Delta.create () in
  Dred.Delta.insert delta "item_feature" [| s "a"; s "f3" |];
  let r3 = Engine.apply_update engine (Grounding.data_update delta) in
  Alcotest.(check int) "no new variable" 0 r3.Engine.grounding.Grounding.new_vars;
  Alcotest.(check bool) "new factor" true (r3.Engine.grounding.Grounding.new_factors > 0);
  Alcotest.(check int) "recompiled" 2 (Engine.kernel_compiles engine);
  ignore (Engine.apply_update engine (Grounding.rules_update []));
  Alcotest.(check int) "reused again" 2 (Engine.kernel_compiles engine)

(* --- qcheck -------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"compiled sampler tracks Gibbs per seed" ~count:50 small_int tracks_oracle;
    Test.make ~name:"extend equals compile over appends and flips" ~count:100 small_int
      extend_tracks_compile;
    Test.make ~name:"compiled conditionals match plain Gibbs" ~count:50 small_int (fun seed ->
        let g = mixed_graph seed in
        let a = Gibbs.init_assignment (Prng.create (500 + seed)) g in
        let st = Compiled.make_state ~init:a (Prng.create 1) (Compiled.compile g) in
        let ok = ref true in
        for v = 0 to Graph.num_vars g - 1 do
          if abs_float (Gibbs.conditional_true_prob g a v -. Compiled.conditional_true_prob st v)
             > 1e-9
          then ok := false
        done;
        !ok);
  ]

let () =
  Alcotest.run "dd_compiled"
    [
      ( "bit-exact",
        [
          Alcotest.test_case "trajectories vs oracle" `Quick test_tracks_oracle;
          Alcotest.test_case "rng consumption" `Quick test_same_rng_consumption;
          Alcotest.test_case "ratio table boundary" `Quick test_ratio_table_boundary;
        ] );
      ("allocation", [ Alcotest.test_case "sweeps allocate nothing" `Quick test_sweeps_allocation_free ]);
      ( "exact",
        [
          Alcotest.test_case "mixed graph" `Slow test_marginals_match_exact_mixed;
          Alcotest.test_case "voting graph" `Slow test_marginals_match_exact_voting;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "refresh_weights = recompile" `Quick test_refresh_weights_equiv_recompile;
          Alcotest.test_case "matches_structure" `Quick test_matches_structure;
          Alcotest.test_case "extend sees evidence flips" `Quick test_extend_evidence_flip;
          Alcotest.test_case "extend declines" `Quick test_extend_declines;
          Alcotest.test_case "duplicate literal" `Quick test_compile_rejects_duplicate_literal;
          Alcotest.test_case "dense gradients" `Quick test_add_feature_counts_matches_reference;
          Alcotest.test_case "lone terms exact" `Quick test_lone_terms_exact;
        ] );
      ( "fast_gibbs",
        [
          Alcotest.test_case "conditionals match" `Quick test_fast_gibbs_conditionals_match;
          Alcotest.test_case "identical chain" `Quick test_fast_gibbs_identical_chain;
          Alcotest.test_case "marginals vs exact" `Slow test_fast_gibbs_marginals_match_exact;
          Alcotest.test_case "voting converges fast" `Slow test_fast_gibbs_voting_fast;
          Alcotest.test_case "duplicate literal" `Quick test_fast_gibbs_rejects_duplicate_literal;
        ] );
      ("engine", [ Alcotest.test_case "kernel cache" `Quick test_engine_reuses_kernel ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
