(* The sampler study: the one production Gibbs kernel (Dd_inference.Compiled)
   measured against its oracle and across its parallel modes.

   - Oracle vs compiled at one domain: sweeps/s of the naive graph-walking
     sampler (Dd_oracle.Gibbs, which re-evaluates every adjacent factor
     per conditional) and of the compiled CSR kernel, on pairwise, voting
     and grounded KBC graphs.  The gap explodes on aggregation factors
     (the voting program, one body per vote) and stays a constant factor
     on pairwise graphs.  Before timing, both samplers run from one seed
     and must produce identical worlds (the bit-exactness flag).  The
     compiled sweep's minor-heap allocation per variable update is
     recorded too; it is 0 when the hot loop keeps its floats unboxed.
   - The parallel modes at 1/2/4/8 domains, on a synthetic scale graph
     large enough that scheduling, not per-conditional arithmetic,
     dominates: sweeps/s of the color-synchronous sampler (one barrier per
     color class) and worlds/s of the chain-parallel sample store.  Domain
     counts beyond the host's hardware oversubscribe its cores; the JSON
     host block records which regime produced the numbers.
   - The equivalence tier: on a graph small enough for [Exact] but whose
     component is over the enumeration bound, the color-sync chain at 3
     domains must sample the same distribution as exact enumeration.
   - The exact tier: on graphs under the bound the estimators enumerate
     each component; they must match [Exact] to rounding.
   - The closed-form tier: the marginal estimators read isolated query
     variables (no adjacent factor mentions another query variable) in
     closed form.  On an enumerable graph mixing isolated and coupled
     variables, the compiled estimator and color-sync at 1 and 3 domains
     must match exact enumeration on the isolated ones to rounding; the
     share of isolated query variables on the grounded KBC graph is
     recorded beside it. *)

open Harness
module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Exact = Dd_oracle.Exact
module Voting = Dd_fgraph.Voting
module Gibbs = Dd_oracle.Gibbs
module Compiled = Dd_inference.Compiled
module Par_gibbs = Dd_parallel.Par_gibbs
module Partition = Dd_parallel.Partition
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats
module Table = Dd_util.Table

let domain_counts = [ 1; 2; 4; 8 ]

let rate_of ~sweeps secs = float_of_int sweeps /. secs

let time_sweeps ~sweeps ~repeats sweep =
  rate_of ~sweeps
    (time_median ~repeats (fun () ->
         for _ = 1 to sweeps do
           sweep ()
         done))

(* --- oracle vs compiled ------------------------------------------------- *)

(* Same seed, no explicit initial world: the compiled chain must draw the
   oracle's initial world and then every sweep's world. *)
let tracks_oracle g =
  let rng_o = Prng.create 7 and rng_c = Prng.create 7 in
  let oracle = Gibbs.init_assignment rng_o g in
  let st = Compiled.make_state rng_c (Compiled.compile g) in
  let same = ref (Compiled.snapshot st = oracle) in
  for _ = 1 to 5 do
    Gibbs.sweep rng_o g oracle;
    Compiled.sweep rng_c st;
    same := !same && Compiled.snapshot st = oracle
  done;
  !same

(* [Gibbs.run] builds the oracle's variable-to-factor table once per
   run, so a timed run pays it once, not once per sweep. *)
let oracle_rate ~sweeps g =
  let rng = Prng.create 71 in
  let a = Gibbs.init_assignment rng g in
  rate_of ~sweeps
    (time_median ~repeats:3 (fun () -> Gibbs.run ~init:a rng g ~sweeps ~on_sweep:(fun _ _ -> ())))

let compiled_rate ~sweeps g =
  let rng = Prng.create 71 in
  let st = Compiled.make_state rng (Compiled.compile g) in
  time_sweeps ~sweeps ~repeats:3 (fun () -> Compiled.sweep rng st)

(* Minor words per variable update of [Compiled.sweep]: the growth from
   [few] to [many] sweeps, so the constant cost of the measurement itself
   cancels. *)
let minor_words_per_update g =
  let rng = Prng.create 71 in
  let k = Compiled.compile g in
  let st = Compiled.make_state rng k in
  let words sweeps =
    let before = Gc.minor_words () in
    for _ = 1 to sweeps do
      Compiled.sweep rng st
    done;
    Gc.minor_words () -. before
  in
  let few = 10 and many = 110 in
  ignore (words few);
  let w_few = words few in
  let w_many = words many in
  (w_many -. w_few) /. float_of_int ((many - few) * max 1 (Compiled.num_query k))

let voting n =
  let g, _, _, _ = Voting.build { Voting.default with Voting.n_up = n / 2; n_down = n / 2 } in
  g

let oracle_vs_compiled ~full =
  note "oracle vs compiled kernel, one domain:";
  let cases =
    [
      ("pairwise200", synthetic_graph (Prng.create 72) 200);
      ("voting200", voting 200);
      ("voting1000", voting 1000);
      ("news", fig_kbc_graph ~full);
    ]
    @ if full then [ ("voting5000", voting 5000) ] else []
  in
  let sweeps = if full then 100 else 40 in
  let table =
    Table.create [ "graph"; "vars"; "oracle s/s"; "compiled s/s"; "speedup"; "words/update" ]
  in
  let max_words = ref 0.0 in
  let exact =
    List.for_all
      (fun (name, g) ->
        let same = tracks_oracle g in
        let words = minor_words_per_update g in
        max_words := Float.max !max_words words;
        let oracle = oracle_rate ~sweeps g and compiled = compiled_rate ~sweeps g in
        metric (Printf.sprintf "oracle_sweeps_per_sec_%s" name) oracle;
        metric (Printf.sprintf "compiled_sweeps_per_sec_%s" name) compiled;
        metric (Printf.sprintf "compiled_speedup_%s" name) (compiled /. oracle);
        Table.add_row table
          [
            (if same then name else name ^ " (DIVERGED)");
            string_of_int (Graph.num_vars g);
            Printf.sprintf "%.1f" oracle;
            Printf.sprintf "%.1f" compiled;
            Table.cell_x (compiled /. oracle);
            Printf.sprintf "%.2f" words;
          ];
        same)
      cases
  in
  Table.print table;
  note "compiled sweep minor words per variable update (max over graphs): %.2f" !max_words;
  metric "compiled_minor_words_per_update" !max_words;
  note "compiled bit-exact with the Gibbs oracle on every graph: %s" (if exact then "yes" else "NO");
  metric "bit_exact_oracle" (if exact then 1.0 else 0.0)

(* --- parallel modes ----------------------------------------------------- *)

(* Steady-state sweeps: the sampler (partition, pool) is built once and
   warmed up before timing. *)
let colorsync_rate ~sweeps ~repeats ~kernel d =
  let sampler = Par_gibbs.create ~kernel ~domains:d (Prng.create 53) in
  Fun.protect
    ~finally:(fun () -> Par_gibbs.shutdown sampler)
    (fun () ->
      for _ = 1 to 2 do
        Par_gibbs.sweep sampler
      done;
      time_sweeps ~sweeps ~repeats (fun () -> Par_gibbs.sweep sampler))

(* Worlds/s of the sample store drawn by [d] independent chains on one
   shared kernel (compiled outside the timer). *)
let chain_rate ~worlds ~kernel d =
  rate_of ~sweeps:worlds
    (time_median ~repeats:1 (fun () ->
         ignore (Par_gibbs.sample_worlds ~burn_in:5 ~kernel ~domains:d (Prng.create 59) ~n:worlds)))

let parallel_modes ~full =
  let nvars = if full then 1_200_000 else 60_000 in
  let g, build_s =
    Dd_util.Timer.time (fun () -> scale_graph ~extra_per_var:2 ~locality:512 (Prng.create 19) nvars)
  in
  let kernel = Compiled.compile g in
  let partition = Partition.color g in
  note "";
  note "parallel modes on the scale graph: %d vars, %d factors, %d colors (built %.1fs); host: %d cpus"
    (Graph.num_vars g) (Graph.num_factors g) partition.Partition.num_colors build_s
    (host_cpu_count ());
  metric "vars" (float_of_int (Graph.num_vars g));
  metric "factors" (float_of_int (Graph.num_factors g));
  metric "colors" (float_of_int partition.Partition.num_colors);
  let sweeps = if full then 8 else 24 in
  let repeats = if full then 3 else 5 in
  let worlds = 2 * sweeps in
  let table = Table.create [ "domains"; "color-sync s/s"; "chain worlds/s" ] in
  List.iter
    (fun d ->
      let sync = colorsync_rate ~sweeps ~repeats ~kernel d in
      let chains = chain_rate ~worlds ~kernel d in
      metric (Printf.sprintf "colorsync_sweeps_per_sec_%dd" d) sync;
      metric (Printf.sprintf "chain_worlds_per_sec_%dd" d) chains;
      Table.add_row table
        [ string_of_int d; Printf.sprintf "%.1f" sync; Printf.sprintf "%.1f" chains ])
    domain_counts;
  Table.print table;
  note "(sweeps timed: %d; chain worlds: %d, each chain burned in separately.)" sweeps worlds

(* --- statistical equivalence on a graph the chain must run --------------- *)

let equiv_burn_in = 300
let equiv_sweeps = 30_000

(* The smallest scale graph, from 12 variables up, whose one component is
   over the enumeration bound at the tier's chain length, so the sampler
   runs the chain rather than enumerating. *)
let over_the_bound_scale_graph () =
  let graph n = scale_graph ~extra_per_var:2 ~locality:4 (Prng.create 11) n in
  let rec first n =
    let g = graph n in
    if Compiled.enumerable (Compiled.compile g) ~steps:(equiv_burn_in + equiv_sweeps) then first (n + 1)
    else g
  in
  first 12

let equivalence_tier () =
  note "";
  let g = over_the_bound_scale_graph () in
  note "statistical equivalence (%d-var scale graph, over the enumeration bound; exact enumeration):"
    (Graph.num_vars g);
  let exact = Exact.marginals g in
  let sync =
    Par_gibbs.marginals ~burn_in:equiv_burn_in ~kernel:(Compiled.compile g) ~domains:3
      (Prng.create 12) ~sweeps:equiv_sweeps
  in
  let kl =
    let acc = ref 0.0 in
    Array.iteri (fun v p -> acc := !acc +. Stats.kl_bernoulli p sync.(v)) exact;
    !acc /. float_of_int (Array.length exact)
  in
  let d_sync = Stats.max_abs_diff sync exact in
  metric "equiv_vars" (float_of_int (Graph.num_vars g));
  metric "equiv_max_diff_colorsync_vs_exact" d_sync;
  metric "equiv_mean_kl_exact_vs_colorsync" kl;
  let ok = d_sync < 0.05 in
  metric "equiv_ok" (if ok then 1.0 else 0.0);
  note "  color-sync (3 domains) vs exact: max|diff| %.4f, mean KL %.6f -> %s" d_sync kl
    (if ok then "ok" else "FAIL")

(* --- exact marginals for small coupled components ----------------------- *)

(* Graphs under the bound are answered by enumerating each component:
   the compiled estimator and the sampler at 1 and 3 domains must match
   [Exact] to rounding on every variable. *)
let exact_tier graphs =
  note "";
  note "exact marginals for small coupled components (enumerated, vs exact enumeration):";
  let diff =
    List.fold_left
      (fun acc (name, g, steps) ->
        let kernel = Compiled.compile g in
        let exact = Exact.marginals g in
        let sweeps = steps - 10 in
        let runs =
          [
            Compiled.marginals ~burn_in:10 (Prng.create 19) kernel ~sweeps;
            Par_gibbs.marginals ~burn_in:10 ~kernel ~domains:1 (Prng.create 19) ~sweeps;
            Par_gibbs.marginals ~burn_in:10 ~kernel ~domains:3 (Prng.create 19) ~sweeps;
          ]
        in
        let d = List.fold_left (fun acc m -> Float.max acc (Stats.max_abs_diff m exact)) 0.0 runs in
        note "  %s: %d coupled in %d components, enumerable at %d steps: %b; max|diff| %.3g" name
          (Compiled.num_coupled kernel) (Compiled.num_components kernel) steps
          (Compiled.enumerable kernel ~steps) d;
        Float.max acc d)
      0.0 graphs
  in
  metric "exact_max_diff_vs_exact" diff

(* --- closed-form marginals for isolated query variables ------------------ *)

(* 12 variables, 3 of them evidence: four isolated query variables (a
   Linear bias, a Logical two-body factor headed by the variable over
   evidence, a Ratio factor with a negated evidence literal, and no factor
   at all) and five coupled ones (a pairwise chain, and a Ratio
   implication whose body mixes a query variable with evidence). *)
let mixed_isolated_graph () =
  let g = Graph.create () in
  let v = Graph.add_vars g 12 in
  List.iteri
    (fun i e -> Graph.set_evidence g v.(e) (Graph.Evidence (i mod 2 = 0)))
    [ 9; 10; 11 ];
  let lit ?(negated = false) x = { Graph.var = v.(x); negated } in
  let factor ?head semantics weight bodies =
    let w = Graph.add_weight g weight in
    ignore
      (Graph.add_factor g
         { Graph.head = Option.map (fun h -> v.(h)) head; bodies; weight_id = w; semantics })
  in
  factor Semantics.Linear 0.7 [| [| lit 0 |] |];
  factor ~head:1 Semantics.Logical 1.1 [| [| lit 9; lit ~negated:true 10 |]; [| lit 11 |] |];
  factor ~head:9 Semantics.Ratio (-0.6) [| [| lit 2; lit ~negated:true 11 |]; [| lit 2 |] |];
  factor Semantics.Linear (-0.4) [| [| lit ~negated:true 2 |] |];
  (* variable 3 has no factor *)
  for x = 4 to 6 do
    factor Semantics.Linear 0.5 [| [| lit x; lit (x + 1) |] |];
    factor Semantics.Linear (-0.3) [| [| lit x |] |]
  done;
  factor ~head:8 Semantics.Ratio 0.9 [| [| lit 7; lit 10 |]; [| lit ~negated:true 9 |] |];
  g

let closed_form_tier ~full =
  note "";
  note "closed-form marginals for isolated query variables:";
  let g = mixed_isolated_graph () in
  let exact = Exact.marginals g in
  let kernel = Compiled.compile g in
  let coupled = Compiled.coupled_vars kernel in
  let isolated = List.filter (fun v -> not (Array.mem v coupled)) (Graph.query_vars g) in
  let sweeps = 50 in
  let estimate domains = Par_gibbs.marginals ~burn_in:5 ~kernel ~domains (Prng.create 17) ~sweeps in
  let runs =
    [
      ("compiled", Compiled.marginals ~burn_in:5 (Prng.create 17) kernel ~sweeps);
      ("color-sync 1d", estimate 1);
      ("color-sync 3d", estimate 3);
    ]
  in
  let diff =
    List.fold_left
      (fun acc (_, m) ->
        List.fold_left (fun acc v -> Float.max acc (abs_float (m.(v) -. exact.(v)))) acc isolated)
      0.0 runs
  in
  metric "isolated_max_diff_vs_exact" diff;
  note "  %d isolated / %d coupled query variables; max |marginal - exact| over isolated,"
    (List.length isolated) (Array.length coupled);
  note "  across %s: %.3g" (String.concat ", " (List.map fst runs)) diff;
  let kbc = Compiled.compile (fig_kbc_graph ~full) in
  let frac =
    float_of_int (Compiled.num_query kbc - Compiled.num_coupled kbc)
    /. float_of_int (max 1 (Compiled.num_query kbc))
  in
  metric "kbc_isolated_query_frac" frac;
  note "  grounded KBC graph (News): %d query variables, %.1f%% isolated" (Compiled.num_query kbc)
    (100.0 *. frac)

let run ~full =
  section "Sampler: the compiled Gibbs kernel vs its oracle and across parallel modes";
  oracle_vs_compiled ~full;
  parallel_modes ~full;
  equivalence_tier ();
  exact_tier
    [
      ("12-var scale graph", scale_graph ~extra_per_var:2 ~locality:4 (Prng.create 11) 12, equiv_burn_in + equiv_sweeps);
      ("mixed isolated graph", mixed_isolated_graph (), 120);
    ];
  closed_form_tier ~full

let () = register "sampler" "Compiled Gibbs kernel: oracle, color-sync, chains" run
