(* Bechamel micro-benchmarks for the hot kernels underneath every
   experiment: factor-energy evaluation, a Gibbs sweep, and a compiled
   join plan probing the column store. *)

open Harness
module Graph = Dd_fgraph.Graph
module Gibbs = Dd_oracle.Gibbs
module Compiled = Dd_inference.Compiled
module Prng = Dd_util.Prng
module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Relation = Dd_relational.Relation
module Ast = Dd_datalog.Ast
module Plan = Dd_datalog.Plan
open Bechamel
open Toolkit

let gibbs_sweep_test =
  let rng = Prng.create 51 in
  let g = synthetic_graph rng 200 in
  let st = Compiled.make_state rng (Compiled.compile g) in
  Test.make ~name:"gibbs sweep (200 vars)" (Staged.stage (fun () -> Compiled.sweep rng st))

let total_energy_test =
  let rng = Prng.create 52 in
  let g = synthetic_graph rng 200 in
  let assignment = Gibbs.init_assignment rng g in
  Test.make ~name:"total energy (200 vars)"
    (Staged.stage (fun () -> ignore (Graph.total_energy g (fun v -> assignment.(v)))))

let join_test =
  let schema = Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ] in
  let rng = Prng.create 53 in
  let rel names =
    let r = Relation.create ~name:names schema in
    for _ = 1 to 2000 do
      Relation.insert r [| Value.Int (Prng.int_below rng 300); Value.Int (Prng.int_below rng 300) |]
    done;
    r
  in
  let left = rel "l" and right = rel "r" in
  let lookup = Plan.view_of_lookup (fun pred -> if pred = "l" then left else right) in
  let var x = Ast.Var x in
  let plan =
    Plan.compile
      (Ast.rule
         (Ast.atom "j" [ var "x"; var "z" ])
         [ Ast.Pos (Ast.atom "l" [ var "x"; var "y" ]); Ast.Pos (Ast.atom "r" [ var "y"; var "z" ]) ])
  in
  Test.make ~name:"plan join (2k x 2k)" (Staged.stage (fun () -> ignore (Plan.run plan ~lookup)))

let benchmarks () = [ gibbs_sweep_test; total_energy_test; join_test ]

let run_micro ~full:_ =
  section "Micro-benchmarks (Bechamel)";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  let tests = benchmarks () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ nanos ] -> note "  %-28s %12.1f ns/op" name nanos
          | _ -> note "  %-28s (no estimate)" name)
        analyzed)
    tests

let () = register "micro" "Micro-benchmarks of hot kernels" run_micro
