(* Column-store scale sweep: a KBC-shaped grounding workload at
   10^5..10^7 facts, plus a transitive-closure workload (recursive; every
   round's delta joins probe the growing [tc] relation).

   Per size we measure the three phases separately:
     - load: insert of the mention table through [Relation.insert]
     - eval: full grounding (co-occurrence candidate join + projection)
     - incremental: one small DRed delta against the materialized db
   plus resident memory (Gc live words after compaction) and full-grounding
   throughput in facts/s.  Every run is also an output check: after the
   DRed delta, the IDB digest must equal that of a from-scratch
   [Engine.run] over the updated base tables ([equiv_all]).  [--full]
   extends the sweep to 10^7 facts, whose evaluation needs more than
   8 GiB of memory. *)

module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Relation = Dd_relational.Relation
module Database = Dd_relational.Database
module Ast = Dd_datalog.Ast
module Engine = Dd_datalog.Engine
module Dred = Dd_datalog.Dred
module Plan = Dd_datalog.Plan
module Prng = Dd_util.Prng
module Timer = Dd_util.Timer

let i = Value.int
let v name = Ast.Var name
let atom = Ast.atom

(* Candidate-extraction shape: a co-occurrence join keyed on the document
   column (constant fanout per probe: mentions-per-doc is fixed), plus a
   projection.  Output size is O(facts), so the sweep stays linear. *)
let program =
  [
    Ast.rule
      ~guards:[ Ast.Lt (v "m1", v "m2") ]
      (atom "cooccur" [ v "e1"; v "e2"; v "d" ])
      [
        Ast.Pos (atom "mention" [ v "d"; v "m1"; v "e1" ]);
        Ast.Pos (atom "mention" [ v "d"; v "m2"; v "e2" ]);
      ];
    Ast.rule (atom "seen" [ v "e" ]) [ Ast.Pos (atom "mention" [ v "d"; v "m"; v "e" ]) ];
  ]

let mention_schema =
  Schema.make [ ("doc", Value.TInt); ("mention", Value.TInt); ("entity", Value.TInt) ]

let mentions_per_doc = 4

(* Deterministic synthetic corpus: [n] mention facts over [n/4] docs and
   [n/50] entities, generated on the fly so the generator itself never
   dominates resident memory. *)
let iter_mentions n f =
  let rng = Prng.create 11 in
  let entities = max 50 (n / 50) in
  let mid = ref 0 in
  let docs = (n + mentions_per_doc - 1) / mentions_per_doc in
  for d = 0 to docs - 1 do
    for _ = 1 to mentions_per_doc do
      if !mid < n then begin
        incr mid;
        f d !mid (Prng.int_below rng entities)
      end
    done
  done

let live_mib () =
  Gc.compact ();
  let st = Gc.stat () in
  float_of_int st.Gc.live_words *. float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0)

let make_delta n delta =
  let d = n / (2 * mentions_per_doc) in
  Dred.Delta.insert delta "mention" [| i d; i (n + 1); i 1 |];
  Dred.Delta.insert delta "mention" [| i d; i (n + 2); i 2 |];
  Dred.Delta.delete delta "mention" [| i d; i ((d * mentions_per_doc) + 1); i 0 |]

type phase_times = {
  load_s : float;
  eval_s : float;
  incr_s : float;
  resident_mib : float;
}

(* Order-independent content digest of a program's IDB: the incremental
   result and the from-scratch one are compared through it, so the check
   never holds two copies of a 10^7-fact database.  (Count-exact plan
   equivalence is property-tested in test/test_plan.ml; the digest here is
   a cheap guard.) *)
let digest program db =
  List.map
    (fun pred ->
      let rel = Engine.lookup_in db pred in
      let sum =
        Relation.fold
          (fun tup c acc -> (acc + Hashtbl.hash (tup, c)) land max_int)
          rel 0
      in
      (pred, Relation.cardinality rel, sum))
    (Ast.idb_preds program)

let run_exn ~plans db program =
  match Engine.run ~plans db program with Ok () -> () | Error e -> invalid_arg e

(* Full evaluation, then one DRed delta.  Resident memory is taken right
   after evaluation, relative to [before].  [equiv]: the incrementally
   maintained IDB equals a from-scratch evaluation over the updated base. *)
let eval_and_update ~plans ~before db program make_delta =
  let t = Timer.start () in
  run_exn ~plans db program;
  let eval_s = Timer.elapsed_s t in
  let resident_mib = live_mib () -. before in
  let delta = Dred.Delta.create () in
  make_delta delta;
  let t = Timer.start () in
  (match Dred.apply ~plans db program delta with Ok _ -> () | Error e -> invalid_arg e);
  let incr_s = Timer.elapsed_s t in
  let incremental = digest program db in
  (* From scratch over the updated base.  The incremental IDB is released
     and the heap compacted first, so at 10^7 facts the two never share
     the heap. *)
  List.iter (fun pred -> Relation.clear (Engine.lookup_in db pred)) (Ast.idb_preds program);
  Gc.compact ();
  run_exn ~plans db program;
  (incremental = digest program db, eval_s, incr_s, resident_mib)

let run_size ~plans ~n =
  let before = live_mib () in
  let db = Database.create () in
  let rel = Database.create_table db "mention" mention_schema in
  let t = Timer.start () in
  iter_mentions n (fun d m e -> Relation.insert rel [| i d; i m; i e |]);
  let load_s = Timer.elapsed_s t in
  let equiv, eval_s, incr_s, resident_mib =
    eval_and_update ~plans ~before db program (make_delta n)
  in
  (equiv, { load_s; eval_s; incr_s; resident_mib })

(* Transitive closure over a chain plus random extra edges: the recursive
   stratum iterates ~chain-length rounds of delta joins against the growing
   [tc] relation. *)
let tc_program =
  [
    Ast.rule (atom "tc" [ v "x"; v "y" ]) [ Ast.Pos (atom "edge" [ v "x"; v "y" ]) ];
    Ast.rule
      (atom "tc" [ v "x"; v "z" ])
      [ Ast.Pos (atom "edge" [ v "x"; v "y" ]); Ast.Pos (atom "tc" [ v "y"; v "z" ]) ];
  ]

let tc_db ~nodes ~extra =
  let rng = Prng.create 7 in
  let db = Database.create () in
  let r =
    Database.create_table db "edge" (Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ])
  in
  for k = 0 to nodes - 2 do
    Relation.insert r [| i k; i (k + 1) |]
  done;
  for _ = 1 to extra do
    let a = Prng.int_below rng nodes and b = Prng.int_below rng nodes in
    if not (Relation.mem r [| i a; i b |]) then Relation.insert r [| i a; i b |]
  done;
  db

let run ~full =
  Harness.section "bench columnar: column-store scale sweep (load/eval/incremental)";
  let sizes = if full then [ 100_000; 1_000_000; 10_000_000 ] else [ 100_000; 1_000_000 ] in
  let all_equiv = ref true in
  List.iter
    (fun n ->
      let plans = Plan.Cache.create () in
      let equiv, r = run_size ~plans ~n in
      all_equiv := !all_equiv && equiv;
      let fps = float_of_int n /. r.eval_s in
      let tag = Printf.sprintf "%.0e" (float_of_int n) in
      Harness.note
        "n=%-8d load %7.2fs  eval %7.2fs  incr %7.4fs  %8.1f MiB  %9.0f facts/s  incr=rerun %b"
        n r.load_s r.eval_s r.incr_s r.resident_mib fps equiv;
      Harness.metric (Printf.sprintf "columnar_load_s_%s" tag) r.load_s;
      Harness.metric (Printf.sprintf "columnar_eval_s_%s" tag) r.eval_s;
      Harness.metric (Printf.sprintf "columnar_incremental_s_%s" tag) r.incr_s;
      Harness.metric (Printf.sprintf "columnar_resident_mib_%s" tag) r.resident_mib;
      Harness.metric (Printf.sprintf "columnar_facts_per_s_%s" tag) fps;
      Harness.metric (Printf.sprintf "equiv_%s" tag) (if equiv then 1.0 else 0.0))
    sizes;
  let nodes, extra = if full then (420, 40) else (320, 25) in
  let plans = Plan.Cache.create () in
  let equiv, eval_s, incr_s, _ =
    eval_and_update ~plans ~before:(live_mib ()) (tc_db ~nodes ~extra) tc_program (fun delta ->
        (* one new edge back into the chain's start, one deleted chain edge
           (forces rederivation through the cycle it closes) *)
        Dred.Delta.insert delta "edge" [| i (nodes / 2); i 0 |];
        Dred.Delta.delete delta "edge" [| i (nodes / 4); i ((nodes / 4) + 1) |])
  in
  all_equiv := !all_equiv && equiv;
  Harness.note "tc  %d nodes: eval %7.4fs  incr %7.4fs  incr=rerun %b" nodes eval_s incr_s equiv;
  Harness.metric "tc_eval_s" eval_s;
  Harness.metric "tc_incremental_s" incr_s;
  Harness.metric "equiv_tc" (if equiv then 1.0 else 0.0);
  Harness.metric "max_facts" (float_of_int (List.fold_left max 0 sizes));
  Harness.metric "equiv_all" (if !all_equiv then 1.0 else 0.0)

let () =
  Harness.register "columnar" "Column-store scale sweep (load/eval/incremental, incr = rerun)" run
