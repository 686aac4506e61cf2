(* The full snapshot build: every fact, sort and index made from nothing
   on each call, with polymorphic compare on relation and tuple and
   stdlib hash tables for the indexes.  It is the reference for
   [Dd_serve.Snapshot], which keeps its layout across epochs and must
   answer every query exactly as this does. *)

module Tuple = Dd_relational.Tuple
module Value = Dd_relational.Value
module Graph = Dd_fgraph.Graph
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Program = Dd_core.Program
module Calibration = Dd_kbc.Calibration

type fact = Dd_serve.Snapshot.fact = {
  relation : string;
  tuple : Tuple.t;
  probability : float;
  calibrated : float;
  evidence : bool;
}

type t = {
  facts : fact array;  (* probability desc, then (relation, tuple) asc *)
  by_relation : (string, fact array) Hashtbl.t;  (* same order, per relation *)
  index : (string, fact Tuple.Hashtbl.t) Hashtbl.t;
  entity : (string, fact list) Hashtbl.t;  (* value -> facts, best first *)
  calibration : Calibration.report option;
  marginals : float array;
}

(* Total deterministic order: ties in probability break on name so two
   builds of the same engine state produce identical arrays. *)
let order a b =
  match compare b.probability a.probability with
  | 0 -> (
    match compare a.relation b.relation with
    | 0 -> Tuple.compare a.tuple b.tuple
    | c -> c)
  | c -> c

let build ?(bins = 10) ?truth engine =
  let grounding = Engine.grounding engine in
  let g = Engine.graph engine in
  let marginals = Array.copy (Engine.marginals engine) in
  let calibration =
    Option.map (fun truth -> Calibration.evaluate ~bins grounding marginals ~truth) truth
  in
  let buckets =
    match calibration with
    | Some report -> Array.of_list report.Calibration.buckets
    | None -> [||]
  in
  let calibrate p =
    let n = Array.length buckets in
    if n = 0 then p
    else
      let b = min (n - 1) (max 0 (int_of_float (p *. float_of_int n))) in
      let bucket = buckets.(b) in
      if bucket.Calibration.count = 0 then p else bucket.Calibration.empirical_precision
  in
  (* The pairs [Grounding.marginals_by_relation] reads, with the var id
     kept for the evidence flag instead of probed for again. *)
  let facts =
    List.concat_map
      (fun (relation, _) ->
        List.map
          (fun (tuple, v) ->
            let probability = marginals.(v) in
            {
              relation;
              tuple;
              probability;
              calibrated = calibrate probability;
              evidence = Graph.evidence_of g v <> Graph.Query;
            })
          (Grounding.vars_of_relation grounding relation))
      (Grounding.program grounding).Program.query_relations
  in
  let facts = Array.of_list facts in
  Array.sort order facts;
  let by_relation = Hashtbl.create 8 in
  let index = Hashtbl.create 8 in
  let entity = Hashtbl.create (Array.length facts * 2) in
  (* Group per relation preserving the global (sorted) order. *)
  let groups : (string, fact list ref) Hashtbl.t = Hashtbl.create 8 in
  for i = Array.length facts - 1 downto 0 do
    let f = facts.(i) in
    (match Hashtbl.find_opt groups f.relation with
    | Some cell -> cell := f :: !cell
    | None -> Hashtbl.add groups f.relation (ref [ f ]));
    (* Prepending while walking least-probable-first leaves every entity
       posting list most-probable-first. *)
    let seen = ref [] in
    Array.iter
      (function
        | Value.Str s when not (List.mem s !seen) ->
          seen := s :: !seen;
          Hashtbl.replace entity s
            (f :: Option.value ~default:[] (Hashtbl.find_opt entity s))
        | _ -> ())
      f.tuple
  done;
  Hashtbl.iter
    (fun relation cell ->
      let arr = Array.of_list !cell in
      Hashtbl.replace by_relation relation arr;
      let table = Tuple.Hashtbl.create (Array.length arr) in
      Array.iter (fun f -> Tuple.Hashtbl.replace table f.tuple f) arr;
      Hashtbl.replace index relation table)
    groups;
  {
    facts;
    by_relation;
    index;
    entity;
    calibration;
    marginals;
  }

let relations t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.by_relation [])

let marginals t = Array.copy t.marginals

let lookup t ~relation tuple =
  match Hashtbl.find_opt t.index relation with
  | None -> None
  | Some table -> Tuple.Hashtbl.find_opt table tuple

let relation_facts t relation =
  match Hashtbl.find_opt t.by_relation relation with
  | Some arr -> Array.copy arr
  | None -> [||]

let pool t = function
  | Some relation -> (
    match Hashtbl.find_opt t.by_relation relation with Some arr -> arr | None -> [||])
  | None -> t.facts

let prefix arr n =
  let n = min n (Array.length arr) in
  List.init n (fun i -> arr.(i))

let top_k t ?relation k = prefix (pool t relation) (max 0 k)

(* First index whose probability drops below [threshold] in a
   descending-sorted array — the count of facts at or above it. *)
let cut arr threshold =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).probability >= threshold then lo := mid + 1 else hi := mid
  done;
  !lo

let count_above t ?relation threshold = cut (pool t relation) threshold

let entity_facts t value = Option.value ~default:[] (Hashtbl.find_opt t.entity value)

let calibration t = t.calibration
