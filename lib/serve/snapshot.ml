(* Immutable published snapshot: everything the read side serves, built
   once on the writer's domain and then shared read-only.  All indexes are
   precomputed here so reader queries are hash/array lookups with no
   locking; the marginals CRC gives tests a way to prove a concurrent
   read was not torn (a correctly published snapshot can never fail it —
   the value is computed over the same immutable arrays readers see). *)

module Tuple = Dd_relational.Tuple
module Value = Dd_relational.Value
module Graph = Dd_fgraph.Graph
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Program = Dd_core.Program
module Calibration = Dd_kbc.Calibration
module Crc32 = Dd_util.Crc32

type fact = {
  relation : string;
  tuple : Tuple.t;
  probability : float;
  calibrated : float;
  evidence : bool;
}

type t = {
  epoch : int;
  txn_seq : int;
  published_s : float;
  facts : fact array;  (* probability desc, then (relation, tuple) asc *)
  by_relation : (string, fact array) Hashtbl.t;  (* same order, per relation *)
  index : (string, fact Tuple.Hashtbl.t) Hashtbl.t;
  entity : (string, fact list) Hashtbl.t;  (* value -> facts, best first *)
  calibration : Calibration.report option;
  buckets : Calibration.bucket array;  (* [||] without truth *)
  marginals : float array;
  marginals_crc : Crc32.t;
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

let marginals_digest marginals = Crc32.string (Marshal.to_string (marginals : float array) [])

let build ?(bins = 10) ?truth ~epoch ~txn_seq engine =
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
    epoch;
    txn_seq;
    published_s = Unix.gettimeofday ();
    facts;
    by_relation;
    index;
    entity;
    calibration;
    buckets;
    marginals;
    marginals_crc = marginals_digest marginals;
  }

let epoch t = t.epoch

let txn_seq t = t.txn_seq

let published_s t = t.published_s

let num_facts t = Array.length t.facts

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

let above t ?relation threshold =
  let arr = pool t relation in
  prefix arr (cut arr threshold)

let entity_facts t value = Option.value ~default:[] (Hashtbl.find_opt t.entity value)

let calibration t = t.calibration

let calibrated_bucket t p =
  let n = Array.length t.buckets in
  if n = 0 then None else Some t.buckets.(min (n - 1) (max 0 (int_of_float (p *. float_of_int n))))

(* --- integrity audit -------------------------------------------------------- *)

let verify t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  let* () = if t.epoch >= 1 then Ok () else fail "epoch %d < 1" t.epoch in
  let* () = if t.txn_seq >= 0 then Ok () else fail "txn_seq %d < 0" t.txn_seq in
  (* Global sort order and value ranges. *)
  let* () =
    let bad = ref None in
    Array.iteri
      (fun i f ->
        if !bad = None then begin
          if not (Float.is_finite f.probability && f.probability >= 0.0 && f.probability <= 1.0)
          then bad := Some (Printf.sprintf "fact %d probability %g out of range" i f.probability)
          else if
            not (Float.is_finite f.calibrated && f.calibrated >= 0.0 && f.calibrated <= 1.0)
          then bad := Some (Printf.sprintf "fact %d calibrated %g out of range" i f.calibrated)
          else if i > 0 && order t.facts.(i - 1) f > 0 then
            bad := Some (Printf.sprintf "facts unsorted at %d" i)
        end)
      t.facts;
    match !bad with Some m -> Error m | None -> Ok ()
  in
  (* Per-relation arrays partition the fact list and stay sorted. *)
  let* () =
    let total = Hashtbl.fold (fun _ arr acc -> acc + Array.length arr) t.by_relation 0 in
    if total <> Array.length t.facts then
      fail "per-relation arrays hold %d facts, snapshot has %d" total (Array.length t.facts)
    else Ok ()
  in
  let* () =
    Hashtbl.fold
      (fun relation arr acc ->
        let* () = acc in
        let bad = ref None in
        Array.iteri
          (fun i f ->
            if !bad = None then begin
              if f.relation <> relation then
                bad := Some (Printf.sprintf "%s holds a %s fact" relation f.relation)
              else if i > 0 && order arr.(i - 1) f > 0 then
                bad := Some (Printf.sprintf "%s unsorted at %d" relation i)
            end)
          arr;
        match !bad with Some m -> Error m | None -> Ok ())
      t.by_relation (Ok ())
  in
  (* Point lookups and the inverted index agree with the fact list. *)
  let* () =
    let bad = ref None in
    Array.iter
      (fun f ->
        if !bad = None then begin
          (match lookup t ~relation:f.relation f.tuple with
          | Some f' when f' == f -> ()
          | Some _ -> bad := Some ("lookup returned a different fact for " ^ Tuple.to_string f.tuple)
          | None -> bad := Some ("lookup missed " ^ Tuple.to_string f.tuple));
          Array.iter
            (function
              | Value.Str s ->
                if !bad = None && not (List.memq f (entity_facts t s)) then
                  bad := Some ("entity index missed " ^ s)
              | _ -> ())
            f.tuple
        end)
      t.facts;
    match !bad with Some m -> Error m | None -> Ok ()
  in
  (* Calibration arithmetic. *)
  let* () =
    match t.calibration with
    | None -> if t.buckets = [||] then Ok () else fail "buckets without a calibration report"
    | Some report ->
      let counted =
        List.fold_left (fun acc b -> acc + b.Calibration.count) 0 report.Calibration.buckets
      in
      if counted <> report.Calibration.total then
        fail "calibration buckets count %d, report total %d" counted report.Calibration.total
      else if Array.length t.buckets <> List.length report.Calibration.buckets then
        fail "bucket array does not match report"
      else Ok ()
  in
  (* Torn-read tripwire. *)
  if marginals_digest t.marginals = t.marginals_crc then Ok ()
  else fail "marginals CRC mismatch: torn snapshot"
