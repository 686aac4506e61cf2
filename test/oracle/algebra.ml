open Dd_relational

let select pred r = Relation.filter pred r

let select_eq r col v =
  let idx = Schema.column_index (Relation.schema r) col in
  select (fun tup -> Value.equal tup.(idx) v) r

let project r cols =
  let schema = Relation.schema r in
  let idxs = Array.of_list (List.map (Schema.column_index schema) cols) in
  let out = Relation.create ~name:(Relation.name r) (Schema.project schema cols) in
  Relation.iter (fun tup c -> Relation.insert ~count:c out (Tuple.project tup idxs)) r;
  out

let rename r mapping =
  let out =
    Relation.create ~name:(Relation.name r) (Schema.rename (Relation.schema r) mapping)
  in
  Relation.iter (fun tup c -> Relation.insert ~count:c out tup) r;
  out

let product a b =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let out = Relation.create ~name:(Relation.name a ^ "*" ^ Relation.name b) schema in
  Relation.iter
    (fun ta ca ->
      Relation.iter
        (fun tb cb -> Relation.insert ~count:(ca * cb) out (Tuple.concat ta tb))
        b)
    a;
  out

(* Columns of [b] that are not join keys, as (position, column) pairs. *)
let residual_columns schema_b shared =
  let cols = Schema.columns schema_b in
  let keep = ref [] in
  Array.iteri (fun i c -> if not (List.mem c.Schema.name shared) then keep := (i, c) :: !keep) cols;
  List.rev !keep

let natural_join a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let shared = List.filter (fun n -> Schema.mem sb n) (Schema.names sa) in
  if shared = [] then product a b
  else begin
    let key_a = Array.of_list (List.map (Schema.column_index sa) shared) in
    let key_b = Array.of_list (List.map (Schema.column_index sb) shared) in
    let residual = residual_columns sb shared in
    let out_schema =
      Schema.concat sa
        (Schema.make
           (List.map (fun (_, c) -> (c.Schema.name, c.Schema.ty)) residual))
    in
    let out =
      Relation.create ~name:(Relation.name a ^ "|x|" ^ Relation.name b) out_schema
    in
    (* Hash join through a throwaway index over [b]; counted buckets carry
       each match's multiplicity. *)
    let index = Row_bag.hash_index b key_b in
    Relation.iter
      (fun ta ca ->
        match Hashtbl.find_opt index (Tuple.project ta key_a) with
        | None -> ()
        | Some bucket ->
          Tuple.Hashtbl.iter
            (fun tb cb ->
              let extra = Array.of_list (List.map (fun (i, _) -> tb.(i)) residual) in
              Relation.insert ~count:(ca * cb) out (Tuple.concat ta extra))
            bucket)
      a;
    out
  end

let equi_join a b pairs =
  let sa = Relation.schema a and sb = Relation.schema b in
  let key_a = Array.of_list (List.map (fun (ca, _) -> Schema.column_index sa ca) pairs) in
  let key_b = Array.of_list (List.map (fun (_, cb) -> Schema.column_index sb cb) pairs) in
  let disambiguate name = if Schema.mem sa name then Relation.name b ^ "." ^ name else name in
  let sb_renamed =
    Schema.make
      (Array.to_list
         (Array.map
            (fun c -> (disambiguate c.Schema.name, c.Schema.ty))
            (Schema.columns sb)))
  in
  let out =
    Relation.create
      ~name:(Relation.name a ^ "|x|" ^ Relation.name b)
      (Schema.concat sa sb_renamed)
  in
  let index = Row_bag.hash_index b key_b in
  Relation.iter
    (fun ta ca ->
      match Hashtbl.find_opt index (Tuple.project ta key_a) with
      | None -> ()
      | Some bucket ->
        Tuple.Hashtbl.iter
          (fun tb cb -> Relation.insert ~count:(ca * cb) out (Tuple.concat ta tb))
          bucket)
    a;
  out

let union a b =
  assert (Schema.equal (Relation.schema a) (Relation.schema b));
  let out = Relation.copy a in
  Relation.iter (fun tup c -> Relation.insert ~count:c out tup) b;
  out

let difference a b =
  assert (Schema.equal (Relation.schema a) (Relation.schema b));
  Relation.filter (fun tup -> not (Relation.mem b tup)) a

let intersect a b =
  assert (Schema.equal (Relation.schema a) (Relation.schema b));
  Relation.filter (fun tup -> Relation.mem b tup) a

let distinct r =
  let out = Relation.create ~name:(Relation.name r) (Relation.schema r) in
  Relation.iter (fun tup _ -> Relation.insert out tup) r;
  out

type aggregate = Count | Sum of string | Min of string | Max of string | Avg of string

let aggregate r ~group_by agg ~output =
  let schema = Relation.schema r in
  let key_idx = Array.of_list (List.map (Schema.column_index schema) group_by) in
  let agg_idx = function
    | Count -> -1
    | Sum c | Min c | Max c | Avg c -> Schema.column_index schema c
  in
  let vi = agg_idx agg in
  let groups : (Tuple.t, Value.t list) Hashtbl.t = Hashtbl.create 64 in
  Relation.iter
    (fun tup _ ->
      let key = Tuple.project tup key_idx in
      let v = if vi < 0 then Value.Null else tup.(vi) in
      let existing = try Hashtbl.find groups key with Not_found -> [] in
      Hashtbl.replace groups key (v :: existing))
    r;
  let out_ty =
    match agg with
    | Count -> Value.TInt
    | Avg _ -> Value.TFloat
    | Sum c | Min c | Max c -> Schema.column_ty schema c
  in
  let out_schema =
    Schema.make
      (List.map (fun n -> (n, Schema.column_ty schema n)) group_by @ [ (output, out_ty) ])
  in
  let out = Relation.create ~name:(Relation.name r ^ "/agg") out_schema in
  let floats vs = List.map Value.as_float vs in
  Hashtbl.iter
    (fun key vs ->
      let result =
        match agg with
        | Count -> Value.Int (List.length vs)
        | Sum _ ->
          (match vs with
          | Value.Int _ :: _ ->
            Value.Int (List.fold_left (fun acc v -> acc + Value.as_int v) 0 vs)
          | _ -> Value.Float (List.fold_left ( +. ) 0.0 (floats vs)))
        | Min _ -> List.fold_left (fun acc v -> if Value.compare v acc < 0 then v else acc) (List.hd vs) vs
        | Max _ -> List.fold_left (fun acc v -> if Value.compare v acc > 0 then v else acc) (List.hd vs) vs
        | Avg _ ->
          let fs = floats vs in
          Value.Float (List.fold_left ( +. ) 0.0 fs /. float_of_int (List.length fs))
      in
      Relation.insert out (Tuple.concat key [| result |]))
    groups;
  out

let map_rows r schema f =
  let out = Relation.create ~name:(Relation.name r ^ "/map") schema in
  Relation.iter (fun tup c -> Relation.insert ~count:c out (f tup)) r;
  out

let flat_map_rows r schema f =
  let out = Relation.create ~name:(Relation.name r ^ "/flat_map") schema in
  Relation.iter (fun tup c -> List.iter (fun t' -> Relation.insert ~count:c out t') (f tup)) r;
  out
