(* Tests for Dd_relational: values, schemas, tuples, relations and their
   column stores, CSV ingestion and the database catalog. *)

module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Database = Dd_relational.Database
module Csv = Dd_relational.Csv
module Column_store = Dd_relational.Column_store

let i = Value.int
let s = Value.str
let b x = Value.Bool x
let f x = Value.Float x

(* --- values ---------------------------------------------------------------- *)

let test_value_compare_order () =
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (i 0) < 0);
  Alcotest.(check bool) "ints ordered" true (Value.compare (i 1) (i 2) < 0);
  Alcotest.(check bool) "strings ordered" true (Value.compare (s "a") (s "b") < 0);
  Alcotest.(check int) "equal" 0 (Value.compare (s "x") (s "x"))

let test_value_equal_hash_consistent () =
  List.iter
    (fun (a, b) ->
      if Value.equal a b then
        Alcotest.(check int) "equal values share hash" (Value.hash a) (Value.hash b))
    [ (i 5, i 5); (s "x", s "x"); (Value.Null, Value.Null); (f 1.5, f 1.5) ]

let test_value_conforms () =
  Alcotest.(check bool) "int conforms" true (Value.conforms (i 3) Value.TInt);
  Alcotest.(check bool) "mismatch" false (Value.conforms (i 3) Value.TStr);
  Alcotest.(check bool) "null conforms all" true (Value.conforms Value.Null Value.TBool)

let test_value_extractors () =
  Alcotest.(check string) "as_str" "hi" (Value.as_str (s "hi"));
  Alcotest.check_raises "as_str on int" (Invalid_argument "Value.as_str: 7") (fun () ->
      ignore (Value.as_str (i 7)))

let test_value_to_string () =
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "int" "42" (Value.to_string (i 42));
  Alcotest.(check string) "float" "1.5" (Value.to_string (f 1.5))

(* --- schemas ---------------------------------------------------------------- *)

let ab_schema = Schema.make [ ("a", Value.TInt); ("b", Value.TStr) ]

let test_schema_basics () =
  Alcotest.(check int) "arity" 2 (Schema.arity ab_schema);
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Schema.names ab_schema)

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Schema.make: duplicate column a")
    (fun () -> ignore (Schema.make [ ("a", Value.TInt); ("a", Value.TStr) ]))

let test_schema_conforms () =
  Alcotest.(check bool) "good" true (Schema.conforms ab_schema [| i 1; s "x" |]);
  Alcotest.(check bool) "wrong arity" false (Schema.conforms ab_schema [| i 1 |]);
  Alcotest.(check bool) "wrong type" false (Schema.conforms ab_schema [| s "x"; s "y" |]);
  Alcotest.(check bool) "null ok" true (Schema.conforms ab_schema [| Value.Null; s "y" |])

let test_tuple_equality_hash () =
  let t1 = [| i 1; s "x" |] and t2 = [| i 1; s "x" |] in
  Alcotest.(check bool) "equal" true (Tuple.equal t1 t2);
  Alcotest.(check int) "hash" (Tuple.hash t1) (Tuple.hash t2);
  Alcotest.(check bool) "not equal" false (Tuple.equal t1 [| i 2; s "x" |])

let test_tuple_compare_lexicographic () =
  Alcotest.(check bool) "lex" true (Tuple.compare [| i 1; i 9 |] [| i 2; i 0 |] < 0);
  Alcotest.(check bool) "prefix smaller" true (Tuple.compare [| i 1 |] [| i 1; i 0 |] < 0)

let test_tuple_project_concat () =
  let t = [| i 1; s "x"; b true |] in
  Alcotest.(check bool) "project" true
    (Tuple.equal [| b true; i 1 |] (Tuple.project t [| 2; 0 |]));
  Alcotest.(check bool) "concat" true
    (Tuple.equal [| i 1; i 2 |] (Tuple.concat [| i 1 |] [| i 2 |]))

(* --- relations -------------------------------------------------------------- *)

let make_rel rows =
  let r = Relation.create ~name:"t" ab_schema in
  List.iter (fun row -> Relation.insert r row) rows;
  r

let test_relation_insert_count () =
  let r = make_rel [ [| i 1; s "x" |] ] in
  Alcotest.(check int) "card" 1 (Relation.cardinality r);
  Relation.insert ~count:3 r [| i 1; s "x" |];
  Alcotest.(check int) "card stable" 1 (Relation.cardinality r);
  Alcotest.(check int) "count" 4 (Relation.count r [| i 1; s "x" |]);
  Alcotest.(check int) "total" 4 (Column_store.total_count (Relation.store r))

let test_relation_remove_semantics () =
  let r = make_rel [] in
  Relation.insert ~count:3 r [| i 1; s "x" |];
  Alcotest.(check int) "removed 2" 2 (Relation.remove ~count:2 r [| i 1; s "x" |]);
  Alcotest.(check bool) "still present" true (Relation.mem r [| i 1; s "x" |]);
  Alcotest.(check int) "removed last" 1 (Relation.remove ~count:5 r [| i 1; s "x" |]);
  Alcotest.(check bool) "gone" false (Relation.mem r [| i 1; s "x" |]);
  Alcotest.(check int) "remove absent" 0 (Relation.remove r [| i 9; s "z" |])

let test_relation_schema_enforced () =
  let r = make_rel [] in
  Alcotest.(check bool) "bad tuple raises" true
    (match Relation.insert r [| s "wrong"; s "type" |] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_relation_delete_clear () =
  let r = make_rel [ [| i 1; s "x" |]; [| i 2; s "y" |] ] in
  Relation.delete_all r [| i 1; s "x" |];
  Alcotest.(check int) "one left" 1 (Relation.cardinality r);
  Relation.clear r;
  Alcotest.(check int) "empty" 0 (Relation.cardinality r)

let test_relation_copy_independent () =
  let r = make_rel [ [| i 1; s "x" |] ] in
  let c = Relation.copy r in
  Relation.insert c [| i 2; s "y" |];
  Alcotest.(check int) "copy grew" 2 (Relation.cardinality c);
  Alcotest.(check int) "original unchanged" 1 (Relation.cardinality r)

let test_relation_equal () =
  let r1 = make_rel [ [| i 1; s "x" |] ] and r2 = make_rel [ [| i 1; s "x" |] ] in
  Alcotest.(check bool) "contents equal" true (Relation.equal_contents r1 r2);
  Relation.insert r2 [| i 1; s "x" |];
  Alcotest.(check bool) "counts differ" false (Relation.equal_contents r1 r2)

(* The oracle's hash-index builder: every tuple bucketed under its key
   projection with its multiplicity. *)
let test_relation_build_index () =
  let r = make_rel [ [| i 1; s "x" |]; [| i 2; s "x" |]; [| i 3; s "y" |] ] in
  let index = Dd_oracle.Row_bag.hash_index r [| 1 |] in
  let size key = match Hashtbl.find_opt index key with None -> 0 | Some b -> Tuple.Hashtbl.length b in
  Alcotest.(check int) "x bucket" 2 (size [| s "x" |]);
  Alcotest.(check int) "y bucket" 1 (size [| s "y" |])

(* Keyed probe through the relation's column store — the path join plans
   take: every live tuple whose [key_cols] projection equals [key], with its
   multiplicity, sorted. *)
let probe r key_cols key =
  let cs = Relation.store r in
  let ids = Array.mapi (fun k col -> Column_store.find_id cs col key.(k)) key_cols in
  if Array.exists (fun id -> id < 0) ids then []
  else begin
    let out = ref [] in
    Column_store.iter_probe (Column_store.prepare cs key_cols) ids (fun row n ->
        out := (Column_store.decode cs row, n) :: !out);
    List.sort compare !out
  end

let counted = Alcotest.(list (pair (testable (fun fmt t -> Format.pp_print_string fmt (Tuple.to_string t)) Tuple.equal) int))

let bucket_size r key = List.length (probe r [| 1 |] key)

let test_relation_get_index_maintained () =
  (* The store's key index must track subsequent inserts and removes. *)
  let r = make_rel [ [| i 1; s "x" |] ] in
  Alcotest.(check int) "initial" 1 (bucket_size r [| s "x" |]);
  Relation.insert r [| i 2; s "x" |];
  Alcotest.(check int) "after insert" 2 (bucket_size r [| s "x" |]);
  ignore (Relation.remove r [| i 1; s "x" |]);
  Alcotest.(check int) "after remove" 1 (bucket_size r [| s "x" |]);
  (* Count-only changes must not duplicate index entries, and the probe
     must report the live multiplicity — in the tail and after the tail is
     merged into the sorted run. *)
  Relation.insert ~count:5 r [| i 2; s "x" |];
  Alcotest.(check counted) "count change"
    [ ([| i 2; s "x" |], 6) ]
    (probe r [| 1 |] [| s "x" |]);
  Column_store.compact (Relation.store r);
  ignore (Relation.remove ~count:2 r [| i 2; s "x" |]);
  Alcotest.(check counted) "run row overridden"
    [ ([| i 2; s "x" |], 4) ]
    (probe r [| 1 |] [| s "x" |])

let test_relation_index_skewed_key_removal () =
  (* Removing [n] tuples that all share one key must stay cheap per removal
     (an index that rebuilt the key's whole bucket on every remove is
     O(n^2) and takes minutes at this size), so mere completion is the
     assertion — plus bucket integrity along the way. *)
  let n = 20_000 in
  let r = Relation.create ~name:"skew" ab_schema in
  ignore (probe r [| 1 |] [| s "hot" |]);
  for k = 1 to n do
    Relation.insert r [| i k; s "hot" |]
  done;
  Alcotest.(check int) "bucket full" n (bucket_size r [| s "hot" |]);
  for k = 1 to n do
    ignore (Relation.remove r [| i k; s "hot" |])
  done;
  Alcotest.(check int) "bucket drained" 0 (bucket_size r [| s "hot" |]);
  Alcotest.(check int) "empty" 0 (Relation.cardinality r)

let test_relation_copy_rebuilds_index () =
  (* [Relation.copy] gives the copy its own store: probes on it see the
     copied rows, track the copy's own mutations, and stay independent of
     the original's. *)
  let r = make_rel [ [| i 1; s "x" |]; [| i 2; s "x" |]; [| i 3; s "y" |] ] in
  ignore (probe r [| 1 |] [| s "x" |]);
  let c = Relation.copy r in
  Alcotest.(check int) "copied x bucket" 2 (bucket_size c [| s "x" |]);
  Alcotest.(check int) "copied y bucket" 1 (bucket_size c [| s "y" |]);
  Relation.insert c [| i 4; s "y" |];
  ignore (Relation.remove c [| i 1; s "x" |]);
  Alcotest.(check int) "copy y grew" 2 (bucket_size c [| s "y" |]);
  Alcotest.(check int) "copy x shrank" 1 (bucket_size c [| s "x" |]);
  Alcotest.(check int) "original y" 1 (bucket_size r [| s "y" |]);
  Alcotest.(check int) "original x" 2 (bucket_size r [| s "x" |]);
  (* And vice versa: mutating the original does not leak into the copy. *)
  Relation.insert r [| i 5; s "x" |];
  Alcotest.(check int) "copy x unaffected" 1 (bucket_size c [| s "x" |])

let test_relation_get_index_cleared () =
  let r = make_rel [ [| i 1; s "x" |] ] in
  ignore (probe r [| 1 |] [| s "x" |]);
  Relation.clear r;
  Relation.insert r [| i 9; s "z" |];
  Alcotest.(check int) "has z" 1 (bucket_size r [| s "z" |]);
  Alcotest.(check int) "no x" 0 (bucket_size r [| s "x" |])

let test_compact_emptied_run_drops_filter () =
  (* A compaction that empties the run must also drop its Bloom filter;
     the audit rejects a filter over an empty run. *)
  let cs = Column_store.create (Schema.make [ ("a", Value.TInt) ]) in
  for k = 1 to 10 do
    ignore (Column_store.insert_prev cs [| i k |])
  done;
  Column_store.compact cs;
  for k = 1 to 10 do
    ignore (Column_store.remove cs [| i k |])
  done;
  Column_store.compact cs;
  Alcotest.(check int) "run empty" 0 (Column_store.run_rows cs);
  Alcotest.(check (result unit string)) "audit" (Ok ()) (Column_store.audit cs)

(* --- csv ------------------------------------------------------------------- *)

let test_csv_parse_values () =
  Alcotest.(check bool) "int" true (Value.equal (i 42) (Csv.parse_value Value.TInt "42"));
  Alcotest.(check bool) "bool" true (Value.equal (b true) (Csv.parse_value Value.TBool "true"));
  Alcotest.(check bool) "empty is null" true
    (Value.equal Value.Null (Csv.parse_value Value.TStr ""));
  Alcotest.(check bool) "bad int raises" true
    (match Csv.parse_value Value.TInt "xy" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_csv_load () =
  let r = Relation.create ab_schema in
  let n = Csv.load_string r "a,b\n1,x\n2,y\n\n3,z" in
  Alcotest.(check int) "rows loaded (header skipped)" 3 n;
  Alcotest.(check bool) "row present" true (Relation.mem r [| i 2; s "y" |])

let test_csv_wrong_arity () =
  let r = Relation.create ab_schema in
  Alcotest.(check bool) "arity error" true
    (match Csv.load_string r "1,x,extra" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- database --------------------------------------------------------------- *)

let test_database_catalog () =
  let db = Database.create () in
  let r = Database.create_table db "t" ab_schema in
  Relation.insert r [| i 1; s "x" |];
  Alcotest.(check bool) "mem" true (Database.mem db "t");
  Alcotest.(check int) "find" 1 (Relation.cardinality (Database.find db "t"));
  Alcotest.(check (list string)) "names" [ "t" ] (Database.table_names db);
  Alcotest.(check bool) "duplicate rejected" true
    (match Database.create_table db "t" ab_schema with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Database.drop_table db "t";
  Alcotest.(check bool) "dropped" false (Database.mem db "t")

let test_database_deep_copy () =
  let db = Database.create () in
  let r = Database.create_table db "t" ab_schema in
  Relation.insert r [| i 1; s "x" |];
  let dup = Database.copy db in
  Relation.insert (Database.find dup "t") [| i 2; s "y" |];
  Alcotest.(check int) "copy grew" 2 (Relation.cardinality (Database.find dup "t"));
  Alcotest.(check int) "original unchanged" 1 (Relation.cardinality (Database.find db "t"))

(* --- qcheck properties ------------------------------------------------------ *)

(* Columnar durability: a store reaches disk marshalled inside the
   checkpoint's engine snapshot (whose record framing rejects flipped
   bits, test_recovery), so its marshalled image must round-trip exactly,
   dictionary ids included, across arbitrary insert/remove/compact
   histories. *)
let columnar_qcheck_tests =
  let open QCheck in
  let module CS = Dd_relational.Column_store in
  let op_gen =
    (* 0 = insert, 1 = remove, 2 = compact *)
    Gen.(pair (0 -- 9) (pair (0 -- 12) (0 -- 3)))
  in
  let store_gen =
    Gen.map
      (fun ops ->
        let cs = CS.create ab_schema in
        List.iter
          (fun (kind, (a, bv)) ->
            let tup = [| i a; s (string_of_int bv) |] in
            if kind < 6 then ignore (CS.insert_prev cs tup)
            else if kind < 9 then ignore (CS.remove cs tup)
            else CS.compact cs)
          ops;
        cs)
      (Gen.list_size Gen.(0 -- 60) op_gen)
  in
  let arb_store =
    make
      ~print:(fun cs -> Printf.sprintf "columnar{card=%d total=%d}" (CS.cardinality cs) (CS.total_count cs))
      store_gen
  in
  [
    Test.make ~name:"columnar bytes round-trip any history" ~count:100 arb_store
      (fun cs ->
        let bytes = Marshal.to_string cs [] in
        let back : CS.t = Marshal.from_string bytes 0 in
        let ids cs =
          let rows = ref [] in
          CS.iter_ids cs (fun ids n -> rows := (Array.copy ids, n) :: !rows);
          List.sort compare !rows
        in
        let dict cs c = List.init (CS.dict_size cs c) (CS.dict_value cs c) in
        CS.audit back = Ok ()
        && CS.cardinality back = CS.cardinality cs
        && CS.total_count back = CS.total_count cs
        && CS.fold (fun tup n ok -> ok && CS.count back tup = n) cs true
        && List.for_all (fun c -> dict back c = dict cs c) [ 0; 1 ]
        && ids back = ids cs
        (* re-marshalling is bit-identical *)
        && Marshal.to_string back [] = bytes);
  ]

(* Keyed probes on 1-, 2- and 3-column keys in any column order: over a
   store in each physical layout (delta tail, sorted run, half and half,
   run rows overridden by the tail), through inserts, removes, bulk
   loads, compactions and clears, every probe yields exactly the live
   rows a filter over [iter] selects, with their counts, and the store
   holds a reference bag's contents.  Wide value domains leave
   dictionaries far larger than the run, so index permutations are built
   by both the counting sort and the merge-sort fallback, and every
   probe after a mutation or compaction exercises index refresh. *)
let index_qcheck_tests =
  let module Tup = Tuple in
  let open QCheck in
  let module CS = Dd_relational.Column_store in
  let schema = Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TInt) ] in
  let gen =
    let open Gen in
    let* wide = bool in
    let tuple = array_repeat 3 (map i (if wide then 0 -- 40 else 0 -- 3)) in
    let* contents =
      frequency [ (1, return []); (3, list_size (1 -- 30) (pair tuple (1 -- 2))) ]
    in
    let* layout = 0 -- 3 in
    let key_cols =
      let* n = 1 -- 3 in
      map (fun cols -> Array.of_list (List.filteri (fun k _ -> k < n) cols)) (shuffle_l [ 0; 1; 2 ])
    in
    let op =
      frequency
        [
          (4, map (fun (t, c) -> `Insert (t, c)) (pair tuple (1 -- 2)));
          (3, map (fun (t, c) -> `Remove (t, c)) (pair tuple (1 -- 2)));
          (2, map (fun l -> `Load l) (list_size (0 -- 6) (pair tuple (1 -- 2))));
          (1, return `Compact);
          (1, return `Clear);
          (5, map (fun (cols, t) -> `Probe (cols, t)) (pair key_cols tuple));
        ]
    in
    let* ops = list_size (1 -- 40) op in
    return (contents, layout, ops)
  in
  let print (contents, layout, ops) =
    let tup t = Tup.to_string t in
    Printf.sprintf "layout %d, %d initial tuples (%s); ops: %s" layout (List.length contents)
      (String.concat " " (List.map (fun (t, c) -> Printf.sprintf "%s*%d" (tup t) c) contents))
      (String.concat "; "
         (List.map
            (function
              | `Insert (t, c) -> Printf.sprintf "ins %s*%d" (tup t) c
              | `Remove (t, c) -> Printf.sprintf "rem %s*%d" (tup t) c
              | `Load l -> Printf.sprintf "load %d" (List.length l)
              | `Compact -> "compact"
              | `Clear -> "clear"
              | `Probe (cols, t) ->
                Printf.sprintf "probe [%s] %s"
                  (String.concat "," (Array.to_list (Array.map string_of_int cols)))
                  (tup t))
            ops))
  in
  let check (contents, layout, ops) =
    let r = Relation.create schema in
    let cs = Relation.store r in
    (* the reference bag the store must hold *)
    let model = Tup.Hashtbl.create 16 in
    let count t = Option.value (Tup.Hashtbl.find_opt model t) ~default:0 in
    let set t n = if n > 0 then Tup.Hashtbl.replace model t n else Tup.Hashtbl.remove model t in
    let insert (t, c) =
      set t (count t + c);
      ignore (CS.insert_prev ~count:c cs t)
    in
    let remove (t, c) =
      set t (count t - min c (count t));
      ignore (CS.remove ~count:c cs t)
    in
    (match layout with
    | 0 -> List.iter insert contents
    | 1 ->
      List.iter insert contents;
      CS.compact cs
    | 2 ->
      let half = List.length contents / 2 in
      List.iteri (fun k e -> if k < half then insert e) contents;
      CS.compact cs;
      List.iteri (fun k e -> if k >= half then insert e) contents
    | _ ->
      (* every row once too often, then compacted, then the extras removed:
         each run row is overridden by a tail entry *)
      List.iter (fun (t, c) -> insert (t, c + 1)) contents;
      CS.compact cs;
      List.iter (fun (t, _) -> remove (t, 1)) contents);
    List.for_all
      (function
        | `Insert e ->
          insert e;
          true
        | `Remove e ->
          remove e;
          true
        | `Load l ->
          let loader = CS.loader cs in
          List.iter
            (fun (t, c) ->
              set t (count t + c);
              CS.load loader c t)
            l;
          CS.finish_load loader;
          CS.audit cs = Ok ()
        | `Compact ->
          CS.compact cs;
          true
        | `Clear ->
          (* dictionaries survive: later probes index an empty run *)
          Tup.Hashtbl.reset model;
          CS.clear cs;
          true
        | `Probe (cols, t) ->
          let key = Array.map (fun c -> t.(c)) cols in
          let expected =
            CS.fold
              (fun tup n acc ->
                if Array.for_all2 (fun c v -> Value.equal tup.(c) v) cols key then (tup, n) :: acc
                else acc)
              cs []
          in
          CS.cardinality cs = Tup.Hashtbl.length model
          && CS.fold (fun tup n ok -> ok && count tup = n) cs true
          && List.sort compare expected = probe r cols key)
      ops
  in
  [
    Test.make ~name:"keyed probes equal a filtered scan (all layouts)" ~count:500
      (make ~print gen) check;
  ]

let () =
  Alcotest.run "dd_relational"
    [
      ( "value",
        [
          Alcotest.test_case "compare order" `Quick test_value_compare_order;
          Alcotest.test_case "equal/hash" `Quick test_value_equal_hash_consistent;
          Alcotest.test_case "conforms" `Quick test_value_conforms;
          Alcotest.test_case "extractors" `Quick test_value_extractors;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicates" `Quick test_schema_duplicate_rejected;
          Alcotest.test_case "conforms" `Quick test_schema_conforms;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "equality/hash" `Quick test_tuple_equality_hash;
          Alcotest.test_case "compare" `Quick test_tuple_compare_lexicographic;
          Alcotest.test_case "project/concat" `Quick test_tuple_project_concat;
        ] );
      ( "relation",
        [
          Alcotest.test_case "insert/count" `Quick test_relation_insert_count;
          Alcotest.test_case "remove" `Quick test_relation_remove_semantics;
          Alcotest.test_case "schema enforced" `Quick test_relation_schema_enforced;
          Alcotest.test_case "delete/clear" `Quick test_relation_delete_clear;
          Alcotest.test_case "copy" `Quick test_relation_copy_independent;
          Alcotest.test_case "equality" `Quick test_relation_equal;
          Alcotest.test_case "build_index" `Quick test_relation_build_index;
          Alcotest.test_case "get_index maintained" `Quick test_relation_get_index_maintained;
          Alcotest.test_case "skewed-key removal" `Quick test_relation_index_skewed_key_removal;
          Alcotest.test_case "copy rebuilds index" `Quick test_relation_copy_rebuilds_index;
          Alcotest.test_case "get_index after clear" `Quick test_relation_get_index_cleared;
          Alcotest.test_case "compaction emptying the run drops its filter" `Quick
            test_compact_emptied_run_drops_filter;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse values" `Quick test_csv_parse_values;
          Alcotest.test_case "load with header" `Quick test_csv_load;
          Alcotest.test_case "wrong arity" `Quick test_csv_wrong_arity;
        ] );
      ( "database",
        [
          Alcotest.test_case "catalog" `Quick test_database_catalog;
          Alcotest.test_case "deep copy" `Quick test_database_deep_copy;
        ] );
      ( "columnar-durability",
        List.map QCheck_alcotest.to_alcotest columnar_qcheck_tests );
      ("columnar-index", List.map QCheck_alcotest.to_alcotest index_qcheck_tests);
    ]
