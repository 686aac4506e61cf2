type t = (string, Relation.t) Hashtbl.t

let create () = Hashtbl.create 16

let create_table t name schema =
  if Hashtbl.mem t name then invalid_arg ("Database.create_table: table exists: " ^ name);
  let r = Relation.create ~name schema in
  Hashtbl.replace t name r;
  r

let register t r = Hashtbl.replace t (Relation.name r) r

let drop_table t name = Hashtbl.remove t name

let find t name = Hashtbl.find t name

let find_opt t name = Hashtbl.find_opt t name

let mem t name = Hashtbl.mem t name

let table_names t = List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t [])

let insert_rows t name rows =
  let r = find t name in
  List.iter (fun row -> Relation.insert r row) rows

let copy t =
  let fresh = create () in
  Hashtbl.iter (fun name r -> Hashtbl.replace fresh name (Relation.copy r)) t;
  fresh

let validate t =
  List.fold_left
    (fun acc name -> Result.bind acc (fun () -> Relation.validate (find t name)))
    (Ok ()) (table_names t)
