type column = { name : string; ty : Value.ty }

type t = { cols : column array; index : (string, int) Hashtbl.t }

let build cols =
  let index = Hashtbl.create (Array.length cols) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem index c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.replace index c.name i)
    cols;
  { cols; index }

let make pairs = build (Array.of_list (List.map (fun (name, ty) -> { name; ty }) pairs))

let columns t = Array.copy t.cols

let arity t = Array.length t.cols

let column_index t name = Hashtbl.find t.index name

let mem t name = Hashtbl.mem t.index name

let names t = Array.to_list (Array.map (fun c -> c.name) t.cols)

let conforms t row =
  Array.length row = arity t
  && Array.for_all2 (fun c v -> Value.conforms v c.ty) t.cols row

let project t cols =
  build (Array.of_list (List.map (fun name -> t.cols.(column_index t name)) cols))

let concat a b = build (Array.append a.cols b.cols)

let rename t mapping =
  build
    (Array.map
       (fun c ->
         match List.assoc_opt c.name mapping with
         | Some fresh -> { c with name = fresh }
         | None -> c)
       t.cols)

let pp fmt t =
  Format.fprintf fmt "(%s)"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun c -> c.name ^ ":" ^ Value.ty_to_string c.ty) t.cols)))
