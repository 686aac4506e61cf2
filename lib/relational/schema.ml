type column = { name : string; ty : Value.ty }

type t = { cols : column array }

let make pairs =
  let seen = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then invalid_arg ("Schema.make: duplicate column " ^ name);
      Hashtbl.replace seen name ())
    pairs;
  { cols = Array.of_list (List.map (fun (name, ty) -> { name; ty }) pairs) }

let columns t = Array.copy t.cols

let arity t = Array.length t.cols

let names t = Array.to_list (Array.map (fun c -> c.name) t.cols)

let conforms t row =
  Array.length row = arity t
  && Array.for_all2 (fun c v -> Value.conforms v c.ty) t.cols row

let pp fmt t =
  Format.fprintf fmt "(%s)"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun c -> c.name ^ ":" ^ Value.ty_to_string c.ty) t.cols)))
