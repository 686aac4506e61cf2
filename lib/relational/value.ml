type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr

let conforms v ty =
  match type_of v with
  | None -> true
  | Some t -> t = ty

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 33
  | Int i -> Hashtbl.hash i
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

let ty_to_string = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "text"

let int i = Int i
let str s = Str s

let as_str = function Str s -> s | v -> invalid_arg ("Value.as_str: " ^ to_string v)
