module Value = Dd_relational.Value

type term =
  | Var of string
  | Const of Value.t

type atom = { pred : string; args : term list }

type literal =
  | Pos of atom
  | Neg of atom

type guard =
  | Eq of term * term
  | Neq of term * term
  | Lt of term * term
  | Le of term * term

type rule = { head : atom; body : literal list; guards : guard list }

type program = rule list

let atom pred args = { pred; args }

let rule ?(guards = []) head body = { head; body; guards }

let atom_of_literal = function Pos a | Neg a -> a

let is_positive = function Pos _ -> true | Neg _ -> false

let term_vars = function Var v -> [ v ] | Const _ -> []

let atom_vars a = List.concat_map term_vars a.args

let guard_vars = function
  | Eq (a, b) | Neq (a, b) | Lt (a, b) | Le (a, b) -> term_vars a @ term_vars b

let dedup xs = List.sort_uniq String.compare xs

let rule_vars r =
  dedup
    (atom_vars r.head
    @ List.concat_map (fun l -> atom_vars (atom_of_literal l)) r.body
    @ List.concat_map guard_vars r.guards)

let positive_body_vars r =
  dedup
    (List.concat_map
       (function Pos a -> atom_vars a | Neg _ -> [])
       r.body)

let head_pred r = r.head.pred

let body_preds r = dedup (List.map (fun l -> (atom_of_literal l).pred) r.body)

let check_safety r =
  let bound = positive_body_vars r in
  let is_bound v = List.mem v bound in
  let check_vars what vs =
    match List.find_opt (fun v -> not (is_bound v)) vs with
    | None -> Ok ()
    | Some v ->
      Error
        (Printf.sprintf "unsafe rule for %s: %s variable %s not bound by a positive atom"
           r.head.pred what v)
  in
  let ( let* ) = Result.bind in
  let* () = check_vars "head" (atom_vars r.head) in
  let* () =
    check_vars "negated"
      (List.concat_map (function Neg a -> atom_vars a | Pos _ -> []) r.body)
  in
  check_vars "guard" (List.concat_map guard_vars r.guards)

let check_program p =
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> check_safety r)
    (Ok ()) p

let idb_preds p = dedup (List.map head_pred p)

let pp_term fmt = function
  | Var v -> Format.pp_print_string fmt v
  | Const (Value.Str s) -> Format.fprintf fmt "%S" s
  | Const v -> Value.pp fmt v

let pp_atom fmt a =
  Format.fprintf fmt "%s(%a)" a.pred
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_term)
    a.args

let pp_literal fmt = function
  | Pos a -> pp_atom fmt a
  | Neg a -> Format.fprintf fmt "!%a" pp_atom a

let pp_guard fmt g =
  let op, a, b =
    match g with
    | Eq (a, b) -> ("=", a, b)
    | Neq (a, b) -> ("!=", a, b)
    | Lt (a, b) -> ("<", a, b)
    | Le (a, b) -> ("<=", a, b)
  in
  Format.fprintf fmt "%a %s %a" pp_term a op pp_term b

let pp_rule fmt r =
  let pp_sep f () = Format.fprintf f ", " in
  Format.fprintf fmt "%a :- %a" pp_atom r.head
    (Format.pp_print_list ~pp_sep pp_literal)
    r.body;
  if r.guards <> [] then
    Format.fprintf fmt ", %a" (Format.pp_print_list ~pp_sep pp_guard) r.guards;
  Format.fprintf fmt "."

let rule_to_string r = Format.asprintf "%a" pp_rule r
