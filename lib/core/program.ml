module Ast = Dd_datalog.Ast
module Schema = Dd_relational.Schema
module Value = Dd_relational.Value

type weight_spec =
  | Fixed of float
  | Tied of Ast.term list

type inference_rule = {
  name : string;
  head : Ast.atom;
  body : Ast.literal list;
  guards : Ast.guard list;
  weight : weight_spec;
  semantics : Dd_fgraph.Semantics.t;
  populate_head : bool;
}

type rule =
  | Deterministic of string * Ast.rule
  | Supervise of string * Ast.rule
  | Infer of inference_rule

type t = {
  input_schemas : (string * Schema.t) list;
  query_relations : (string * Schema.t) list;
  rules : rule list;
}

let evidence_relation name = name ^ "_ev"

let candidate_rule (r : inference_rule) = Ast.rule ~guards:r.guards r.head r.body

let deterministic_program t =
  List.concat_map
    (function
      | Deterministic (_, rule) -> [ rule ]
      | Supervise (_, rule) -> [ rule ]
      | Infer r -> if r.populate_head then [ candidate_rule r ] else [])
    t.rules

let inference_rules t =
  List.filter_map (function Infer r -> Some r | Deterministic _ | Supervise _ -> None) t.rules

let is_query_relation t name = List.mem_assoc name t.query_relations

let add_rules t rules = { t with rules = t.rules @ rules }

let validate t =
  let ( let* ) = Result.bind in
  let* () = Dd_datalog.Ast.check_program (deterministic_program t) in
  let check_rule acc rule =
    let* () = acc in
    match rule with
    | Deterministic _ -> Ok ()
    | Infer r ->
      if not (is_query_relation t r.head.Ast.pred) then
        Error
          (Printf.sprintf "inference rule %s: head %s is not a query relation" r.name
             r.head.Ast.pred)
      else begin
        (* Weight-key terms must be bound by the body. *)
        let bound = Ast.positive_body_vars (candidate_rule r) in
        let key_vars =
          match r.weight with
          | Fixed _ -> []
          | Tied terms -> List.concat_map Ast.term_vars terms
        in
        match List.find_opt (fun v -> not (List.mem v bound)) key_vars with
        | Some v ->
          Error (Printf.sprintf "inference rule %s: weight variable %s unbound" r.name v)
        | None -> Ok ()
      end
    | Supervise (name, rule) ->
      let head = rule.Ast.head.Ast.pred in
      let is_ev =
        List.exists
          (fun (q, _) -> evidence_relation q = head)
          t.query_relations
      in
      if is_ev then Ok ()
      else
        Error
          (Printf.sprintf
             "supervision rule %s: head %s is not the evidence relation of a query relation"
             name head)
  in
  List.fold_left check_rule (Ok ()) t.rules
