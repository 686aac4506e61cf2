module Ast = Dd_datalog.Ast
module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Program = Dd_core.Program
module Semantics = Dd_fgraph.Semantics

exception Parse_error of string * Lexer.position

type state = { mutable tokens : (Lexer.token * Lexer.position) list }

let peek st =
  match st.tokens with
  | (tok, pos) :: _ -> (tok, pos)
  | [] -> (Lexer.EOF, { Lexer.line = 0; column = 0 })

let advance st =
  match st.tokens with
  | _ :: rest -> st.tokens <- rest
  | [] -> ()

let next st =
  let tok, pos = peek st in
  advance st;
  (tok, pos)

let fail pos message = raise (Parse_error (message, pos))

let expect st expected =
  let tok, pos = next st in
  if tok <> expected then
    fail pos
      (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string expected)
         (Lexer.token_to_string tok))

let expect_ident st =
  match next st with
  | Lexer.IDENT name, _ -> name
  | tok, pos -> fail pos ("expected identifier, found " ^ Lexer.token_to_string tok)

let parse_type st =
  let name = expect_ident st in
  match name with
  | "int" -> Value.TInt
  | "text" | "string" -> Value.TStr
  | "bool" -> Value.TBool
  | "float" | "real" -> Value.TFloat
  | other -> fail (snd (peek st)) ("unknown column type " ^ other)

let parse_schema_decl st =
  let name = expect_ident st in
  expect st Lexer.LPAREN;
  let columns = ref [] in
  let rec loop () =
    let col = expect_ident st in
    let ty = parse_type st in
    columns := (col, ty) :: !columns;
    match next st with
    | Lexer.COMMA, _ -> loop ()
    | Lexer.RPAREN, _ -> ()
    | tok, pos -> fail pos ("expected , or ) in schema, found " ^ Lexer.token_to_string tok)
  in
  loop ();
  expect st Lexer.DOT;
  (name, Schema.make (List.rev !columns))

let parse_term st =
  match next st with
  | Lexer.IDENT name, _ -> Ast.Var name
  | Lexer.INT i, _ -> Ast.Const (Value.Int i)
  | Lexer.FLOAT f, _ -> Ast.Const (Value.Float f)
  | Lexer.STRING s, _ -> Ast.Const (Value.Str s)
  | Lexer.BOOL b, _ -> Ast.Const (Value.Bool b)
  | tok, pos -> fail pos ("expected term, found " ^ Lexer.token_to_string tok)

let parse_atom st name =
  expect st Lexer.LPAREN;
  let args = ref [] in
  (match peek st with
  | Lexer.RPAREN, _ -> advance st
  | _ ->
    let rec loop () =
      args := parse_term st :: !args;
      match next st with
      | Lexer.COMMA, _ -> loop ()
      | Lexer.RPAREN, _ -> ()
      | tok, pos -> fail pos ("expected , or ) in atom, found " ^ Lexer.token_to_string tok)
    in
    loop ());
  Ast.atom name (List.rev !args)

type body_item =
  | Literal of Ast.literal
  | Guard of Ast.guard

(* A body item is a (possibly negated) atom, or a comparison guard between
   two terms. *)
let parse_body_item st =
  match peek st with
  | Lexer.BANG, _ ->
    advance st;
    let name = expect_ident st in
    Literal (Ast.Neg (parse_atom st name))
  | Lexer.IDENT name, _ -> (
    advance st;
    match peek st with
    | Lexer.LPAREN, _ -> Literal (Ast.Pos (parse_atom st name))
    | _ -> (
      let left = Ast.Var name in
      match next st with
      | Lexer.EQ, _ -> Guard (Ast.Eq (left, parse_term st))
      | Lexer.NEQ, _ -> Guard (Ast.Neq (left, parse_term st))
      | Lexer.LT, _ -> Guard (Ast.Lt (left, parse_term st))
      | Lexer.LE, _ -> Guard (Ast.Le (left, parse_term st))
      | tok, pos ->
        fail pos ("expected atom or comparison, found " ^ Lexer.token_to_string tok)))
  | _, pos ->
    let left = parse_term st in
    (match next st with
    | Lexer.EQ, _ -> Guard (Ast.Eq (left, parse_term st))
    | Lexer.NEQ, _ -> Guard (Ast.Neq (left, parse_term st))
    | Lexer.LT, _ -> Guard (Ast.Lt (left, parse_term st))
    | Lexer.LE, _ -> Guard (Ast.Le (left, parse_term st))
    | tok, _ -> fail pos ("expected comparison after constant, found " ^ Lexer.token_to_string tok))

type annotations = {
  weight : Program.weight_spec option;
  semantics : Semantics.t option;
  populate : bool;
}

let rec parse_annotations st acc =
  match peek st with
  | Lexer.IDENT "weight", _ ->
    advance st;
    expect st Lexer.EQ;
    let spec =
      match next st with
      | Lexer.FLOAT f, _ -> Program.Fixed f
      | Lexer.INT i, _ -> Program.Fixed (float_of_int i)
      | Lexer.IDENT "w", _ ->
        expect st Lexer.LPAREN;
        let terms = ref [] in
        (match peek st with
        | Lexer.RPAREN, _ -> advance st
        | _ ->
          let rec loop () =
            terms := parse_term st :: !terms;
            match next st with
            | Lexer.COMMA, _ -> loop ()
            | Lexer.RPAREN, _ -> ()
            | tok, pos ->
              fail pos ("expected , or ) in weight, found " ^ Lexer.token_to_string tok)
          in
          loop ());
        Program.Tied (List.rev !terms)
      | tok, pos ->
        fail pos ("expected weight value or w(...), found " ^ Lexer.token_to_string tok)
    in
    parse_annotations st { acc with weight = Some spec }
  | Lexer.IDENT "semantics", _ ->
    advance st;
    expect st Lexer.EQ;
    let name = expect_ident st in
    (match Semantics.of_string name with
    | Some s -> parse_annotations st { acc with semantics = Some s }
    | None -> fail (snd (peek st)) ("unknown semantics " ^ name))
  | Lexer.IDENT "populate", _ ->
    advance st;
    expect st Lexer.EQ;
    (match next st with
    | Lexer.BOOL b, _ -> parse_annotations st { acc with populate = b }
    | tok, pos -> fail pos ("expected true/false after populate =, found " ^ Lexer.token_to_string tok))
  | _ -> acc

type raw_rule = {
  rule_name : string option;
  head : Ast.atom;
  body : body_item list;
  annotations : annotations;
}

let parse_rule st rule_name =
  let head_name = expect_ident st in
  let head = parse_atom st head_name in
  let body = ref [] in
  (match peek st with
  | Lexer.TURNSTILE, _ ->
    advance st;
    let rec loop () =
      body := parse_body_item st :: !body;
      match peek st with
      | Lexer.COMMA, _ ->
        advance st;
        loop ()
      | _ -> ()
    in
    loop ()
  | _ -> ());
  let annotations = parse_annotations st { weight = None; semantics = None; populate = true } in
  expect st Lexer.DOT;
  { rule_name; head; body = List.rev !body; annotations }

let split_body items =
  List.fold_right
    (fun item (lits, guards) ->
      match item with
      | Literal l -> (l :: lits, guards)
      | Guard g -> (lits, g :: guards))
    items ([], [])

let classify query_relations counter raw =
  let lits, guards = split_body raw.body in
  let fresh_name kind =
    match raw.rule_name with
    | Some n -> n
    | None ->
      incr counter;
      Printf.sprintf "%s%d" kind !counter
  in
  let head_pred = raw.head.Ast.pred in
  let is_query = List.mem_assoc head_pred query_relations in
  let is_supervision =
    List.exists (fun (q, _) -> Program.evidence_relation q = head_pred) query_relations
  in
  let ast_rule = Ast.rule ~guards raw.head lits in
  if is_supervision then Program.Supervise (fresh_name "supervise", ast_rule)
  else
    match raw.annotations.weight with
    | Some weight when is_query ->
      Program.Infer
        {
          Program.name = fresh_name "infer";
          head = raw.head;
          body = lits;
          guards;
          weight;
          semantics = Option.value raw.annotations.semantics ~default:Semantics.Ratio;
          populate_head = raw.annotations.populate;
        }
    | Some _ ->
      invalid_arg
        (Printf.sprintf "rule for %s has a weight but %s is not a query relation" head_pred
           head_pred)
    | None -> Program.Deterministic (fresh_name "rule", ast_rule)

let parse_program st =
  let inputs = ref [] and queries = ref [] and raw_rules = ref [] in
  let rec loop () =
    match peek st with
    | Lexer.EOF, _ -> ()
    | Lexer.IDENT "input", _ ->
      advance st;
      inputs := parse_schema_decl st :: !inputs;
      loop ()
    | Lexer.IDENT "query", _ ->
      advance st;
      queries := parse_schema_decl st :: !queries;
      loop ()
    | Lexer.AT, _ ->
      advance st;
      let name = expect_ident st in
      raw_rules := parse_rule st (Some name) :: !raw_rules;
      loop ()
    | Lexer.IDENT _, _ ->
      raw_rules := parse_rule st None :: !raw_rules;
      loop ()
    | tok, pos -> fail pos ("unexpected token " ^ Lexer.token_to_string tok)
  in
  loop ();
  let query_relations = List.rev !queries in
  let counter = ref 0 in
  let rules = List.map (classify query_relations counter) (List.rev !raw_rules) in
  { Program.input_schemas = List.rev !inputs; query_relations; rules }

let parse source =
  match
    let st = { tokens = Lexer.tokenize source } in
    parse_program st
  with
  | prog -> (
    match Program.validate prog with
    | Ok () -> Ok prog
    | Error e -> Error e)
  | exception Parse_error (message, pos) ->
    Error (Printf.sprintf "parse error at line %d, column %d: %s" pos.Lexer.line pos.Lexer.column message)
  | exception Lexer.Lex_error (message, pos) ->
    Error (Printf.sprintf "lex error at line %d, column %d: %s" pos.Lexer.line pos.Lexer.column message)
  | exception Invalid_argument message -> Error message

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  parse contents
