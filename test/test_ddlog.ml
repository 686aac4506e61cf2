(* Tests for Dd_ddlog: lexer and surface-language parser. *)

module Lexer = Dd_ddlog.Lexer
module Parser = Dd_ddlog.Parser
module Program = Dd_core.Program
module Ast = Dd_datalog.Ast
module Value = Dd_relational.Value
module Schema = Dd_relational.Schema
module Semantics = Dd_fgraph.Semantics

let tokens src = List.map fst (Lexer.tokenize src)

(* --- lexer ------------------------------------------------------------------- *)

let test_lex_idents_and_punct () =
  Alcotest.(check bool) "shape" true
    (tokens "foo(x, y)."
    = [ Lexer.IDENT "foo"; Lexer.LPAREN; Lexer.IDENT "x"; Lexer.COMMA; Lexer.IDENT "y";
        Lexer.RPAREN; Lexer.DOT; Lexer.EOF ])

let test_lex_numbers () =
  Alcotest.(check bool) "int" true (tokens "42" = [ Lexer.INT 42; Lexer.EOF ]);
  Alcotest.(check bool) "negative" true (tokens "-7" = [ Lexer.INT (-7); Lexer.EOF ]);
  Alcotest.(check bool) "float" true (tokens "1.5" = [ Lexer.FLOAT 1.5; Lexer.EOF ]);
  Alcotest.(check bool) "negative float" true (tokens "-0.25" = [ Lexer.FLOAT (-0.25); Lexer.EOF ]);
  Alcotest.(check bool) "exponent" true (tokens "2.5e2" = [ Lexer.FLOAT 250.0; Lexer.EOF ])

let test_lex_strings () =
  Alcotest.(check bool) "plain" true (tokens {|"hello"|} = [ Lexer.STRING "hello"; Lexer.EOF ]);
  Alcotest.(check bool) "escape" true
    (tokens {|"a\nb"|} = [ Lexer.STRING "a\nb"; Lexer.EOF ])

let test_lex_operators () =
  Alcotest.(check bool) "turnstile" true (tokens ":-" = [ Lexer.TURNSTILE; Lexer.EOF ]);
  Alcotest.(check bool) "neq" true (tokens "!=" = [ Lexer.NEQ; Lexer.EOF ]);
  Alcotest.(check bool) "bang" true (tokens "!x" = [ Lexer.BANG; Lexer.IDENT "x"; Lexer.EOF ]);
  Alcotest.(check bool) "le" true (tokens "<=" = [ Lexer.LE; Lexer.EOF ]);
  Alcotest.(check bool) "lt" true (tokens "<" = [ Lexer.LT; Lexer.EOF ])

let test_lex_bools () =
  Alcotest.(check bool) "true" true (tokens "true" = [ Lexer.BOOL true; Lexer.EOF ]);
  Alcotest.(check bool) "false" true (tokens "false" = [ Lexer.BOOL false; Lexer.EOF ])

let test_lex_comments () =
  Alcotest.(check bool) "line comment" true
    (tokens "a // comment here\nb" = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ]);
  Alcotest.(check bool) "hash comment" true
    (tokens "a # comment\nb" = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ])

let test_lex_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  let (_, pos_b) = List.nth toks 1 in
  Alcotest.(check int) "line" 2 pos_b.Lexer.line;
  Alcotest.(check int) "column" 3 pos_b.Lexer.column

let test_lex_error () =
  Alcotest.(check bool) "bad char" true
    (match Lexer.tokenize "a $ b" with
    | _ -> false
    | exception Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "unterminated string" true
    (match Lexer.tokenize {|"abc|} with
    | _ -> false
    | exception Lexer.Lex_error _ -> true)

(* --- parser ------------------------------------------------------------------- *)

let minimal =
  {|
  input edge(src int, dst int).
  query node_flag(n int).

  cand(x) :- edge(x, y).
  @classifier
  node_flag(x) :- cand(x), edge(x, f) weight = w(f) semantics = logical.
  @prior
  node_flag(x) :- cand(x) weight = -0.5.
  node_flag_ev(x, true) :- edge(x, 0).
|}

let parse_ok src =
  match Parser.parse src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_schemas () =
  let prog = parse_ok minimal in
  Alcotest.(check int) "one input" 1 (List.length prog.Program.input_schemas);
  let name, schema = List.hd prog.Program.input_schemas in
  Alcotest.(check string) "edge" "edge" name;
  Alcotest.(check (list string)) "cols" [ "src"; "dst" ] (Schema.names schema);
  Alcotest.(check int) "one query" 1 (List.length prog.Program.query_relations)

let test_parse_rule_kinds () =
  let prog = parse_ok minimal in
  let det, sup, inf =
    List.fold_left
      (fun (d, s, i) -> function
        | Program.Deterministic _ -> (d + 1, s, i)
        | Program.Supervise _ -> (d, s + 1, i)
        | Program.Infer _ -> (d, s, i + 1))
      (0, 0, 0) prog.Program.rules
  in
  Alcotest.(check int) "deterministic" 1 det;
  Alcotest.(check int) "supervision" 1 sup;
  Alcotest.(check int) "inference" 2 inf

let test_parse_rule_names () =
  let prog = parse_ok minimal in
  let names =
    List.map
      (function
        | Program.Deterministic (name, _) | Program.Supervise (name, _) -> name
        | Program.Infer r -> r.Program.name)
      prog.Program.rules
  in
  Alcotest.(check bool) "classifier named" true (List.mem "classifier" names);
  Alcotest.(check bool) "prior named" true (List.mem "prior" names)

let test_parse_weight_specs () =
  let prog = parse_ok minimal in
  let inference = Program.inference_rules prog in
  let classifier = List.find (fun r -> r.Program.name = "classifier") inference in
  (match classifier.Program.weight with
  | Program.Tied [ Ast.Var "f" ] -> ()
  | _ -> Alcotest.fail "expected tied weight on f");
  Alcotest.(check bool) "semantics" true (classifier.Program.semantics = Semantics.Logical);
  let prior = List.find (fun r -> r.Program.name = "prior") inference in
  (match prior.Program.weight with
  | Program.Fixed w -> Alcotest.(check (float 0.0)) "fixed -0.5" (-0.5) w
  | _ -> Alcotest.fail "expected fixed weight");
  (* Default semantics is Ratio. *)
  Alcotest.(check bool) "default semantics" true (prior.Program.semantics = Semantics.Ratio)

let test_parse_supervision_constant () =
  let prog = parse_ok minimal in
  match List.filter_map (function Program.Supervise (_, rule) -> Some rule | _ -> None) prog.Program.rules with
  | [ rule ] ->
    let last = List.nth rule.Ast.head.Ast.args 1 in
    Alcotest.(check bool) "true constant" true (last = Ast.Const (Value.Bool true))
  | _ -> Alcotest.fail "expected one supervision rule"

let test_parse_guards_and_negation () =
  let prog =
    parse_ok
      {|
      input edge(src int, dst int).
      input blocked(n int).
      query q(n int).
      q(x) :- edge(x, y), !blocked(y), x != y, x < 10 weight = 1.0.
    |}
  in
  match Program.inference_rules prog with
  | [ r ] ->
    Alcotest.(check int) "two literals" 2 (List.length r.Program.body);
    Alcotest.(check bool) "one negated" true
      (List.exists (fun l -> not (Ast.is_positive l)) r.Program.body);
    Alcotest.(check int) "two guards" 2 (List.length r.Program.guards)
  | _ -> Alcotest.fail "expected one rule"

let test_parse_populate_annotation () =
  let prog =
    parse_ok
      {|
      input link(a int, b int).
      query q(n int).
      q(x) :- link(x, y) weight = 1.0.
      q(x) :- q(y), link(x, y) weight = 2.0 populate = false.
    |}
  in
  match Program.inference_rules prog with
  | [ first; second ] ->
    Alcotest.(check bool) "default populates" true first.Program.populate_head;
    Alcotest.(check bool) "annotated does not" false second.Program.populate_head
  | _ -> Alcotest.fail "expected two rules"

let test_parse_string_constants () =
  let prog =
    parse_ok
      {|
      input tag(item text, label text).
      query q(item text).
      q(x) :- tag(x, "important") weight = 1.0.
    |}
  in
  match Program.inference_rules prog with
  | [ r ] ->
    let tag = Ast.atom_of_literal (List.hd r.Program.body) in
    Alcotest.(check bool) "string const" true
      (List.nth tag.Ast.args 1 = Ast.Const (Value.Str "important"))
  | _ -> Alcotest.fail "expected one rule"

let test_parse_error_reports_position () =
  match Parser.parse "input edge(src int dst int)." with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error e -> Alcotest.(check bool) "mentions line" true (String.length e > 0)

let test_parse_rejects_weight_on_non_query () =
  match
    Parser.parse
      {|
      input edge(a int, b int).
      query q(n int).
      notq(x) :- edge(x, y) weight = 1.0.
    |}
  with
  | Ok _ -> Alcotest.fail "should reject"
  | Error e -> Alcotest.(check bool) "mentions query" true (String.length e > 0)

let test_parse_rejects_unsafe_rule () =
  match
    Parser.parse
      {|
      input edge(a int, b int).
      query q(n int).
      q(z) :- edge(x, y) weight = 1.0.
    |}
  with
  | Ok _ -> Alcotest.fail "should reject unsafe"
  | Error _ -> ()

let test_parse_quickstart_like_program () =
  let src =
    {|
    input sentence(sid int, phrase text).
    input mention(sid int, mid text, name text, pos int).
    input el(name text, eid text).
    input married(e1 text, e2 text).
    query has_spouse(m1 text, m2 text).

    @r1
    spouse_candidate(s, m1, m2) :- mention(s, m1, n1, 0), mention(s, m2, n2, 1).
    @fe1
    has_spouse(m1, m2) :- spouse_candidate(s, m1, m2), sentence(s, p)
      weight = w(p) semantics = ratio.
    @s1
    has_spouse_ev(m1, m2, true) :-
      spouse_candidate(s, m1, m2), mention(s, m1, n1, 0), mention(s, m2, n2, 1),
      el(n1, e1), el(n2, e2), married(e1, e2).
  |}
  in
  let prog = parse_ok src in
  Alcotest.(check int) "rules" 3 (List.length prog.Program.rules);
  Alcotest.(check bool) "validates" true (Result.is_ok (Program.validate prog))

let test_parse_empty_weight_key () =
  let prog =
    parse_ok
      {|
      input edge(a int, b int).
      query q(n int).
      q(x) :- edge(x, y) weight = w().
    |}
  in
  match Program.inference_rules prog with
  | [ r ] -> (
    match r.Program.weight with
    | Program.Tied [] -> ()
    | _ -> Alcotest.fail "expected single shared learnable weight")
  | _ -> Alcotest.fail "expected one rule"

let test_parse_integer_weight () =
  let prog =
    parse_ok
      {|
      input edge(a int, b int).
      query q(n int).
      q(x) :- edge(x, y) weight = 2.
    |}
  in
  match Program.inference_rules prog with
  | [ r ] -> (
    match r.Program.weight with
    | Program.Fixed w -> Alcotest.(check (float 0.0)) "2.0" 2.0 w
    | _ -> Alcotest.fail "expected fixed")
  | _ -> Alcotest.fail "expected one rule"

let () =
  Alcotest.run "dd_ddlog"
    [
      ( "lexer",
        [
          Alcotest.test_case "idents/punct" `Quick test_lex_idents_and_punct;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "strings" `Quick test_lex_strings;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "booleans" `Quick test_lex_bools;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "errors" `Quick test_lex_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "schemas" `Quick test_parse_schemas;
          Alcotest.test_case "rule kinds" `Quick test_parse_rule_kinds;
          Alcotest.test_case "rule names" `Quick test_parse_rule_names;
          Alcotest.test_case "weight specs" `Quick test_parse_weight_specs;
          Alcotest.test_case "supervision constant" `Quick test_parse_supervision_constant;
          Alcotest.test_case "guards/negation" `Quick test_parse_guards_and_negation;
          Alcotest.test_case "populate annotation" `Quick test_parse_populate_annotation;
          Alcotest.test_case "string constants" `Quick test_parse_string_constants;
          Alcotest.test_case "error position" `Quick test_parse_error_reports_position;
          Alcotest.test_case "weight on non-query" `Quick test_parse_rejects_weight_on_non_query;
          Alcotest.test_case "unsafe rule" `Quick test_parse_rejects_unsafe_rule;
          Alcotest.test_case "quickstart program" `Quick test_parse_quickstart_like_program;
          Alcotest.test_case "empty weight key" `Quick test_parse_empty_weight_key;
          Alcotest.test_case "integer weight" `Quick test_parse_integer_weight;
        ] );
    ]
