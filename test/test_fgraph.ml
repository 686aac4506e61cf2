(* Tests for Dd_fgraph: semantics, graph representation, exact inference,
   and the voting program's closed form. *)

module Semantics = Dd_fgraph.Semantics
module Graph = Dd_fgraph.Graph
module Exact = Dd_oracle.Exact
module Voting = Dd_fgraph.Voting
module Stats = Dd_util.Stats

let check_close epsilon = Alcotest.(check (float epsilon))

(* --- semantics -------------------------------------------------------------- *)

let test_semantics_values () =
  check_close 0.0 "linear" 5.0 (Semantics.g Semantics.Linear 5);
  check_close 0.0 "logical 0" 0.0 (Semantics.g Semantics.Logical 0);
  check_close 0.0 "logical n" 1.0 (Semantics.g Semantics.Logical 7);
  check_close 1e-12 "ratio" (log 4.0) (Semantics.g Semantics.Ratio 3);
  check_close 0.0 "ratio 0" 0.0 (Semantics.g Semantics.Ratio 0)

let test_semantics_strings () =
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Semantics.to_string s))
        (Option.map Semantics.to_string (Semantics.of_string (Semantics.to_string s))))
    Semantics.all;
  Alcotest.(check bool) "unknown" true (Semantics.of_string "bogus" = None)

(* --- graph ------------------------------------------------------------------- *)

let lit ?(negated = false) var = { Graph.var; negated }

let test_graph_vars_weights () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let b = Graph.add_var ~evidence:(Graph.Evidence true) g in
  Alcotest.(check int) "two vars" 2 (Graph.num_vars g);
  Alcotest.(check bool) "a query" true (Graph.evidence_of g a = Graph.Query);
  Alcotest.(check bool) "b evidence" true (Graph.evidence_of g b = Graph.Evidence true);
  Alcotest.(check (list int)) "query vars" [ a ] (Graph.query_vars g);
  Alcotest.(check bool) "evidence list" true (Graph.evidence_vars g = [ (b, true) ]);
  let w = Graph.add_weight ~learnable:true g 0.7 in
  check_close 0.0 "weight" 0.7 (Graph.weight_value g w);
  Alcotest.(check bool) "learnable" true (Graph.weight_learnable g w);
  Graph.set_weight g w 1.2;
  check_close 0.0 "updated" 1.2 (Graph.weight_value g w)

let test_graph_add_factor_validation () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  Alcotest.(check bool) "unknown var" true
    (match
       Graph.add_factor g
         { Graph.head = Some 99; bodies = [||]; weight_id = w; semantics = Semantics.Linear }
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown weight" true
    (match
       Graph.add_factor g
         { Graph.head = Some a; bodies = [||]; weight_id = 5; semantics = Semantics.Linear }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The on-demand adjacency by definition: for each variable, every factor
   whose head or literals mention it, highest index first. *)
let reference_adjacency g =
  Array.init (Graph.num_vars g) (fun v ->
      List.filter
        (fun fid -> List.mem v (Graph.vars_of_factor (Graph.factor g fid)))
        (List.init (Graph.num_factors g) (fun i -> Graph.num_factors g - 1 - i)))

(* A random graph grown by [add_factor] and [extend_factor] (bodies may
   repeat a variable or mention the head), then a journaled episode of
   more growth that is rolled back, then more growth. *)
let random_adjacency_case seed =
  let st = Random.State.make [| seed |] in
  let g = Graph.create () in
  let w = Graph.add_weight g 0.5 in
  let grow rounds =
    for _ = 1 to rounds do
      if Random.State.int st 3 = 0 || Graph.num_vars g < 2 then ignore (Graph.add_var g)
      else begin
        let n = Graph.num_vars g in
        let body () =
          Array.init
            (1 + Random.State.int st 3)
            (fun _ -> { Graph.var = Random.State.int st n; negated = Random.State.bool st })
        in
        let bodies () = Array.init (Random.State.int st 3) (fun _ -> body ()) in
        if Graph.num_factors g > 0 && Random.State.bool st then
          Graph.extend_factor g (Random.State.int st (Graph.num_factors g)) (bodies ())
        else
          ignore
            (Graph.add_factor g
               {
                 Graph.head = (if Random.State.bool st then Some (Random.State.int st n) else None);
                 bodies = bodies ();
                 weight_id = w;
                 semantics = Semantics.Linear;
               })
      end
    done
  in
  grow 25;
  let before = Graph.factors_of_var g in
  let j = Graph.journal_begin g in
  grow 15;
  let during = Graph.factors_of_var g = reference_adjacency g in
  Graph.rollback g j;
  let restored = Graph.factors_of_var g = before in
  grow 10;
  during && restored && Graph.factors_of_var g = reference_adjacency g

let test_graph_adjacency () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g and c = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  let f1 = Graph.pairwise g ~weight:w a b in
  let f2 = Graph.unary g ~weight:w a in
  let adj = Graph.factors_of_var g in
  Alcotest.(check (list int)) "a in both" [ f2; f1 ] adj.(a);
  Alcotest.(check (list int)) "b in one" [ f1 ] adj.(b);
  Alcotest.(check (list int)) "c in none" [] adj.(c);
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"factors_of_var lists exactly the factors mentioning each var"
       ~count:200 QCheck.small_int random_adjacency_case)

let test_vars_of_factor_distinct () =
  let f =
    {
      Graph.head = Some 3;
      bodies = [| [| lit 1; lit 2 |]; [| lit 1; lit 3 |] |];
      weight_id = 0;
      semantics = Semantics.Linear;
    }
  in
  Alcotest.(check (list int)) "distinct sorted" [ 1; 2; 3 ] (Graph.vars_of_factor f)

let test_factor_energy_signs () =
  let g = Graph.create () in
  let h = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g 2.0 in
  let f =
    { Graph.head = Some h; bodies = [| [| lit b |] |]; weight_id = w; semantics = Semantics.Linear }
  in
  ignore (Graph.add_factor g f);
  let energy hv bv = Graph.factor_energy g f (fun v -> if v = h then hv else bv) in
  check_close 0.0 "head true, body true" 2.0 (energy true true);
  check_close 0.0 "head false, body true" (-2.0) (energy false true);
  check_close 0.0 "body false" 0.0 (energy true false)

let test_factor_energy_counting () =
  (* Two bodies, both satisfied: n = 2 under each semantics. *)
  let g = Graph.create () in
  let h = Graph.add_var g and b1 = Graph.add_var g and b2 = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  let mk semantics =
    { Graph.head = Some h; bodies = [| [| lit b1 |]; [| lit b2 |] |]; weight_id = w; semantics }
  in
  let all_true _ = true in
  check_close 0.0 "linear n=2" 2.0 (Graph.factor_energy g (mk Semantics.Linear) all_true);
  check_close 0.0 "logical n=2" 1.0 (Graph.factor_energy g (mk Semantics.Logical) all_true);
  check_close 1e-12 "ratio n=2" (log 3.0) (Graph.factor_energy g (mk Semantics.Ratio) all_true)

let test_negated_literal () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  let f =
    {
      Graph.head = None;
      bodies = [| [| lit ~negated:true a |] |];
      weight_id = w;
      semantics = Semantics.Logical;
    }
  in
  ignore (Graph.add_factor g f);
  check_close 0.0 "negated satisfied" 1.0 (Graph.factor_energy g f (fun _ -> false));
  check_close 0.0 "negated violated" 0.0 (Graph.factor_energy g f (fun _ -> true))

let test_empty_body_always_satisfied () =
  (* Classifier factors have empty bodies (deterministic support dropped):
     each empty body counts as satisfied. *)
  let g = Graph.create () in
  let h = Graph.add_var g in
  let w = Graph.add_weight g 1.5 in
  let f =
    { Graph.head = Some h; bodies = [| [||]; [||] |]; weight_id = w; semantics = Semantics.Linear }
  in
  ignore (Graph.add_factor g f);
  check_close 0.0 "n=2 constant" 3.0 (Graph.factor_energy g f (fun _ -> true))

let test_extend_factor () =
  let g = Graph.create () in
  let h = Graph.add_var g and b1 = Graph.add_var g and b2 = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  let fid =
    Graph.add_factor g
      { Graph.head = Some h; bodies = [| [| lit b1 |] |]; weight_id = w; semantics = Semantics.Linear }
  in
  Graph.extend_factor g fid [| [| lit b2 |] |];
  let f = Graph.factor g fid in
  Alcotest.(check int) "two bodies" 2 (Array.length f.Graph.bodies);
  Alcotest.(check bool) "b2 adjacency" true (List.mem fid (Graph.factors_of_var g).(b2));
  (* Prefix energy sees only the original body. *)
  let all_true _ = true in
  check_close 0.0 "full" 2.0 (Graph.factor_energy g f all_true);
  check_close 0.0 "prefix" 1.0
    (Graph.factor_energy_prefix f ~weight:(Graph.weight_value g w) all_true 1)

let test_graph_copy_independent () =
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 1.0 in
  ignore (Graph.unary g ~weight:w a);
  let dup = Graph.copy g in
  Graph.set_weight dup w 9.0;
  ignore (Graph.add_var dup);
  check_close 0.0 "original weight" 1.0 (Graph.weight_value g w);
  Alcotest.(check int) "original vars" 1 (Graph.num_vars g)

let test_total_energy () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w1 = Graph.add_weight g 1.0 and w2 = Graph.add_weight g 3.0 in
  ignore (Graph.unary g ~weight:w1 a);
  ignore (Graph.pairwise g ~weight:w2 a b);
  check_close 0.0 "both true" 4.0 (Graph.total_energy g (fun _ -> true));
  check_close 0.0 "only a" 1.0 (Graph.total_energy g (fun v -> v = a))

let test_degrees_and_freeze () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var ~evidence:(Graph.Evidence true) g in
  let w = Graph.add_weight g 1.0 in
  ignore (Graph.pairwise g ~weight:w a b);
  ignore (Graph.unary g ~weight:w a);
  let degrees = Array.map List.length (Graph.factors_of_var g) in
  Alcotest.(check (array int)) "degrees" [| 2; 1 |] degrees;
  let frozen = Graph.freeze_assignment g in
  Alcotest.(check bool) "evidence frozen" true frozen.(b);
  Alcotest.(check bool) "query default false" false frozen.(a)

(* --- exact inference --------------------------------------------------------- *)

let test_exact_single_unary () =
  (* One variable with bias w: P(true) = sigmoid(w). *)
  let g = Graph.create () in
  let a = Graph.add_var g in
  let w = Graph.add_weight g 0.8 in
  ignore (Graph.unary g ~weight:w a);
  let marginals = Exact.marginals g in
  check_close 1e-9 "sigmoid" (Stats.sigmoid 0.8) marginals.(a)

let test_exact_pairwise_hand_computed () =
  (* Two vars, one conjunction factor with weight w:
     worlds: 00,01,10 weight 1; 11 weight e^w.
     P(a) = (1 + e^w) / (3 + e^w). *)
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g in
  let w = Graph.add_weight g 1.3 in
  ignore (Graph.pairwise g ~weight:w a b);
  let marginals = Exact.marginals g in
  let expected = (1.0 +. exp 1.3) /. (3.0 +. exp 1.3) in
  check_close 1e-9 "pair marginal" expected marginals.(a);
  check_close 1e-9 "symmetric" expected marginals.(b)

let test_exact_evidence_conditioning () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var ~evidence:(Graph.Evidence true) g in
  let w = Graph.add_weight g 2.0 in
  ignore (Graph.pairwise g ~weight:w a b);
  let marginals = Exact.marginals g in
  (* With b clamped true: P(a) = e^w / (1 + e^w). *)
  check_close 1e-9 "conditioned" (Stats.sigmoid 2.0) marginals.(a);
  check_close 1e-9 "evidence reported" 1.0 marginals.(b)

let test_exact_probabilities_sum_to_one () =
  let g = Graph.create () in
  let a = Graph.add_var g and b = Graph.add_var g and c = Graph.add_var g in
  let w = Graph.add_weight g 0.5 in
  ignore (Graph.pairwise g ~weight:w a b);
  ignore (Graph.pairwise g ~weight:w b c);
  let worlds = Exact.enumerate g in
  Alcotest.(check int) "eight worlds" 8 (List.length worlds);
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 worlds in
  check_close 1e-9 "normalized" 1.0 total

let test_exact_size_guard () =
  let g = Graph.create () in
  ignore (Graph.add_vars g 30);
  Alcotest.(check bool) "too large" true
    (match Exact.marginals g with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- voting ------------------------------------------------------------------ *)

let test_voting_symmetric_is_half () =
  List.iter
    (fun semantics ->
      let p =
        Voting.exact_marginal_q
          { Voting.default with Voting.n_up = 8; n_down = 8; semantics }
      in
      check_close 1e-9 (Semantics.to_string semantics) 0.5 p)
    Semantics.all

let test_voting_example_2_5 () =
  (* |Up| = 10^6, |Down| = 10^6 - 100 (the paper's running numbers). *)
  let cfg n_up n_down semantics =
    { Voting.default with Voting.n_up; n_down; semantics }
  in
  let linear = Voting.exact_marginal_q (cfg 1_000_000 999_900 Semantics.Linear) in
  Alcotest.(check bool) "linear ~ 1" true (linear > 0.999);
  let ratio = Voting.exact_marginal_q (cfg 1_000_000 999_900 Semantics.Ratio) in
  Alcotest.(check bool) "ratio ~ 0.5" true (abs_float (ratio -. 0.5) < 0.01);
  let logical = Voting.exact_marginal_q (cfg 1_000_000 999_900 Semantics.Logical) in
  check_close 1e-6 "logical exactly 0.5" 0.5 logical

let test_voting_logical_ignores_magnitude () =
  (* Under logical semantics only the existence of votes matters: growing
     the up side 100x barely moves the marginal (both sides almost surely
     have a vote already). *)
  let p n_up =
    Voting.exact_marginal_q
      { Voting.default with Voting.n_up; n_down = 5; semantics = Semantics.Logical }
  in
  Alcotest.(check bool) "magnitude invisible" true (abs_float (p 100 -. p 10_000) < 1e-6);
  (* Linear semantics sees the same change dramatically. *)
  let q n_up =
    Voting.exact_marginal_q
      { Voting.default with Voting.n_up; n_down = 5; semantics = Semantics.Linear }
  in
  Alcotest.(check bool) "linear sees it" true (q 10_000 -. q 5 > 0.01 || q 10_000 > 0.999)

let test_voting_closed_form_matches_enumeration () =
  (* The DP closed form must agree with brute-force enumeration on small
     instances, for every semantics and with unary weights. *)
  List.iter
    (fun semantics ->
      let cfg =
        {
          Voting.n_up = 3;
          n_down = 2;
          rule_weight = 0.8;
          unary_up = 0.3;
          unary_down = -0.2;
          semantics;
        }
      in
      let graph, q, _, _ = Voting.build cfg in
      let exact = (Exact.marginals graph).(q) in
      let closed = Voting.exact_marginal_q cfg in
      check_close 1e-9 (Semantics.to_string semantics) exact closed)
    Semantics.all

let test_log_choose () =
  check_close 1e-9 "C(5,2)" (log 10.0) (Voting.log_choose 5 2);
  check_close 1e-9 "C(n,0)" 0.0 (Voting.log_choose 9 0);
  Alcotest.(check bool) "out of range" true (Voting.log_choose 3 5 = neg_infinity)

(* --- serialization --------------------------------------------------------------- *)

module Serialize = Dd_oracle.Serialize

let rich_graph () =
  let g = Graph.create () in
  let a = Graph.add_var g
  and b = Graph.add_var ~evidence:(Graph.Evidence true) g
  and c = Graph.add_var ~evidence:(Graph.Evidence false) g in
  let w1 = Graph.add_weight ~learnable:true g 0.75 in
  let w2 = Graph.add_weight g (-1.25) in
  ignore (Graph.unary g ~weight:w1 a);
  ignore (Graph.pairwise g ~weight:w2 b c);
  ignore
    (Graph.add_factor g
       {
         Graph.head = Some a;
         bodies = [| [| lit b |]; [| lit ~negated:true c; lit a |] |];
         weight_id = w1;
         semantics = Semantics.Ratio;
       });
  g

let graphs_equivalent g1 g2 =
  Graph.num_vars g1 = Graph.num_vars g2
  && Graph.num_factors g1 = Graph.num_factors g2
  && Graph.num_weights g1 = Graph.num_weights g2
  && List.init (Graph.num_vars g1) (fun v -> Graph.evidence_of g1 v)
     = List.init (Graph.num_vars g2) (fun v -> Graph.evidence_of g2 v)
  && List.init (Graph.num_weights g1) (fun w ->
         (Graph.weight_value g1 w, Graph.weight_learnable g1 w))
     = List.init (Graph.num_weights g2) (fun w ->
           (Graph.weight_value g2 w, Graph.weight_learnable g2 w))
  && List.init (Graph.num_factors g1) (Graph.factor g1)
     = List.init (Graph.num_factors g2) (Graph.factor g2)

let test_serialize_roundtrip () =
  let g = rich_graph () in
  let text = Serialize.to_string g in
  let back = Serialize.of_string text in
  Alcotest.(check bool) "roundtrip" true (graphs_equivalent g back)

let test_serialize_preserves_distribution () =
  let g = rich_graph () in
  let back = Serialize.of_string (Serialize.to_string g) in
  Alcotest.(check bool) "same marginals" true
    (Dd_util.Stats.max_abs_diff (Exact.marginals g) (Exact.marginals back) < 1e-12)

let test_serialize_file_roundtrip () =
  let g = rich_graph () in
  let path = Filename.temp_file "ddgraph_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Dd_util.Fault_file.write_atomic ~fsync:false path (Serialize.to_string g);
      Alcotest.(check bool) "file roundtrip" true
        (graphs_equivalent g (Serialize.of_string (Dd_util.Fault_file.read_file path))))

let test_serialize_empty_graph () =
  let g = Graph.create () in
  let back = Serialize.of_string (Serialize.to_string g) in
  Alcotest.(check int) "no vars" 0 (Graph.num_vars back);
  Alcotest.(check int) "no factors" 0 (Graph.num_factors back)

(* A ddgraph 2 text over [body] with a valid footer, so what rejects it
   is the reader's own check on the body, not the checksum. *)
let with_footer body =
  Printf.sprintf "%schecksum %s\nend\n" body (Dd_util.Crc32.to_hex (Dd_util.Crc32.string body))

let mentions s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_rejected_by (label, reason, text) =
  match Serialize.of_string text with
  | _ -> Alcotest.fail (label ^ ": loaded")
  | exception Serialize.Format_error message ->
    Alcotest.(check bool) (label ^ ": " ^ message) true (mentions message reason)

let test_serialize_rejects_garbage () =
  List.iter expect_rejected_by
    [
      ("nonsense", "bad header", "nonsense");
      ("no footer", "missing checksum footer", "ddgraph 2\nvars 0\nend");
      ("ddgraph 1 text", "bad header", "ddgraph 1\nvars 0\nend\n");
      ("bad vars count", "bad vars count", with_footer "ddgraph 2\nvars x\n");
      ( "unknown semantics",
        "unknown semantics",
        with_footer "ddgraph 2\nvars 1\nweight 0.5 0\nfactor 0 0 bogus 0\n" );
    ]

let expect_format_error label text =
  Alcotest.(check bool) label true
    (match Serialize.of_string text with
    | _ -> false
    | exception Serialize.Format_error _ -> true)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.fail ("substring not found: " ^ sub)
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

let test_serialize_rejects_truncation () =
  let text = Serialize.to_string (rich_graph ()) in
  List.iter
    (fun keep ->
      expect_format_error (Printf.sprintf "truncated to %d bytes" keep)
        (String.sub text 0 keep))
    [ String.length text - 5; String.length text / 2; 12 ]

let test_serialize_rejects_flipped_byte () =
  let text = Serialize.to_string (rich_graph ()) in
  (* Flip one bit of a digit inside a factor line: the line still parses
     (or fails), but the CRC footer must catch it either way. *)
  let pos = find_sub text "factor " + String.length "factor " in
  let b = Bytes.of_string text in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  expect_format_error "flipped byte in factor line" (Bytes.to_string b)

let test_serialize_rejects_forged_checksum () =
  let text = Serialize.to_string (rich_graph ()) in
  let i = find_sub text "checksum " + String.length "checksum " in
  let forged = if String.sub text i 8 = "deadbeef" then "00000000" else "deadbeef" in
  expect_format_error "forged checksum footer"
    (String.sub text 0 i ^ forged ^ String.sub text (i + 8) (String.length text - i - 8))

let test_serialize_rejects_duplicate_end () =
  let text = Serialize.to_string (rich_graph ()) in
  expect_format_error "duplicate end" (text ^ "end\n")

let test_serialize_rejects_out_of_range_refs () =
  List.iter
    (fun (label, reason, body) -> expect_rejected_by (label, reason, with_footer body))
    [
      ( "weight id out of range",
        "factor weight id 3 out of range",
        "ddgraph 2\nvars 1\nweight 0.5 0\nfactor 0 3 ratio 1 | 1 0 0\n" );
      ( "literal var out of range",
        "literal variable 5 out of range",
        "ddgraph 2\nvars 1\nweight 0.5 0\nfactor 0 0 ratio 1 | 1 5 0\n" );
      ( "head var out of range",
        "factor head variable 7 out of range",
        "ddgraph 2\nvars 1\nweight 0.5 0\nfactor 7 0 ratio 1 | 1 0 0\n" );
    ]

let test_graph_validate () =
  let g = rich_graph () in
  Alcotest.(check bool) "valid graph" true (Graph.validate g = Ok ());
  let bad_weight = rich_graph () in
  Graph.set_weight bad_weight 0 Float.nan;
  Alcotest.(check bool) "nan weight rejected" true
    (match Graph.validate bad_weight with Error _ -> true | Ok () -> false)

(* --- qcheck ------------------------------------------------------------------- *)

let random_graph seed =
  let rng = Dd_util.Prng.create seed in
  let g = Graph.create () in
  let n = 3 + Dd_util.Prng.int_below rng 5 in
  let vars = Graph.add_vars g n in
  Array.iter
    (fun v ->
      if Dd_util.Prng.bernoulli rng 0.2 then
        Graph.set_evidence g v (Graph.Evidence (Dd_util.Prng.bool rng)))
    vars;
  for _ = 1 to 1 + Dd_util.Prng.int_below rng 6 do
    let w =
      Graph.add_weight
        ~learnable:(Dd_util.Prng.bool rng)
        g
        (Dd_util.Prng.float_range rng (-2.0) 2.0)
    in
    let pick () =
      { Graph.var = vars.(Dd_util.Prng.int_below rng n); negated = Dd_util.Prng.bool rng }
    in
    let body () = Array.init (1 + Dd_util.Prng.int_below rng 2) (fun _ -> pick ()) in
    ignore
      (Graph.add_factor g
         {
           Graph.head =
             (if Dd_util.Prng.bool rng then Some vars.(Dd_util.Prng.int_below rng n)
              else None);
           bodies = Array.init (1 + Dd_util.Prng.int_below rng 3) (fun _ -> body ());
           weight_id = w;
           semantics =
             Dd_util.Prng.choice rng [| Semantics.Linear; Semantics.Logical; Semantics.Ratio |];
         })
  done;
  g

(* Graphs that exercise every token of the text format: multi-digit
   ids, both evidence values, heads [None] and [Some], empty and negated
   bodies, non-learnable weights, and weights whose [%.17g] rendering is
   unusual ([-0.], subnormal-adjacent, inexact decimals, infinities). *)
let text_graph seed =
  let rng = Dd_util.Prng.create seed in
  let g = Graph.create () in
  let n = 1 + Dd_util.Prng.int_below rng 200 in
  ignore (Graph.add_vars g n);
  for v = 0 to n - 1 do
    if Dd_util.Prng.bernoulli rng 0.3 then
      Graph.set_evidence g v (Graph.Evidence (Dd_util.Prng.bool rng))
  done;
  let special =
    [| -0.; 0.; 1e-300; -1e-300; 0.1; 1. /. 3.; 1e300; -2.5; 4.9e-324; infinity; neg_infinity |]
  in
  let nweights = 1 + Dd_util.Prng.int_below rng 30 in
  for _ = 1 to nweights do
    let value =
      if Dd_util.Prng.bool rng then Dd_util.Prng.choice rng special
      else Dd_util.Prng.float_range rng (-1e4) 1e4
    in
    ignore (Graph.add_weight ~learnable:(Dd_util.Prng.bool rng) g value)
  done;
  let lit () = { Graph.var = Dd_util.Prng.int_below rng n; negated = Dd_util.Prng.bool rng } in
  for _ = 1 to Dd_util.Prng.int_below rng 60 do
    ignore
      (Graph.add_factor g
         {
           Graph.head =
             (if Dd_util.Prng.bool rng then Some (Dd_util.Prng.int_below rng n) else None);
           bodies =
             Array.init (Dd_util.Prng.int_below rng 4) (fun _ ->
                 Array.init (Dd_util.Prng.int_below rng 4) (fun _ -> lit ()));
           weight_id = Dd_util.Prng.int_below rng nweights;
           semantics = Dd_util.Prng.choice rng (Array.of_list Semantics.all);
         })
  done;
  g

(* The footer is compared as the exact lowercase rendering: flipping
   bit 5 of a hex letter (a -> A) is a single flipped byte like any
   other, and must not load. *)
let test_serialize_rejects_case_flipped_checksum () =
  let flipped = ref 0 in
  List.iter
    (fun g ->
      let text = Serialize.to_string g in
      let i = find_sub text "checksum " + String.length "checksum " in
      for j = i to i + 7 do
        match text.[j] with
        | 'a' .. 'f' ->
          let b = Bytes.of_string text in
          Bytes.set b j (Char.chr (Char.code text.[j] lxor 0x20));
          incr flipped;
          expect_format_error
            (Printf.sprintf "footer %s" (Bytes.sub_string b i 8))
            (Bytes.to_string b)
        | _ -> ()
      done)
    (rich_graph () :: List.init 8 text_graph);
  Alcotest.(check bool) "some footer letters flipped" true (!flipped > 0)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"writer bytes = Printf oracle, and round-trip" ~count:200 small_int
      (fun seed ->
        let g = text_graph seed in
        let text = Serialize.to_string g in
        text = Dd_oracle.Ddgraph_printf.to_string g
        && Serialize.to_string (Serialize.of_string text) = text);
    Test.make ~name:"serialization roundtrip (random graphs)" ~count:100 small_int
      (fun seed ->
        let g = random_graph seed in
        let back = Serialize.of_string (Serialize.to_string g) in
        graphs_equivalent g back);
    Test.make ~name:"serialization preserves energies" ~count:50 small_int (fun seed ->
        let g = random_graph seed in
        let back = Serialize.of_string (Serialize.to_string g) in
        let rng = Dd_util.Prng.create (seed + 1) in
        let world = Array.init (Graph.num_vars g) (fun _ -> Dd_util.Prng.bool rng) in
        abs_float
          (Graph.total_energy g (fun v -> world.(v))
          -. Graph.total_energy back (fun v -> world.(v)))
        < 1e-9);
    Test.make ~name:"g monotone in n" ~count:200
      (pair (oneofl Semantics.all) (int_range 0 1000))
      (fun (s, n) -> Semantics.g s (n + 1) >= Semantics.g s n);
    Test.make ~name:"voting closed form in [0,1]" ~count:100
      (triple (int_range 0 50) (int_range 0 50) (oneofl Semantics.all))
      (fun (up, down, semantics) ->
        let p =
          Voting.exact_marginal_q
            { Voting.default with Voting.n_up = up; n_down = down; semantics }
        in
        p >= 0.0 && p <= 1.0);
    Test.make ~name:"more up votes never lower P(q)" ~count:100
      (pair (int_range 1 30) (oneofl Semantics.all))
      (fun (n, semantics) ->
        let p k =
          Voting.exact_marginal_q
            { Voting.default with Voting.n_up = k; n_down = n; semantics }
        in
        p (n + 5) >= p n -. 1e-9);
  ]

let () =
  Alcotest.run "dd_fgraph"
    [
      ( "semantics",
        [
          Alcotest.test_case "g values" `Quick test_semantics_values;
          Alcotest.test_case "strings" `Quick test_semantics_strings;
        ] );
      ( "graph",
        [
          Alcotest.test_case "vars/weights" `Quick test_graph_vars_weights;
          Alcotest.test_case "factor validation" `Quick test_graph_add_factor_validation;
          Alcotest.test_case "adjacency" `Quick test_graph_adjacency;
          Alcotest.test_case "vars_of_factor" `Quick test_vars_of_factor_distinct;
          Alcotest.test_case "energy signs" `Quick test_factor_energy_signs;
          Alcotest.test_case "energy counting" `Quick test_factor_energy_counting;
          Alcotest.test_case "negated literal" `Quick test_negated_literal;
          Alcotest.test_case "empty bodies" `Quick test_empty_body_always_satisfied;
          Alcotest.test_case "extend factor" `Quick test_extend_factor;
          Alcotest.test_case "copy" `Quick test_graph_copy_independent;
          Alcotest.test_case "total energy" `Quick test_total_energy;
          Alcotest.test_case "degree/freeze" `Quick test_degrees_and_freeze;
        ] );
      ( "exact",
        [
          Alcotest.test_case "single unary" `Quick test_exact_single_unary;
          Alcotest.test_case "pairwise hand-computed" `Quick test_exact_pairwise_hand_computed;
          Alcotest.test_case "evidence conditioning" `Quick test_exact_evidence_conditioning;
          Alcotest.test_case "normalized" `Quick test_exact_probabilities_sum_to_one;
          Alcotest.test_case "size guard" `Quick test_exact_size_guard;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "distribution preserved" `Quick test_serialize_preserves_distribution;
          Alcotest.test_case "file roundtrip" `Quick test_serialize_file_roundtrip;
          Alcotest.test_case "empty graph" `Quick test_serialize_empty_graph;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
          Alcotest.test_case "rejects truncation" `Quick test_serialize_rejects_truncation;
          Alcotest.test_case "rejects flipped byte" `Quick test_serialize_rejects_flipped_byte;
          Alcotest.test_case "rejects forged checksum" `Quick
            test_serialize_rejects_forged_checksum;
          Alcotest.test_case "rejects case-flipped checksum" `Quick
            test_serialize_rejects_case_flipped_checksum;
          Alcotest.test_case "rejects duplicate end" `Quick
            test_serialize_rejects_duplicate_end;
          Alcotest.test_case "rejects out-of-range refs" `Quick
            test_serialize_rejects_out_of_range_refs;
          Alcotest.test_case "graph validate" `Quick test_graph_validate;
        ] );
      ( "voting",
        [
          Alcotest.test_case "symmetric half" `Quick test_voting_symmetric_is_half;
          Alcotest.test_case "example 2.5" `Quick test_voting_example_2_5;
          Alcotest.test_case "logical ignores magnitude" `Quick test_voting_logical_ignores_magnitude;
          Alcotest.test_case "matches enumeration" `Quick test_voting_closed_form_matches_enumeration;
          Alcotest.test_case "log choose" `Quick test_log_choose;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
