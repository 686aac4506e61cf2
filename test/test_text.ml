(* Tests for Dd_text: tokenizer, dictionary mention finder and feature
   extractors — and the raw-document loader built on them in Dd_kbc. *)

module Tokenizer = Dd_text.Tokenizer
module Mention_finder = Dd_text.Mention_finder
module Features = Dd_text.Features
module Nlp_load = Dd_kbc.Nlp_load
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation

(* --- tokenizer ------------------------------------------------------------ *)

let token_texts tokens = List.map (fun t -> t.Tokenizer.text) tokens
let texts s = token_texts (Tokenizer.tokenize s)

let test_tokenize_words () =
  Alcotest.(check (list string)) "words" [ "a"; "b"; "cd" ] (texts "a b  cd")

let test_tokenize_punctuation () =
  Alcotest.(check (list string)) "punct split" [ "Hi"; ","; "Bob"; "." ] (texts "Hi, Bob.")

let test_tokenize_offsets () =
  let tokens = Tokenizer.tokenize "ab  cd" in
  let second = List.nth tokens 1 in
  Alcotest.(check int) "start" 4 second.Tokenizer.start_offset;
  Alcotest.(check int) "end" 6 second.Tokenizer.end_offset;
  Alcotest.(check int) "index" 1 second.Tokenizer.index;
  (* Offsets slice back to the token text. *)
  Alcotest.(check string) "slice" "cd" (String.sub "ab  cd" 4 2)

let test_tokenize_empty () =
  Alcotest.(check (list string)) "empty" [] (texts "");
  Alcotest.(check (list string)) "spaces" [] (texts "   ")

let test_sentences_split () =
  let s = Tokenizer.sentences "One two. Three four! Five" in
  Alcotest.(check (list string)) "three sentences" [ "One two."; "Three four!"; "Five" ]
    (List.map snd s);
  (* Offsets point at the sentence starts in the original. *)
  Alcotest.(check int) "second offset" 9 (fst (List.nth s 1))

let test_sentences_no_split_inside_word () =
  (* A period not followed by whitespace (e.g. decimals) keeps going. *)
  let s = Tokenizer.sentences "pi is 3.14 ok. done" in
  Alcotest.(check int) "two sentences" 2 (List.length s)

let test_normalize () =
  Alcotest.(check string) "lowercase" "obama" (Tokenizer.normalize "Obama");
  Alcotest.(check string) "strip edges" "x1" (Tokenizer.normalize "(x1),");
  Alcotest.(check string) "all punct" "" (Tokenizer.normalize "..!")

let test_slice () =
  let tokens = Tokenizer.tokenize "a b c d" in
  Alcotest.(check (list string)) "middle" [ "b"; "c" ]
    (token_texts (Tokenizer.slice tokens 1 3))

(* --- mention finder ---------------------------------------------------------- *)

let find_in dict sentence = Mention_finder.find dict (Tokenizer.tokenize sentence)

let people = [ "Barack Obama"; "Michelle Obama"; "Obama"; "Angela Merkel" ]

let test_find_single_token () =
  let dict = Mention_finder.dictionary [ "Merkel" ] in
  let found = find_in dict "Chancellor Merkel spoke" in
  Alcotest.(check int) "one" 1 (List.length found);
  Alcotest.(check string) "surface" "Merkel" (List.hd found).Mention_finder.surface

let test_find_longest_match () =
  (* "Barack Obama" must win over the shorter "Obama". *)
  let dict = Mention_finder.dictionary people in
  let found = find_in dict "Barack Obama met Angela Merkel" in
  Alcotest.(check (list string)) "two mentions" [ "Barack Obama"; "Angela Merkel" ]
    (List.map (fun m -> m.Mention_finder.surface) found)

let test_find_case_insensitive () =
  let dict = Mention_finder.dictionary [ "Barack Obama" ] in
  let found = find_in dict "BARACK OBAMA waved" in
  Alcotest.(check int) "found" 1 (List.length found);
  (* Surface preserves the original casing. *)
  Alcotest.(check string) "surface" "BARACK OBAMA" (List.hd found).Mention_finder.surface

let test_find_no_overlap () =
  let dict = Mention_finder.dictionary [ "a b"; "b c" ] in
  let found = find_in dict "a b c" in
  Alcotest.(check (list string)) "greedy left-to-right" [ "a b" ]
    (List.map (fun m -> m.Mention_finder.surface) found)

let test_find_token_spans () =
  let dict = Mention_finder.dictionary [ "Barack Obama" ] in
  let found = find_in dict "today Barack Obama spoke" in
  let m = List.hd found in
  Alcotest.(check int) "first token" 1 m.Mention_finder.first_token;
  Alcotest.(check int) "last token" 2 m.Mention_finder.last_token

let test_add_name_after_build () =
  let dict = Mention_finder.dictionary [] in
  Alcotest.(check bool) "new" true (Mention_finder.add_name dict "New Entity");
  let found = find_in dict "the New Entity appeared" in
  Alcotest.(check int) "found" 1 (List.length found)

let test_dictionary_dedups_names () =
  (* Regression: names colliding under case normalization are stored once. *)
  let dict = Mention_finder.dictionary [ "Obama"; "OBAMA"; "obama."; "Obama" ] in
  Alcotest.(check int) "one entry" 1 (Mention_finder.size dict);
  Alcotest.(check bool) "duplicate rejected" false (Mention_finder.add_name dict "oBaMa");
  Alcotest.(check bool) "fresh accepted" true (Mention_finder.add_name dict "Merkel");
  Alcotest.(check bool) "then duplicate" false (Mention_finder.add_name dict "MERKEL");
  Alcotest.(check int) "two entries" 2 (Mention_finder.size dict);
  Alcotest.(check bool) "mem normalized" true (Mention_finder.mem dict "OBAMA");
  Alcotest.(check bool) "mem fresh" false (Mention_finder.mem dict "Biden");
  (* Still exactly one mention per occurrence. *)
  let found = find_in dict "Obama met OBAMA" in
  Alcotest.(check int) "no duplicate matches" 2 (List.length found)

let test_add_name_rejects_empty () =
  let dict = Mention_finder.dictionary [ "..."; "!!" ] in
  Alcotest.(check int) "nothing stored" 0 (Mention_finder.size dict);
  Alcotest.(check bool) "empty rejected" false (Mention_finder.add_name dict "");
  Alcotest.(check bool) "punct-only rejected" false (Mention_finder.add_name dict "?!")

let test_normalize_name () =
  Alcotest.(check string) "case+spacing" "barack obama"
    (Mention_finder.normalize_name "  BARACK   Obama. ");
  Alcotest.(check string) "empty" "" (Mention_finder.normalize_name "..!")

let test_find_empty_document () =
  let dict = Mention_finder.dictionary people in
  Alcotest.(check int) "empty string" 0 (List.length (find_in dict ""));
  Alcotest.(check int) "whitespace" 0 (List.length (find_in dict "   "));
  Alcotest.(check (list string)) "no sentences" [] (List.map snd (Tokenizer.sentences ""))

let test_find_punctuation_only () =
  let dict = Mention_finder.dictionary people in
  Alcotest.(check int) "punct only" 0 (List.length (find_in dict "... !! ,"));
  (* A punctuation-only sentence inside a document tokenizes but yields
     no mentions. *)
  List.iter
    (fun (_, sentence) ->
      ignore (Mention_finder.find dict (Tokenizer.tokenize sentence)))
    (Tokenizer.sentences "... ! Obama spoke. ?!")

let test_find_overlapping_multitoken () =
  (* Chained overlapping multi-token names: greedy longest from the left,
     then continue after the match. *)
  let dict = Mention_finder.dictionary [ "a b c"; "b c d"; "c d"; "d e" ] in
  let found = find_in dict "a b c d e" in
  Alcotest.(check (list string)) "left longest then rest" [ "a b c"; "d e" ]
    (List.map (fun m -> m.Mention_finder.surface) found);
  (* A name that is a prefix of a longer one: longest wins at the site. *)
  let dict = Mention_finder.dictionary [ "New York"; "New York City" ] in
  let found = find_in dict "in New York City today" in
  Alcotest.(check (list string)) "longest wins" [ "New York City" ]
    (List.map (fun m -> m.Mention_finder.surface) found)

(* --- features ------------------------------------------------------------------ *)

let pair_ctx sentence =
  let dict = Mention_finder.dictionary [ "Barack Obama"; "Michelle Obama" ] in
  let tokens = Tokenizer.tokenize sentence in
  match Mention_finder.find dict tokens with
  | [ m1; m2 ] -> Features.{ tokens; m1; m2 }
  | other -> Alcotest.failf "expected 2 mentions, found %d" (List.length other)

let test_phrase_between () =
  let ctx = pair_ctx "Barack Obama and his wife Michelle Obama" in
  Alcotest.(check (option string)) "phrase" (Some "and_his_wife")
    (Features.phrase_between ctx)

let test_phrase_between_empty_gap () =
  let ctx = pair_ctx "Barack Obama Michelle Obama" in
  Alcotest.(check (option string)) "no gap" None (Features.phrase_between ctx)

let test_phrase_between_too_long () =
  let ctx =
    pair_ctx "Barack Obama one two three four five six seven Michelle Obama"
  in
  Alcotest.(check (option string)) "capped" None (Features.phrase_between ~max_tokens:6 ctx)

let test_distance_bucket () =
  Alcotest.(check string) "adjacent" "dist:adj"
    (Features.mention_distance_bucket (pair_ctx "Barack Obama met Michelle Obama"));
  Alcotest.(check string) "far" "dist:far"
    (Features.mention_distance_bucket
       (pair_ctx "Barack Obama a b c d e f g h Michelle Obama"))

(* --- nlp load -------------------------------------------------------------------- *)

let test_nlp_load_rows () =
  let db = Database.create () in
  let stats =
    Nlp_load.load_documents db
      ~entity_names:[ "Barack Obama"; "Michelle Obama"; "Angela Merkel" ]
      [ (0, "Barack Obama and his wife Michelle Obama met Angela Merkel.") ]
  in
  Alcotest.(check int) "one sentence" 1 stats.Nlp_load.sentences;
  Alcotest.(check int) "three mentions" 3 stats.Nlp_load.mentions_found;
  (* Three mentions -> three unordered pairs. *)
  Alcotest.(check int) "three pairs" 3 stats.Nlp_load.pairs;
  Alcotest.(check int) "sentence rows" 3 (Relation.cardinality (Database.find db "sentence"));
  Alcotest.(check int) "mention rows" 6 (Relation.cardinality (Database.find db "mention"))

let test_nlp_load_phrase_feature () =
  let db = Database.create () in
  ignore
    (Nlp_load.load_documents db
       ~entity_names:[ "Barack Obama"; "Michelle Obama" ]
       [ (0, "Barack Obama and his wife Michelle Obama smiled.") ]);
  let sentence = Database.find db "sentence" in
  let has_phrase = ref false in
  Relation.iter
    (fun t _ ->
      if Dd_relational.Value.equal t.(2) (Dd_relational.Value.Str "and_his_wife") then
        has_phrase := true)
    sentence;
  Alcotest.(check bool) "phrase extracted" true !has_phrase

let test_nlp_load_sid_continuity () =
  let db = Database.create () in
  let first =
    Nlp_load.load_documents db ~entity_names:[ "A B"; "C D" ] [ (0, "A B saw C D.") ]
  in
  let _second =
    Nlp_load.load_documents ~first_sid:first.Nlp_load.pairs db
      ~entity_names:[ "A B"; "C D" ]
      [ (1, "C D saw A B.") ]
  in
  Alcotest.(check int) "two sentence rows, distinct sids" 2
    (Relation.cardinality (Database.find db "sentence"))

(* --- qcheck properties ------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  let word = Gen.oneofl [ "a"; "b"; "c"; "d"; "e"; "Ab"; "b."; "x1" ] in
  let name = Gen.(map (String.concat " ") (list_size (1 -- 3) word)) in
  let scenario = Gen.(pair (list_size (0 -- 8) name) (list_size (0 -- 15) word)) in
  [
    Test.make ~name:"find never returns overlapping spans" ~count:500 (make scenario)
      (fun (names, words) ->
        let dict = Mention_finder.dictionary names in
        let tokens = Tokenizer.tokenize (String.concat " " words) in
        let n = List.length tokens in
        let mentions = Mention_finder.find dict tokens in
        let rec disjoint_sorted = function
          | (a : Mention_finder.mention) :: (b :: _ as rest) ->
            a.Mention_finder.last_token < b.Mention_finder.first_token && disjoint_sorted rest
          | _ -> true
        in
        List.for_all
          (fun (m : Mention_finder.mention) ->
            0 <= m.Mention_finder.first_token
            && m.Mention_finder.first_token <= m.Mention_finder.last_token
            && m.Mention_finder.last_token < n)
          mentions
        && disjoint_sorted mentions);
    Test.make ~name:"dictionary size counts normalized names" ~count:300
      (make Gen.(list_size (0 -- 12) name))
      (fun names ->
        let dict = Mention_finder.dictionary names in
        let distinct =
          List.sort_uniq compare
            (List.filter (fun k -> k <> "") (List.map Mention_finder.normalize_name names))
        in
        Mention_finder.size dict = List.length distinct
        (* Re-adding anything already given is always a no-op. *)
        && List.for_all (fun n -> not (Mention_finder.add_name dict n)) names);
  ]

let () =
  Alcotest.run "dd_text"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "words" `Quick test_tokenize_words;
          Alcotest.test_case "punctuation" `Quick test_tokenize_punctuation;
          Alcotest.test_case "offsets" `Quick test_tokenize_offsets;
          Alcotest.test_case "empty" `Quick test_tokenize_empty;
          Alcotest.test_case "sentences" `Quick test_sentences_split;
          Alcotest.test_case "decimals" `Quick test_sentences_no_split_inside_word;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "slice" `Quick test_slice;
        ] );
      ( "mentions",
        [
          Alcotest.test_case "single token" `Quick test_find_single_token;
          Alcotest.test_case "longest match" `Quick test_find_longest_match;
          Alcotest.test_case "case insensitive" `Quick test_find_case_insensitive;
          Alcotest.test_case "no overlap" `Quick test_find_no_overlap;
          Alcotest.test_case "token spans" `Quick test_find_token_spans;
          Alcotest.test_case "add name" `Quick test_add_name_after_build;
          Alcotest.test_case "dedup names" `Quick test_dictionary_dedups_names;
          Alcotest.test_case "reject empty names" `Quick test_add_name_rejects_empty;
          Alcotest.test_case "normalize_name" `Quick test_normalize_name;
          Alcotest.test_case "empty document" `Quick test_find_empty_document;
          Alcotest.test_case "punctuation only" `Quick test_find_punctuation_only;
          Alcotest.test_case "overlapping multi-token" `Quick test_find_overlapping_multitoken;
        ] );
      ( "features",
        [
          Alcotest.test_case "phrase between" `Quick test_phrase_between;
          Alcotest.test_case "empty gap" `Quick test_phrase_between_empty_gap;
          Alcotest.test_case "too long" `Quick test_phrase_between_too_long;
          Alcotest.test_case "distance bucket" `Quick test_distance_bucket;
        ] );
      ( "nlp_load",
        [
          Alcotest.test_case "rows" `Quick test_nlp_load_rows;
          Alcotest.test_case "phrase feature" `Quick test_nlp_load_phrase_feature;
          Alcotest.test_case "sid continuity" `Quick test_nlp_load_sid_continuity;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
