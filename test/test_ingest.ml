(* Tests for Dd_ingest: deterministic document streams, micro-batching,
   cross-document entity canonicalization, and the feed that drives
   arriving batches through the transactional supervisor. *)

module Source = Dd_ingest.Source
module Batcher = Dd_ingest.Batcher
module Canonicalizer = Dd_ingest.Canonicalizer
module Feed = Dd_ingest.Feed
module Pipeline = Dd_kbc.Pipeline
module Checkpoint = Dd_kbc.Checkpoint
module Engine = Dd_core.Engine
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Txn = Dd_core.Txn
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Value = Dd_relational.Value

(* --- source ---------------------------------------------------------------- *)

let small_config =
  { Source.default with Source.docs = 30; entities = 8; relations = 2; seed = 5 }

let drain source =
  let rec go acc = match Source.next source with None -> List.rev acc | Some d -> go (d :: acc) in
  go []

let payload_fingerprint = function
  | Source.Text { text; names; aliases } ->
    text ^ "|" ^ String.concat "," names ^ "|"
    ^ String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) aliases)

let test_source_deterministic () =
  let a = drain (Source.synthetic small_config) in
  let b = drain (Source.synthetic small_config) in
  Alcotest.(check int) "count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Source.doc) (y : Source.doc) ->
      Alcotest.(check int) "id" x.Source.id y.Source.id;
      Alcotest.(check (float 0.0)) "arrival" x.Source.arrival_s y.Source.arrival_s;
      Alcotest.(check string) "payload" (payload_fingerprint x.Source.payload)
        (payload_fingerprint y.Source.payload))
    a b

let test_source_arrivals_increase () =
  let docs = drain (Source.synthetic small_config) in
  Alcotest.(check int) "total" small_config.Source.docs (List.length docs);
  let rec check = function
    | a :: (b : Source.doc) :: rest ->
      Alcotest.(check bool) "monotone" true (a.Source.arrival_s < b.Source.arrival_s);
      check (b :: rest)
    | _ -> ()
  in
  check docs

let test_source_seed_changes_stream () =
  let a = drain (Source.synthetic small_config) in
  let b = drain (Source.synthetic { small_config with Source.seed = 6 }) in
  let fp docs =
    String.concat "\n" (List.map (fun (d : Source.doc) -> payload_fingerprint d.Source.payload) docs)
  in
  Alcotest.(check bool) "different" true (fp a <> fp b)

(* --- batcher --------------------------------------------------------------- *)

let doc id arrival_s =
  { Source.id; arrival_s; payload = Source.Text { text = ""; names = []; aliases = [] } }

let test_batcher_count_trigger () =
  let b = Batcher.create ~max_docs:3 ~max_delay_s:10.0 () in
  Alcotest.(check bool) "no batch" true (Batcher.push b (doc 0 0.01) = None);
  Alcotest.(check bool) "no batch" true (Batcher.push b (doc 1 0.02) = None);
  match Batcher.push b (doc 2 0.03) with
  | None -> Alcotest.fail "expected a count-triggered batch"
  | Some batch ->
    Alcotest.(check int) "docs" 3 (List.length batch.Batcher.docs);
    Alcotest.(check bool) "trigger" true (batch.Batcher.trigger = Batcher.Count);
    Alcotest.(check (float 1e-9)) "ready" 0.03 batch.Batcher.ready_s;
    Alcotest.(check int) "drained buffer" 0 (Batcher.pending b)

let test_batcher_deadline_trigger () =
  let b = Batcher.create ~max_docs:100 ~max_delay_s:0.05 () in
  Alcotest.(check bool) "buffered" true (Batcher.push b (doc 0 1.0) = None);
  (* The next arrival lands past the first doc's deadline: the buffered
     batch closes at the deadline, the newcomer stays pending. *)
  (match Batcher.push b (doc 1 1.2) with
  | None -> Alcotest.fail "expected a deadline-triggered batch"
  | Some batch ->
    Alcotest.(check int) "docs" 1 (List.length batch.Batcher.docs);
    Alcotest.(check bool) "trigger" true (batch.Batcher.trigger = Batcher.Deadline);
    Alcotest.(check (float 1e-9)) "ready at deadline" 1.05 batch.Batcher.ready_s);
  Alcotest.(check int) "newcomer pending" 1 (Batcher.pending b)

let test_batcher_due_and_drain () =
  let b = Batcher.create ~max_docs:100 ~max_delay_s:0.05 () in
  ignore (Batcher.push b (doc 0 1.0));
  Alcotest.(check bool) "not due yet" true (Batcher.due b ~now_s:1.02 = None);
  (match Batcher.due b ~now_s:1.06 with
  | Some batch -> Alcotest.(check bool) "deadline" true (batch.Batcher.trigger = Batcher.Deadline)
  | None -> Alcotest.fail "expected due batch");
  Alcotest.(check bool) "empty drain" true (Batcher.drain b = None);
  ignore (Batcher.push b (doc 1 2.0));
  match Batcher.drain b with
  | Some batch ->
    Alcotest.(check bool) "drain trigger" true (batch.Batcher.trigger = Batcher.Drain);
    Alcotest.(check int) "one doc" 1 (List.length batch.Batcher.docs)
  | None -> Alcotest.fail "expected drained batch"

(* --- canonicalizer --------------------------------------------------------- *)

let test_canon_observe_case_insensitive () =
  let c = Canonicalizer.create () in
  let r1 = Canonicalizer.observe c "Barack Obama" in
  Alcotest.(check bool) "fresh" true r1.Canonicalizer.fresh_entity;
  Alcotest.(check string) "key" "barack obama" r1.Canonicalizer.key;
  Alcotest.(check string) "entity" "ent:barack obama" r1.Canonicalizer.entity;
  let r2 = Canonicalizer.observe c "BARACK  OBAMA." in
  Alcotest.(check bool) "not fresh" false r2.Canonicalizer.fresh_key;
  Alcotest.(check string) "same entity" r1.Canonicalizer.entity r2.Canonicalizer.entity;
  Alcotest.(check int) "one entity" 1 (Canonicalizer.entities c)

let test_canon_alias_before_observation () =
  let c = Canonicalizer.create () in
  (* Both sides unseen: growth, not a merge event. *)
  Alcotest.(check bool) "no merge" true (Canonicalizer.declare_alias c "Bo" "Barack Obama" = None);
  let r = Canonicalizer.observe c "bo" in
  Alcotest.(check string) "routes to first-registered" "ent:bo" r.Canonicalizer.entity;
  Alcotest.(check string) "other side too" "ent:bo"
    (Canonicalizer.observe c "Barack Obama").Canonicalizer.entity;
  Alcotest.(check int) "one entity" 1 (Canonicalizer.entities c)

let test_canon_late_alias_merges () =
  let c = Canonicalizer.create () in
  let a = Canonicalizer.observe c "Barack Obama" in
  let b = Canonicalizer.observe c "Obama" in
  Alcotest.(check bool) "distinct" true (a.Canonicalizer.entity <> b.Canonicalizer.entity);
  (match Canonicalizer.declare_alias c "obama" "BARACK OBAMA" with
  | None -> Alcotest.fail "expected a merge of two established entities"
  | Some m ->
    Alcotest.(check string) "older id wins" "ent:barack obama" m.Canonicalizer.winner;
    Alcotest.(check string) "younger id loses" "ent:obama" m.Canonicalizer.loser;
    Alcotest.(check (list string)) "loser keys" [ "obama" ] m.Canonicalizer.loser_keys);
  Alcotest.(check (option string)) "rebound" (Some "ent:barack obama")
    (Canonicalizer.resolve c "Obama");
  Alcotest.(check int) "one entity" 1 (Canonicalizer.entities c);
  (* Replaying the alias is idempotent. *)
  Alcotest.(check bool) "idempotent" true (Canonicalizer.declare_alias c "Obama" "Barack Obama" = None)

let test_canon_winner_stability () =
  let c = Canonicalizer.create () in
  List.iter (fun s -> ignore (Canonicalizer.observe c s)) [ "A One"; "B Two"; "C Three" ];
  (match Canonicalizer.declare_alias c "B Two" "C Three" with
  | Some m -> Alcotest.(check string) "earlier of the pair" "ent:b two" m.Canonicalizer.winner
  | None -> Alcotest.fail "expected merge");
  (match Canonicalizer.declare_alias c "C Three" "A One" with
  | Some m ->
    Alcotest.(check string) "global earliest wins" "ent:a one" m.Canonicalizer.winner;
    Alcotest.(check string) "combined set loses its id" "ent:b two" m.Canonicalizer.loser;
    Alcotest.(check (list string)) "both keys rebind" [ "b two"; "c three" ]
      m.Canonicalizer.loser_keys
  | None -> Alcotest.fail "expected merge");
  List.iter
    (fun s ->
      Alcotest.(check (option string)) s (Some "ent:a one") (Canonicalizer.resolve c s))
    [ "A One"; "B Two"; "C Three" ];
  Alcotest.(check (list string)) "members" [ "a one"; "b two"; "c three" ]
    (Canonicalizer.members c "ent:a one")

let populated_canonicalizer () =
  let c = Canonicalizer.create () in
  List.iter
    (fun s -> ignore (Canonicalizer.observe c s))
    [ "First1 Last1"; "Last2"; "Nick3"; "FIRST1 LAST1"; "First2 Last2" ];
  ignore (Canonicalizer.declare_alias c "Last2" "First2 Last2");
  ignore (Canonicalizer.declare_alias c "Nick3" "First3 Last3");
  c

let test_canon_encode_roundtrip () =
  let c = populated_canonicalizer () in
  let encoded = Canonicalizer.encode c in
  match Canonicalizer.decode encoded with
  | Error m -> Alcotest.fail ("decode failed: " ^ m)
  | Ok c' ->
    Alcotest.(check string) "byte-identical re-encode" encoded (Canonicalizer.encode c');
    Alcotest.(check int) "entities" (Canonicalizer.entities c) (Canonicalizer.entities c');
    Alcotest.(check (list string)) "keys in order" (Canonicalizer.all_keys c)
      (Canonicalizer.all_keys c');
    List.iter
      (fun key ->
        Alcotest.(check (option string)) key (Canonicalizer.resolve c key)
          (Canonicalizer.resolve c' key))
      (Canonicalizer.all_keys c)

let test_canon_decode_rejects_corruption () =
  let encoded = Canonicalizer.encode (populated_canonicalizer ()) in
  (* Flip one payload byte: the CRC gate must catch it. *)
  let corrupt = Bytes.of_string encoded in
  let i = String.index encoded '\n' + 3 in
  Bytes.set corrupt i (if Bytes.get corrupt i = 'x' then 'y' else 'x');
  (match Canonicalizer.decode (Bytes.to_string corrupt) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted payload must not decode");
  (match Canonicalizer.decode (String.sub encoded 0 (String.length encoded - 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload must not decode");
  match Canonicalizer.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty payload must not decode"

(* --- feed ------------------------------------------------------------------ *)

let test_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 120;
    inference_chain = 60;
    initial_learning_epochs = 8;
    incremental_learning_epochs = 3;
  }

let feed_program () =
  Program.add_rules
    (Pipeline.base_program ())
    (Pipeline.rules_of Pipeline.FE1 @ Pipeline.rules_of Pipeline.S1)

let make_feed ?(canonicalize = true) source =
  let db = Database.create () in
  Feed.prepare_database db source;
  let engine = Engine.create ~options:test_options db (feed_program ()) in
  let txn = Txn.create engine in
  (txn, Feed.create ~canonicalize txn)

let el_rows txn =
  let db = Grounding.database (Engine.grounding (Txn.engine txn)) in
  match Database.find_opt db "el" with
  | None -> []
  | Some rel ->
    let rows = ref [] in
    Relation.iter
      (fun tuple _ ->
        match (tuple.(0), tuple.(1)) with
        | Value.Str key, Value.Str eid -> rows := (key, eid) :: !rows
        | _ -> ())
      rel;
    List.sort compare !rows

let text_doc id arrival_s ?(names = []) ?(aliases = []) text =
  { Source.id; arrival_s; payload = Source.Text { text; names; aliases } }

let batch ?(ready_s = 0.0) docs = { Batcher.docs; ready_s; trigger = Batcher.Drain }

let test_feed_merges_not_forks () =
  let cfg = { small_config with Source.docs = 20 } in
  let txn, feed = make_feed (Source.synthetic cfg) in
  let summary = Feed.run feed (Source.synthetic cfg) (Batcher.create ~max_docs:4 ()) in
  Alcotest.(check int) "all docs" 20 summary.Feed.run_docs;
  Alcotest.(check int) "no quarantine" 0 summary.Feed.run_quarantined;
  let canon_entities = Feed.entities_bound feed in
  let _, feed_raw = make_feed ~canonicalize:false (Source.synthetic cfg) in
  let raw = Feed.run feed_raw (Source.synthetic cfg) (Batcher.create ~max_docs:4 ()) in
  Alcotest.(check int) "no quarantine raw" 0 raw.Feed.run_quarantined;
  Alcotest.(check bool) "canonicalization merges entities" true
    (canon_entities < Feed.entities_bound feed_raw);
  Alcotest.(check bool) "not fewer than truth" true
    (canon_entities >= Source.true_entities (Source.synthetic cfg));
  (* Every [el] row in the engine links a key to its current canonical id. *)
  let c = Feed.canonicalizer feed in
  let rows = el_rows txn in
  Alcotest.(check bool) "el populated" true (rows <> []);
  List.iter
    (fun (key, eid) ->
      Alcotest.(check (option string)) key (Some eid) (Canonicalizer.resolve c key))
    rows;
  Alcotest.(check bool) "latencies recorded" true
    (Array.length summary.Feed.latencies_s = 20)

(* Every batch of a stream only appends variables and factors over them,
   or moves evidence, so the engine extends the kernel it compiled at
   create and never compiles another. *)
let test_feed_extends_kernel () =
  let cfg = { Source.default with Source.docs = 48; entities = 6; seed = 7 } in
  let txn, feed = make_feed (Source.synthetic cfg) in
  let summary = Feed.run feed (Source.synthetic cfg) (Batcher.create ()) in
  Alcotest.(check int) "all docs" 48 summary.Feed.run_docs;
  Alcotest.(check int) "no quarantine" 0 summary.Feed.run_quarantined;
  Alcotest.(check int) "one compile" 1 (Engine.kernel_compiles (Txn.engine txn))

let test_feed_late_alias_retracts () =
  let source = Source.synthetic { small_config with Source.docs = 2 } in
  let txn, feed = make_feed source in
  (* Establish two distinct entities, then a late alias merges them. *)
  let r1 =
    Feed.ingest feed
      (batch [ text_doc 0 0.0 ~names:[ "First9 Last9"; "Last8" ] "First9 Last9 r0_cue0 Last8." ])
  in
  (match r1.Feed.outcome with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("batch 1 failed: " ^ Txn.error_message e));
  Alcotest.(check int) "no merges yet" 0 r1.Feed.merges;
  let rows = el_rows txn in
  Alcotest.(check (list (pair string string)))
    "forked bindings"
    [ ("first9 last9", "ent:first9 last9"); ("last8", "ent:last8") ]
    rows;
  let r2 =
    Feed.ingest feed
      (batch ~ready_s:0.1
         [ text_doc 1 0.1 ~aliases:[ ("Last8", "First9 Last9") ] "Last8 r0_cue1 First9 Last9." ])
  in
  (match r2.Feed.outcome with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("batch 2 failed: " ^ Txn.error_message e));
  Alcotest.(check int) "one merge" 1 r2.Feed.merges;
  let stats = Feed.stats feed in
  Alcotest.(check int) "one retract" 1 stats.Feed.el_retracts;
  Alcotest.(check (list (pair string string)))
    "rebound to the older id"
    [ ("first9 last9", "ent:first9 last9"); ("last8", "ent:first9 last9") ]
    (el_rows txn);
  Alcotest.(check int) "one entity" 1 (Feed.entities_bound feed)

let test_feed_state_roundtrip () =
  let cfg = { small_config with Source.docs = 12 } in
  let _, feed = make_feed (Source.synthetic cfg) in
  ignore (Feed.run feed (Source.synthetic cfg) (Batcher.create ()));
  let encoded = Feed.encode_state feed in
  match Feed.decode_state encoded with
  | Error m -> Alcotest.fail ("feed state did not decode: " ^ m)
  | Ok (sid, canon) ->
    Alcotest.(check bool) "sid advanced" true (sid > 0);
    Alcotest.(check int) "entities preserved" (Canonicalizer.entities (Feed.canonicalizer feed))
      (Canonicalizer.entities canon);
    Alcotest.(check string) "re-encode byte-identical" (Canonicalizer.encode (Feed.canonicalizer feed))
      (Canonicalizer.encode canon)

(* --- checkpoint sidecar blobs + recovery ----------------------------------- *)

let scratch name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("dd_ingest_" ^ name) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let test_blob_roundtrip () =
  let store = Checkpoint.open_store (scratch "blob") in
  Alcotest.(check bool) "missing is None" true (Checkpoint.load_blob store ~name:"nope" = Ok None);
  let content = "line one\nline two\x00binary" in
  Checkpoint.save_blob store ~name:"thing" content;
  (match Checkpoint.load_blob store ~name:"thing" with
  | Ok (Some got) -> Alcotest.(check string) "byte-exact" content got
  | _ -> Alcotest.fail "expected saved blob back");
  Checkpoint.save_blob store ~name:"thing" "replaced";
  (match Checkpoint.load_blob store ~name:"thing" with
  | Ok (Some got) -> Alcotest.(check string) "overwritten" "replaced" got
  | _ -> Alcotest.fail "expected replacement blob");
  (try
     Checkpoint.save_blob store ~name:"../escape" "x";
     Alcotest.fail "bad name must be rejected"
   with Invalid_argument _ -> ());
  (* Corrupt the file on disk: load must fail the CRC gate. *)
  let path = Filename.concat (scratch "blob") "BLOB_thing" in
  let oc = open_out_bin path in
  output_string oc "ddblob 2 8 00000000\nreplaced\n";
  close_out oc;
  match Checkpoint.load_blob store ~name:"thing" with
  | Error (Checkpoint.Corrupt _) -> ()
  | _ -> Alcotest.fail "corrupt blob must be an error"

let test_recovery_preserves_canonical_ids () =
  let cfg = { small_config with Source.docs = 16 } in
  let txn, feed = make_feed (Source.synthetic cfg) in
  let summary = Feed.run feed (Source.synthetic cfg) (Batcher.create ()) in
  Alcotest.(check int) "clean run" 0 summary.Feed.run_quarantined;
  let store = Checkpoint.open_store (scratch "recover") in
  let before = Feed.encode_state feed in
  Checkpoint.save store (Txn.engine txn);
  Checkpoint.save_blob store ~name:"canonicalizer" before;
  match Checkpoint.recover store with
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  | Ok (engine, _) -> (
    match Checkpoint.load_blob store ~name:"canonicalizer" with
    | Ok (Some blob) -> (
      match Feed.decode_state blob with
      | Error m -> Alcotest.fail m
      | Ok state ->
        let txn' = Txn.create engine in
        let feed' = Feed.create ~state txn' in
        Alcotest.(check string) "state bit-exact" before (Feed.encode_state feed');
        Alcotest.(check int) "bindings restored" (Feed.el_bindings feed) (Feed.el_bindings feed');
        Alcotest.(check int) "entities restored" (Feed.entities_bound feed)
          (Feed.entities_bound feed');
        (* The recovered feed keeps assigning the same ids: stream more
           documents into both and compare. *)
        let more = { cfg with Source.seed = cfg.Source.seed + 1; Source.docs = 6 } in
        ignore (Feed.run feed (Source.synthetic more) (Batcher.create ()));
        ignore (Feed.run feed' (Source.synthetic more) (Batcher.create ()));
        Alcotest.(check string) "continuations agree" (Feed.encode_state feed)
          (Feed.encode_state feed'))
    | Ok None -> Alcotest.fail "canonicalizer blob missing"
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e))

(* --- qcheck properties ----------------------------------------------------- *)

let key_pool = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" |]

let qcheck_tests =
  let open QCheck in
  let op =
    Gen.(
      oneof
        [
          map (fun i -> `Observe i) (0 -- (Array.length key_pool - 1));
          map2 (fun i j -> `Alias (i, j)) (0 -- (Array.length key_pool - 1))
            (0 -- (Array.length key_pool - 1));
        ])
  in
  let apply c = function
    | `Observe i -> ignore (Canonicalizer.observe c key_pool.(i))
    | `Alias (i, j) -> if i <> j then ignore (Canonicalizer.declare_alias c key_pool.(i) key_pool.(j))
  in
  [
    Test.make ~name:"canonicalizer members consistent" ~count:300
      (make Gen.(list_size (1 -- 40) op))
      (fun ops ->
        let c = Canonicalizer.create () in
        List.iter (apply c) ops;
        List.for_all
          (fun key ->
            match Canonicalizer.resolve c key with
            | None -> false
            | Some entity ->
              (* Every member of this key's entity resolves to the same id,
                 and the id belongs to the earliest member. *)
              let members = Canonicalizer.members c entity in
              members <> []
              && List.for_all (fun k -> Canonicalizer.resolve c k = Some entity) members
              && entity = "ent:" ^ List.hd members)
          (Canonicalizer.all_keys c));
    Test.make ~name:"canonicalizer encode/decode stable" ~count:200
      (make Gen.(list_size (1 -- 40) op))
      (fun ops ->
        let c = Canonicalizer.create () in
        List.iter (apply c) ops;
        let encoded = Canonicalizer.encode c in
        match Canonicalizer.decode encoded with
        | Error _ -> false
        | Ok c' ->
          Canonicalizer.encode c' = encoded
          && List.for_all
               (fun key -> Canonicalizer.resolve c' key = Canonicalizer.resolve c key)
               (Canonicalizer.all_keys c));
  ]

let () =
  Alcotest.run "dd_ingest"
    [
      ( "source",
        [
          Alcotest.test_case "deterministic" `Quick test_source_deterministic;
          Alcotest.test_case "arrivals increase" `Quick test_source_arrivals_increase;
          Alcotest.test_case "seed changes stream" `Quick test_source_seed_changes_stream;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "count trigger" `Quick test_batcher_count_trigger;
          Alcotest.test_case "deadline trigger" `Quick test_batcher_deadline_trigger;
          Alcotest.test_case "due and drain" `Quick test_batcher_due_and_drain;
        ] );
      ( "canonicalizer",
        [
          Alcotest.test_case "case insensitive" `Quick test_canon_observe_case_insensitive;
          Alcotest.test_case "alias before observation" `Quick test_canon_alias_before_observation;
          Alcotest.test_case "late alias merges" `Quick test_canon_late_alias_merges;
          Alcotest.test_case "winner stability" `Quick test_canon_winner_stability;
          Alcotest.test_case "encode roundtrip" `Quick test_canon_encode_roundtrip;
          Alcotest.test_case "decode rejects corruption" `Quick test_canon_decode_rejects_corruption;
        ] );
      ( "feed",
        [
          Alcotest.test_case "merges not forks" `Quick test_feed_merges_not_forks;
          Alcotest.test_case "late alias retracts" `Quick test_feed_late_alias_retracts;
          Alcotest.test_case "extends the kernel" `Quick test_feed_extends_kernel;
          Alcotest.test_case "state roundtrip" `Quick test_feed_state_roundtrip;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "blob roundtrip" `Quick test_blob_roundtrip;
          Alcotest.test_case "recovery preserves ids" `Quick test_recovery_preserves_canonical_ids;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
