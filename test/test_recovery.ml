(* Tests for checkpoint/recovery: round-trips, corruption detection, WAL
   replay, and the crash–recover–compare property over every fault point
   the Fig-KBC pipeline exercises ([Soak.sweep]). *)

module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Serialize = Dd_fgraph.Serialize
module Fault = Dd_util.Fault
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Checkpoint = Dd_kbc.Checkpoint
module Soak = Dd_kbc.Soak
module Record = Dd_util.Record
module Txn = Dd_core.Txn
module Canonicalizer = Dd_ingest.Canonicalizer

let tiny_config = { Corpus.default with Corpus.docs = 12; relations = 2; entities = 20; seed = 5 }

let quick_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 80;
    inference_chain = 40;
    initial_learning_epochs = 8;
    incremental_learning_epochs = 2;
  }

let make_engine () =
  let corpus = Corpus.generate tiny_config in
  let db = Database.create () in
  Corpus.load corpus db;
  Engine.create ~options:quick_options db (Pipeline.base_program ())

let with_store name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("dd_recovery_" ^ name) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (Sys.readdir dir);
  Fault.reset ();
  f dir

let flip_byte_in_file path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let pos = if pos < 0 then len + pos else pos in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let recover_exn store =
  match Checkpoint.recover store with
  | Ok pair -> pair
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)

(* --- checkpoint store --------------------------------------------------------- *)

let test_checkpoint_roundtrip () =
  with_store "roundtrip" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      Alcotest.(check bool) "manifest published" true (Checkpoint.latest store <> None);
      let recovered, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "nothing replayed" 0 applied;
      Alcotest.(check bool) "recovered state validates" true
        (Checkpoint.validate recovered = Ok ());
      Alcotest.(check string) "byte-identical re-serialization"
        (Serialize.to_string (Engine.graph engine))
        (Serialize.to_string (Engine.graph recovered));
      Alcotest.(check bool) "same marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine))

let test_checkpoint_detects_corruption () =
  (* One flipped byte anywhere in the checkpoint must fail the load with a
     checksum error, both in the text graph section and in the binary
     state section. *)
  List.iter
    (fun (label, pos) ->
      with_store "corrupt" (fun dir ->
          let engine = make_engine () in
          let store = Checkpoint.open_store dir in
          Checkpoint.save store engine;
          Checkpoint.abandon store;
          let ckpt =
            match Checkpoint.latest store with
            | Some name -> Filename.concat dir name
            | None -> Alcotest.fail "no checkpoint published"
          in
          flip_byte_in_file ckpt pos;
          match Checkpoint.recover (Checkpoint.open_store dir) with
          | Error (Checkpoint.Corrupt _) -> ()
          | Error e ->
            Alcotest.fail (label ^ ": wrong error: " ^ Checkpoint.error_to_string e)
          | Ok _ -> Alcotest.fail (label ^ ": corruption not detected")))
    [ ("graph section", 40); ("state section", -40) ]

let test_wal_replay () =
  with_store "wal" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.FE1));
      Checkpoint.save store engine;
      Checkpoint.abandon store;
      let recovered, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "both entries replayed" 2 applied;
      (* Replay retraces the live run bit for bit: the snapshot includes
         the engine PRNG. *)
      Alcotest.(check bool) "bitwise-identical marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine))

let test_torn_wal_tail_discarded () =
  with_store "torn" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save store engine;
      Checkpoint.abandon store;
      (* A mid-append crash: entry header present, payload cut short. *)
      let oc =
        open_out_gen [ Open_wronly; Open_append ] 0o644 (Filename.concat dir "wal-0.log")
      in
      output_string oc "entry 2 9999 00000000\npartial payl";
      close_out oc;
      let _, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "torn tail dropped, entry 1 kept" 1 applied)

let test_recover_empty_store () =
  with_store "empty" (fun dir ->
      match Checkpoint.recover (Checkpoint.open_store dir) with
      | Error Checkpoint.No_checkpoint -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Checkpoint.error_to_string e)
      | Ok _ -> Alcotest.fail "recovered from an empty store")

(* Dictionaries (value per id, in id order) and live encoded rows. *)
let store_image cs =
  let dicts =
    List.init (Column_store.arity cs) (fun c ->
        List.init (Column_store.dict_size cs c) (Column_store.dict_value cs c))
  in
  let rows = ref [] in
  Column_store.iter_ids cs (fun ids n -> rows := (Array.copy ids, n) :: !rows);
  (dicts, List.sort compare !rows)

let test_checkpoint_roundtrip_columnar () =
  with_store "columnar" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let db = Database.create () in
      Corpus.load corpus db;
      let engine = Engine.create ~options:quick_options db (Pipeline.base_program ()) in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.FE1));
      Checkpoint.save store engine;
      Checkpoint.abandon store;
      let recovered, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check int) "one entry replayed" 1 applied;
      Alcotest.(check bool) "recovered state validates" true
        (Checkpoint.validate recovered = Ok ());
      Alcotest.(check bool) "bitwise-identical marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine);
      (* The column stores survive the round trip with dictionaries
         intact: every table keeps the live engine's dictionary ids and
         its encoded rows. *)
      let db_live = Grounding.database (Engine.grounding engine) in
      let db_rec = Grounding.database (Engine.grounding recovered) in
      Alcotest.(check (list string)) "same tables" (Database.table_names db_live)
        (Database.table_names db_rec);
      List.iter
        (fun name ->
          let live = Relation.store (Database.find db_live name)
          and back = Relation.store (Database.find db_rec name) in
          Alcotest.(check bool) (name ^ " identical dictionary ids and rows") true
            (store_image live = store_image back))
        (Database.table_names db_rec))

let test_fallback_to_previous_version () =
  with_store "fallback" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save store engine;
      (* A rematerialization is not replayable, so this save writes a
         second version, a base.  It leaves the marginals as they are. *)
      ignore (Engine.rematerialize engine);
      Checkpoint.save store engine;
      Alcotest.(check bool) "second save wrote a base" true
        (Checkpoint.last_save store = Some Checkpoint.Base);
      Checkpoint.abandon store;
      (* The newest version fails its CRC; recovery must quarantine it,
         fall back to the previous version, and chain-replay the WAL
         forward — landing on the same state. *)
      flip_byte_in_file (Filename.concat dir "ckpt-1.ddckpt") (-40);
      let store = Checkpoint.open_store dir in
      let recovered, applied = recover_exn store in
      Alcotest.(check int) "replayed forward to the same sequence" 1 applied;
      Alcotest.(check bool) "bitwise-identical marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine);
      Alcotest.(check bool) "damaged version preserved as evidence" true
        (List.exists
           (fun n -> n = "ckpt-1.ddckpt.quarantined")
           (Checkpoint.quarantined_files store));
      (* The fallback never resurrects the torn version on later loads:
         recovery republished, so the store is clean again. *)
      match Checkpoint.verify_version store 1 with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("republished version invalid: " ^ Checkpoint.error_to_string e))

(* A base that recovery republished sits at the end of the chain it
   replayed.  When that base is damaged later, the older base's chain
   continues through its WAL, so the updates appended after it survive. *)
let test_damaged_base_wal_continues_chain () =
  with_store "chain" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save store engine;
      Checkpoint.abandon store;
      let store = Checkpoint.open_store dir in
      let engine, applied = recover_exn store in
      Alcotest.(check int) "republished at the end of the chain" 1 applied;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.FE1));
      Checkpoint.save store engine;
      Alcotest.(check bool) "appended to the republished base's WAL" true
        (Checkpoint.last_save store = Some (Checkpoint.Append 1));
      Checkpoint.abandon store;
      flip_byte_in_file (Filename.concat dir "ckpt-1.ddckpt") (-40);
      let store = Checkpoint.open_store dir in
      let recovered, applied = recover_exn store in
      Alcotest.(check int) "chain continued through the damaged base's WAL" 2 applied;
      Alcotest.(check bool) "bitwise-identical marginals" true
        (Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine);
      Alcotest.(check (list string)) "only the checkpoint quarantined"
        [ "ckpt-1.ddckpt.quarantined" ]
        (Checkpoint.quarantined_files store))

(* A base is numbered by its engine's commit count: a checkpoint whose
   frames all verify but whose sequence is not that count fails
   validation. *)
let test_seq_is_commit_count () =
  with_store "seq_count" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store ~fsync:false dir in
      Checkpoint.save store engine;
      Checkpoint.abandon store;
      let r = Record.of_file (Filename.concat dir "ckpt-0.ddckpt") in
      let seq = Record.read r "ddckpt 5" in
      let graph = Record.read r "graph" in
      let state = Record.read r "state" in
      Alcotest.(check string) "a new engine's base is ckpt-0" "0" seq;
      let forged = Record.frames [ ("ddckpt 5", "3"); ("graph", graph); ("state", state) ] in
      Out_channel.with_open_bin (Filename.concat dir "ckpt-3.ddckpt") (fun oc ->
          output_string oc forged);
      match Checkpoint.verify_version store 3 with
      | Error (Checkpoint.Invalid_state _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Checkpoint.error_to_string e)
      | Ok () -> Alcotest.fail "a base at the wrong commit count loaded")

(* A base written after a rematerialization holds a state no replay
   reproduces, so it ends the chain — also when it is written again at
   the same sequence, after scrub quarantined it or by a recovery that
   replayed nothing.  When it is damaged, recovery quarantines its WAL
   with it and stops at the older chain's end instead of replaying later
   entries onto the wrong state. *)
let test_damaged_base_ends_chain () =
  let scrubbed dir store engine =
    flip_byte_in_file (Filename.concat dir "ckpt-1.ddckpt") (-40);
    let r = Dd_kbc.Scrub.run store in
    Alcotest.(check int) "scrub quarantined the base" 1 r.Dd_kbc.Scrub.versions_quarantined;
    Checkpoint.save store engine;
    (store, engine)
  in
  let restarted dir store _ =
    Checkpoint.abandon store;
    let store = Checkpoint.open_store dir in
    let engine, _ = recover_exn store in
    (store, engine)
  in
  List.iter
    (fun (label, rewrite) ->
      with_store "chain_end" (fun dir ->
          let engine = make_engine () in
          let store = Checkpoint.open_store dir in
          Checkpoint.save store engine;
          ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
          Checkpoint.save store engine;
          let after_a1 = Engine.marginals_by_relation engine in
          ignore (Engine.rematerialize engine);
          Checkpoint.save store engine;
          let store, engine = rewrite dir store engine in
          ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.FE1));
          Checkpoint.save store engine;
          Alcotest.(check bool) (label ^ ": FE1 appended to the rematerialized base's WAL") true
            (Checkpoint.last_save store = Some (Checkpoint.Append 1));
          Checkpoint.abandon store;
          flip_byte_in_file (Filename.concat dir "ckpt-1.ddckpt") (-40);
          let store = Checkpoint.open_store dir in
          let recovered, applied = recover_exn store in
          Alcotest.(check int) (label ^ ": the chain ends before the damaged base") 1 applied;
          Alcotest.(check bool) (label ^ ": the state after A1") true
            (Engine.marginals_by_relation recovered = after_a1);
          Alcotest.(check (list string)) (label ^ ": the base and its WAL quarantined")
            [ "ckpt-1.ddckpt.quarantined"; "wal-1.log.quarantined" ]
            (Checkpoint.quarantined_files store)))
    [ ("written once", fun _ store engine -> (store, engine)); ("rewritten after scrub", scrubbed);
      ("rewritten by recovery", restarted) ]

(* --- the record codec ------------------------------------------------------- *)

let read_all file = In_channel.with_open_bin file In_channel.input_all

let write_file file s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s)

(* Write [bytes] as [file] into an empty store; does [load] report it
   corrupt? *)
let store_rejects file bytes load =
  with_store "codec" (fun dir ->
      write_file (Filename.concat dir file) bytes;
      match load (Checkpoint.open_store ~fsync:false dir) with
      | Error (Checkpoint.Corrupt _) -> true
      | _ -> false)

(* One artifact of every record kind, as the writers produce it. *)
type artifact = {
  kind : string;
  bytes : string;
  tags : string list;  (* the records its loader reads, in order *)
  rejects : string -> bool;  (* the public loader reports these bytes *)
}

type fixture = {
  artifacts : artifact list;
  wal : string;
  entry_ends : int list;  (* WAL offsets where each entry's frame ends *)
  ckpt : string;
  manifest : string;
}

let fixture =
  lazy
    (with_store "codec_fixture" (fun dir ->
         let store = Checkpoint.open_store ~fsync:false dir in
         let engine = make_engine () in
         Checkpoint.save store engine;
         let update = Pipeline.update_of Pipeline.A1 in
         ignore (Engine.apply_update engine update);
         ignore (Engine.apply_update engine update);
         Checkpoint.save store engine;
         Checkpoint.abandon store;
         let payload = Txn.encode_update update in
         Checkpoint.save_dead_letters store
           [ { Txn.seq = 1; error = `Transient "disk hiccup"; attempts = 2; payload } ];
         let canon = Canonicalizer.create () in
         List.iter
           (fun key -> ignore (Canonicalizer.observe canon key))
           [ "Ada Lovelace"; "Lovelace"; "Charles Babbage" ];
         ignore (Canonicalizer.declare_alias canon "Lovelace" "Ada Lovelace");
         Checkpoint.save_blob store ~name:"canon" (Canonicalizer.encode canon);
         let file name = read_all (Filename.concat dir name) in
         let wal = file "wal-0.log" in
         (* The log is exactly a header record and one frame per entry. *)
         let entry = Marshal.to_string update [] in
         let first = Record.frame "ddwal 3" "0 ends" ^ Record.frame "entry 1" entry in
         Alcotest.(check string) "WAL layout" (first ^ Record.frame "entry 2" entry) wal;
         {
           artifacts =
             [
               {
                 kind = "state";
                 bytes = file "ckpt-0.ddckpt";
                 tags = [ "ddckpt 5"; "graph"; "state" ];
                 rejects =
                   (fun b -> store_rejects "ckpt-0.ddckpt" b (fun s -> Checkpoint.verify_version s 0));
               };
               {
                 kind = "blob";
                 bytes = file "BLOB_canon";
                 tags = [ "ddblob 2" ];
                 rejects =
                   (fun b -> store_rejects "BLOB_canon" b (Checkpoint.load_blob ~name:"canon"));
               };
               {
                 kind = "deadletters";
                 bytes = file "DEADLETTERS";
                 tags = [ "dddead 2" ];
                 rejects = (fun b -> store_rejects "DEADLETTERS" b Checkpoint.load_dead_letters);
               };
               {
                 kind = "txn";
                 bytes = payload;
                 tags = [ "ddtxn 2" ];
                 rejects = (fun b -> Result.is_error (Txn.decode_update b));
               };
               {
                 kind = "canonicalizer";
                 bytes = Canonicalizer.encode canon;
                 tags = [ "ddcanon 2" ];
                 rejects = (fun b -> Result.is_error (Canonicalizer.decode b));
               };
             ];
           wal;
           entry_ends = [ String.length first; String.length wal ];
           ckpt = file "ckpt-0.ddckpt";
           manifest = file "MANIFEST";
         }))

type mutation =
  | Flip of int * int  (* byte, bit *)
  | Truncate of int  (* bytes kept *)

let mutate s = function
  | Flip (pos, bit) ->
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    Bytes.to_string b
  | Truncate len -> String.sub s 0 len

(* How many WAL entries the codec accepts before it rejects a record. *)
let codec_entries bytes =
  let r = Record.of_string bytes in
  match Record.read r "ddwal 3" with
  | exception Record.Malformed _ -> 0
  | _ ->
    let rec count k =
      match Record.read r (Printf.sprintf "entry %d" (k + 1)) with
      | _ -> count (k + 1)
      | exception Record.Malformed _ -> k
    in
    count 0

let codec_rejects bytes tags =
  match
    let r = Record.of_string bytes in
    List.iter (fun tag -> ignore (Record.read r tag)) tags;
    Record.finish r
  with
  | () -> false
  | exception Record.Malformed _ -> true

(* A damaged WAL entry ends the log there: recovery replays exactly the
   entries before it. *)
let wal_ends_at_damage f m =
  let damaged = match m with Flip (pos, _) -> pos | Truncate len -> len in
  let intact = List.length (List.filter (fun e -> e <= damaged) f.entry_ends) in
  let bytes = mutate f.wal m in
  codec_entries bytes = intact
  && with_store "codec" (fun dir ->
         List.iter
           (fun (name, s) -> write_file (Filename.concat dir name) s)
           [ ("ckpt-0.ddckpt", f.ckpt); ("MANIFEST", f.manifest); ("wal-0.log", bytes) ];
         match Checkpoint.recover (Checkpoint.open_store ~fsync:false dir) with
         | Ok (_, applied) -> applied = intact
         | Error _ -> false)

(* Every single-bit flip and every truncation of every record kind fails
   the codec's check, so no loader hands the bytes to [Marshal], and every
   loader reports the damage. *)
let test_codec_rejects_damage =
  (* kind 0 is the WAL, 1.. index [artifacts] *)
  let length k =
    let f = Lazy.force fixture in
    String.length (if k = 0 then f.wal else (List.nth f.artifacts (k - 1)).bytes)
  in
  let gen =
    QCheck.Gen.(
      int_bound 5 >>= fun k ->
      let n = length k in
      (* Half the positions fall in the leading header line, which holds
         the tag, length and digest outside the checksum. *)
      let pos = oneof [ int_bound (n - 1); int_bound (min (n - 1) 32) ] in
      oneof
        [
          map2 (fun pos bit -> (k, Flip (pos, bit))) pos (int_bound 7);
          map (fun len -> (k, Truncate len)) pos;
        ])
  in
  let print (k, m) =
    let f = Lazy.force fixture in
    Printf.sprintf "%s %s"
      (if k = 0 then "wal" else (List.nth f.artifacts (k - 1)).kind)
      (match m with
      | Flip (pos, bit) -> Printf.sprintf "flip byte %d bit %d" pos bit
      | Truncate len -> Printf.sprintf "truncate to %d bytes" len)
  in
  QCheck.Test.make ~name:"record codec rejects every bit flip and truncation" ~count:1000
    (QCheck.make ~print gen) (fun (k, m) ->
      let f = Lazy.force fixture in
      if k = 0 then wal_ends_at_damage f m
      else
        let a = List.nth f.artifacts (k - 1) in
        let bytes = mutate a.bytes m in
        codec_rejects bytes a.tags && a.rejects bytes)

(* --- WAL-first saves ------------------------------------------------------------ *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* A torn multi-entry append leaves a committed prefix; redriving the
   rest from it reproduces the live engine bit for bit. *)
let test_torn_append_recovers_prefix () =
  with_store "torn_append" (fun dir ->
      let engine = make_engine () in
      let store = Checkpoint.open_store dir in
      Checkpoint.save store engine;
      let updates = List.map Pipeline.update_of [ Pipeline.A1; Pipeline.FE1; Pipeline.FE2 ] in
      List.iter (fun u -> ignore (Engine.apply_update engine u)) updates;
      Fault.arm "checkpoint.save.mid_append" (Fault.Nth 1);
      (match Checkpoint.save store engine with
      | () -> Alcotest.fail "the armed append did not crash"
      | exception Fault.Injected _ -> ());
      Fault.reset ();
      Checkpoint.abandon store;
      let recovered, applied = recover_exn (Checkpoint.open_store dir) in
      Alcotest.(check bool) "recovery landed on a strict prefix" true (applied < 3);
      List.iteri (fun i u -> if i >= applied then ignore (Engine.apply_update recovered u)) updates;
      Alcotest.(check bool) "redriven run matches bit for bit" true
        (bits_equal (Engine.marginals recovered) (Engine.marginals engine)))

(* Fixed-seed sequences of supervised updates with saves in between.
   Every save must write a base exactly when a trigger holds — the
   engine is new, rematerialized or rebuilt by the Rerun rung, the
   current base was quarantined, or the WAL would pass its caps — and
   append the committed updates otherwise.  After each save the store
   holds every update committed so far ([applied] is the engine's commit
   count, which counts them all), and a recovery on a copy of the store
   reaches the same count and equals the live engine bit for bit. *)
type op =
  | Update  (** a clean [Txn.apply] *)
  | Retried  (** a fault on the first attempt: the Retry rung *)
  | Rematerialized  (** no retries allowed: the Rematerialize rung *)
  | Rerun  (** no retry, no rematerialize: the Rerun rung *)
  | Quarantine  (** damage the current base; a scrub quarantines it *)
  | Save

let op_to_string = function
  | Update -> "update"
  | Retried -> "retried"
  | Rematerialized -> "rematerialized"
  | Rerun -> "rerun"
  | Quarantine -> "quarantine"
  | Save -> "save"

let copy_store src dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  Array.iter (fun n -> Sys.remove (Filename.concat dst n)) (Sys.readdir dst);
  Array.iter
    (fun n -> write_file (Filename.concat dst n) (read_all (Filename.concat src n)))
    (Sys.readdir src)

(* The bytes an append of [updates] writes after entry [applied]. *)
let framed_bytes ~applied updates =
  List.fold_left ( + ) 0
    (List.mapi
       (fun i u ->
         String.length
           (Record.frame (Printf.sprintf "entry %d" (applied + 1 + i)) (Marshal.to_string u [])))
       updates)

let run_save_sequence ?(docs_per_update = 1) ops =
  with_store "wal_first" (fun dir ->
      let corpus =
        Corpus.generate { tiny_config with Corpus.docs = 8 + (docs_per_update * List.length ops) }
      in
      let db = Database.create () in
      Corpus.load corpus ~docs:8 db;
      let engine = ref (Engine.create ~options:quick_options db (Pipeline.base_program ())) in
      let store = Checkpoint.open_store ~fsync:false dir in
      let next_doc = ref 8 in
      let pending = ref [] (* committed since the last save, newest first *) in
      let committed = ref 0 in
      let forced = ref true (* a fresh engine needs a base *) in
      let supervised options arm =
        let update =
          Grounding.data_update
            (Corpus.doc_delta corpus ~from_doc:!next_doc ~until_doc:(!next_doc + docs_per_update))
        in
        next_doc := !next_doc + docs_per_update;
        Fault.reset ();
        Option.iter (fun point -> Fault.arm point (Fault.Nth 1)) arm;
        let txn = Txn.create ~options !engine in
        let outcome = Txn.apply txn update in
        Fault.reset ();
        engine := Txn.engine txn;
        match outcome with
        | Error e -> Alcotest.fail ("update quarantined: " ^ Txn.error_message e)
        | Ok o -> (o.Txn.rung, update)
      in
      let commit ~options ~arm ~rung:expected =
        let rung, update = supervised options arm in
        Alcotest.(check string) "ladder rung" (Txn.rung_to_string expected) (Txn.rung_to_string rung);
        pending := update :: !pending;
        incr committed;
        if rung = Txn.Rematerialize || rung = Txn.Rerun then forced := true
      in
      let fault = Some "engine.apply_update.post_learning" in
      let no_retry = { Txn.default_options with Txn.max_retries = 0 } in
      let check_save () =
        let updates = List.rev !pending in
        let usage = Checkpoint.wal_usage store in
        let n = List.length updates in
        let expected =
          if !forced then Checkpoint.Base
          else if
            usage.Checkpoint.entries + n <= Checkpoint.max_wal_entries
            && 2 * (usage.Checkpoint.bytes + framed_bytes ~applied:(Checkpoint.applied store) updates)
               <= usage.Checkpoint.base_bytes
          then Checkpoint.Append n
          else Checkpoint.Base
        in
        Checkpoint.save store !engine;
        Alcotest.(check bool) "base or append as the triggers require" true
          (Checkpoint.last_save store = Some expected);
        Alcotest.(check int) "the engine counts every commit" !committed (Engine.commits !engine);
        Alcotest.(check int) "applied is the engine's commit count" (Engine.commits !engine)
          (Checkpoint.applied store);
        pending := [];
        forced := false;
        let copy = dir ^ "_copy" in
        copy_store dir copy;
        let recovered, applied = recover_exn (Checkpoint.open_store ~fsync:false copy) in
        Alcotest.(check int) "recovery reaches the same count" (Engine.commits !engine) applied;
        Alcotest.(check bool) "recovered marginals bit-identical" true
          (bits_equal (Engine.marginals recovered) (Engine.marginals !engine));
        Alcotest.(check string) "recovered graph identical"
          (Serialize.to_string (Engine.graph !engine))
          (Serialize.to_string (Engine.graph recovered))
      in
      check_save ();
      List.iter
        (function
          | Update -> commit ~options:Txn.default_options ~arm:None ~rung:Txn.Direct
          | Retried -> commit ~options:Txn.default_options ~arm:fault ~rung:(Txn.Retry 1)
          | Rematerialized -> commit ~options:no_retry ~arm:fault ~rung:Txn.Rematerialize
          | Rerun ->
            commit
              ~options:{ no_retry with Txn.allow_rematerialize = false }
              ~arm:fault ~rung:Txn.Rerun
          | Quarantine -> (
            match Checkpoint.latest store with
            | Some name when Sys.file_exists (Filename.concat dir name) ->
              flip_byte_in_file (Filename.concat dir name) (-40);
              let r = Dd_kbc.Scrub.run store in
              Alcotest.(check int) "scrub quarantined the base" 1 r.Dd_kbc.Scrub.versions_quarantined;
              forced := true
            | Some _ | None -> ())
          | Save -> check_save ())
        ops;
      check_save ();
      true)

(* An engine whose log no store drains keeps at most 32 updates, then
   drops the log and needs a base. *)
let test_log_bounded () =
  let corpus = Corpus.generate { tiny_config with Corpus.docs = 60 } in
  let db = Database.create () in
  Corpus.load corpus ~docs:8 db;
  let engine = Engine.create ~options:quick_options db (Pipeline.base_program ()) in
  Alcotest.(check bool) "a new engine needs a base" true (Engine.committed_log engine = None);
  Engine.drain_log engine;
  let apply i =
    ignore
      (Engine.apply_update engine
         (Grounding.data_update (Corpus.doc_delta corpus ~from_doc:(8 + i) ~until_doc:(9 + i))))
  in
  for i = 0 to 31 do
    apply i
  done;
  Alcotest.(check (option (list int))) "32 commits, numbered"
    (Some (List.init 32 (fun i -> i + 1)))
    (Option.map (List.map fst) (Engine.committed_log engine));
  apply 32;
  Alcotest.(check int) "commits counted" 33 (Engine.commits engine);
  Alcotest.(check bool) "the 33rd drops the log" true (Engine.committed_log engine = None)

(* Two cases the supervised sequences never reach: a half-applied update
   outside a transaction, and one engine saved to two stores, where the
   log a store sees no longer starts where its WAL ends.  Both must save
   a base that recovers to the live engine. *)
let test_unreplayable_saves_base () =
  with_store "unreplayable" (fun dir ->
      let engine = make_engine () in
      (* An empty store next to [dir], which [with_store] emptied. *)
      let store name =
        let path = dir ^ name in
        copy_store dir path;
        Checkpoint.open_store ~fsync:false path
      in
      let a = store "_a" and b = store "_b" in
      Checkpoint.save a engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save b engine;
      ignore (Engine.apply_update engine (Pipeline.update_of Pipeline.FE1));
      Checkpoint.save a engine;
      Alcotest.(check bool) "the other store drained the log: a base" true
        (Checkpoint.last_save a = Some Checkpoint.Base);
      Fault.arm "engine.apply_update.post_learning" (Fault.Nth 1);
      (match Engine.apply_update engine (Pipeline.update_of Pipeline.FE2) with
      | _ -> Alcotest.fail "the armed update did not raise"
      | exception Fault.Injected _ -> ());
      Fault.reset ();
      Checkpoint.save a engine;
      Alcotest.(check bool) "a half-applied update: a base" true
        (Checkpoint.last_save a = Some Checkpoint.Base);
      Checkpoint.abandon a;
      let recovered, _ = recover_exn (Checkpoint.open_store ~fsync:false (dir ^ "_a")) in
      Alcotest.(check string) "recovered graph identical"
        (Serialize.to_string (Engine.graph engine))
        (Serialize.to_string (Engine.graph recovered)))

(* Enough saves to pass a WAL cap: the save that would cross it writes a
   base, and appends resume on top of it.  One-document updates reach
   the 32-entry cap first, three-document updates half the base's
   bytes. *)
let test_wal_cap () =
  let saves = List.concat (List.init 36 (fun _ -> [ Update; Save ])) in
  Alcotest.(check bool) "entry cap" true (run_save_sequence saves);
  Alcotest.(check bool) "byte cap" true (run_save_sequence ~docs_per_update:3 saves)

(* After a Rerun rung the store bases a rebuilt engine; that engine
   continues the count, so the store still holds both commits. *)
let test_rerun_rung_counts () =
  Alcotest.(check bool) "update, save, Rerun-rung update, save" true
    (run_save_sequence [ Update; Save; Rerun; Save ])

let test_save_triggers =
  let op =
    QCheck.Gen.frequency
      [
        (6, QCheck.Gen.return Update);
        (2, QCheck.Gen.return Retried);
        (1, QCheck.Gen.return Rematerialized);
        (1, QCheck.Gen.return Rerun);
        (1, QCheck.Gen.return Quarantine);
        (4, QCheck.Gen.return Save);
      ]
  in
  QCheck.Test.make ~name:"saves append or write a base as the triggers require" ~count:6
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map op_to_string ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 4 28) op))
    run_save_sequence

(* --- crash–recover–compare ---------------------------------------------------- *)

let test_crash_recovery_sweep () =
  with_store "sweep" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let exercised, outcomes =
        Soak.sweep (Soak.kbc_pipeline ~options:quick_options ~dir corpus)
      in
      Alcotest.(check bool) "pipeline exercises several points" true
        (List.length exercised >= 6);
      (* The engine build before the first publish, both halves of a
         base's publish and a multi-entry append each get a crash. *)
      List.iter
        (fun point ->
          Alcotest.(check bool) (point ^ " exercised") true (List.mem_assoc point exercised))
        ("engine.create.post_ground" :: "engine.create.post_learn" :: Checkpoint.fault_points);
      Alcotest.(check int) "one outcome per exercised point" (List.length exercised)
        (List.length outcomes);
      List.iter2
        (fun (point, _) (o : Soak.outcome) ->
          (* Every armed point must actually fire: either it killed the
             run or it damaged bytes silently and the final power cut
             surfaced it. *)
          Alcotest.(check (list string)) (point ^ " crashed or fired silently") [ point ]
            o.Soak.fired;
          Alcotest.(check (option string))
            (point ^ " converged to the golden fingerprint, scrub healthy")
            None o.Soak.failure)
        exercised outcomes)

let () =
  Alcotest.run "dd_recovery"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "detects corruption" `Quick test_checkpoint_detects_corruption;
          Alcotest.test_case "wal replay" `Quick test_wal_replay;
          Alcotest.test_case "torn wal tail" `Quick test_torn_wal_tail_discarded;
          Alcotest.test_case "empty store" `Quick test_recover_empty_store;
          Alcotest.test_case "columnar roundtrip" `Quick test_checkpoint_roundtrip_columnar;
          Alcotest.test_case "fallback to previous version" `Quick
            test_fallback_to_previous_version;
          Alcotest.test_case "damaged base's WAL continues the chain" `Quick
            test_damaged_base_wal_continues_chain;
          Alcotest.test_case "damaged base ends the chain" `Quick test_damaged_base_ends_chain;
          Alcotest.test_case "sequence is the commit count" `Quick test_seq_is_commit_count;
        ] );
      ( "wal-first",
        [
          Alcotest.test_case "torn append recovers a prefix" `Quick
            test_torn_append_recovers_prefix;
          Alcotest.test_case "an undrained log is bounded" `Quick test_log_bounded;
          Alcotest.test_case "unreplayable changes save a base" `Quick
            test_unreplayable_saves_base;
          Alcotest.test_case "a WAL cap forces a base" `Quick test_wal_cap;
          Alcotest.test_case "the Rerun rung continues the count" `Quick test_rerun_rung_counts;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |]) test_save_triggers;
        ] );
      ( "record-codec", [ QCheck_alcotest.to_alcotest test_codec_rejects_damage ] );
      ( "crash-recover-compare",
        [ Alcotest.test_case "sweep all fault points" `Slow test_crash_recovery_sweep ] );
    ]
