(* Tests for checkpoint/recovery: round-trips, corruption detection, WAL
   replay, and the crash–recover–compare property over every fault point
   the Fig-KBC pipeline exercises. *)

module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Serialize = Dd_fgraph.Serialize
module Fault = Dd_util.Fault
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Checkpoint = Dd_kbc.Checkpoint
module Recovery = Dd_kbc.Recovery
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
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.A1));
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.FE1));
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
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.A1));
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
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.FE1));
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
      ignore (Checkpoint.apply_update store engine (Pipeline.update_of Pipeline.A1));
      Checkpoint.save store engine;
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
         Checkpoint.save store (make_engine ());
         let update = Pipeline.update_of Pipeline.A1 in
         Checkpoint.log_update store update;
         Checkpoint.log_update store update;
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
         let first = Record.frame "ddwal 2" "0" ^ Record.frame "entry 1" entry in
         Alcotest.(check string) "WAL layout" (first ^ Record.frame "entry 2" entry) wal;
         {
           artifacts =
             [
               {
                 kind = "state";
                 bytes = file "ckpt-0.ddckpt";
                 tags = [ "ddckpt 4"; "graph"; "state" ];
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
  match Record.read r "ddwal 2" with
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

(* --- crash–recover–compare ---------------------------------------------------- *)

let test_crash_recovery_sweep () =
  with_store "sweep" (fun dir ->
      let corpus = Corpus.generate tiny_config in
      let base, outcomes = Recovery.sweep ~options:quick_options ~dir corpus in
      Alcotest.(check bool) "pipeline exercises several points" true
        (List.length base.Recovery.exercised >= 6);
      Alcotest.(check int) "one outcome per exercised point"
        (List.length base.Recovery.exercised)
        (List.length outcomes);
      List.iter
        (fun (o : Recovery.outcome) ->
          (* Every armed point must actually fire: either it killed the
             run (crashed) or it damaged bytes silently and the harness
             forced a power cut (latent). *)
          Alcotest.(check bool)
            (o.Recovery.point ^ " crashed or fired silently")
            true
            (o.Recovery.crashed || o.Recovery.latent);
          Alcotest.(check (float 0.0))
            (o.Recovery.point ^ " high-conf jaccard")
            1.0 o.Recovery.agreement.Quality.high_conf_jaccard;
          Alcotest.(check (float 0.0))
            (o.Recovery.point ^ " max marginal diff")
            0.0 o.Recovery.agreement.Quality.max_diff)
        outcomes)

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
        ] );
      ( "record-codec", [ QCheck_alcotest.to_alcotest test_codec_rejects_damage ] );
      ( "crash-recover-compare",
        [ Alcotest.test_case "sweep all fault points" `Slow test_crash_recovery_sweep ] );
    ]
