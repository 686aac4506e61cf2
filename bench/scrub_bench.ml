(* Durability cost and the scrub repair ladder, measured.

   Clean path: what the two kinds of checkpoint save cost — a full base
   and a WAL append of one committed update — and what fsync-everywhere
   adds to each (the store takes [?fsync] exactly so this is
   measurable), the two encode kernels inside every base (the CRC-32 of
   each record frame and the ddgraph text of the graph), and what a
   background scrub pass adds on a cadence.

   Repair path: plant real damage — a flipped bit in a published
   checkpoint version and a wrecked derived plane in a live table's
   column store — and show the ladder healing every one of it end to
   end. *)

open Harness
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Checkpoint = Dd_kbc.Checkpoint
module Scrub = Dd_kbc.Scrub
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store
module Timer = Dd_util.Timer
module Table = Dd_util.Table
module Crc32 = Dd_util.Crc32
module Serialize = Dd_oracle.Serialize

let bench_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 400;
    inference_chain = 150;
    initial_learning_epochs = 30;
    incremental_learning_epochs = 8;
  }

let scratch_dir () = Filename.concat (Filename.get_temp_dir_name ()) "dd_bench_scrub"

let clear_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir)
  else Sys.mkdir dir 0o755

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

let make_engine ?docs corpus =
  let db = Database.create () in
  Corpus.load corpus ?docs db;
  Engine.create ~options:bench_options db (Pipeline.base_program ())

(* The two kinds of save on one store: [rounds] bases (the engine marked
   as needing one before each) and [rounds] appends (one document's
   update committed before each).  The engine starts [rounds] documents
   short of the corpus so each append carries a fresh document. *)
let time_saves ~fsync ~rounds dir corpus =
  clear_dir dir;
  let first = corpus.Corpus.config.Corpus.docs - rounds in
  let engine = make_engine ~docs:first corpus in
  let store = Checkpoint.open_store ~fsync dir in
  let per_save total = total /. float_of_int rounds *. 1e3 in
  let base_s = ref 0.0 and append_s = ref 0.0 in
  for _ = 1 to rounds do
    Engine.require_base engine;
    base_s := !base_s +. Timer.time_s (fun () -> Checkpoint.save store engine)
  done;
  for i = first to first + rounds - 1 do
    ignore
      (Engine.apply_update engine
         (Grounding.data_update (Corpus.doc_delta corpus ~from_doc:i ~until_doc:(i + 1))));
    append_s := !append_s +. Timer.time_s (fun () -> Checkpoint.save store engine);
    if Checkpoint.last_save store <> Some (Checkpoint.Append 1) then
      failwith "scrub bench: a timed append wrote a base"
  done;
  (per_save !base_s, per_save !append_s)

let scrub ~full =
  section "Scrub: durability overhead and the self-healing repair ladder";
  let config =
    if full then { Corpus.default with Corpus.docs = Corpus.default.Corpus.docs * 2 }
    else Corpus.default
  in
  let corpus = Corpus.generate config in
  let dir = scratch_dir () in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let engine = make_engine corpus in
  let rounds = if full then 12 else 6 in

  (* --- clean path: what durable writes cost ------------------------------- *)
  let base_ms, append_ms = time_saves ~fsync:true ~rounds (Filename.concat dir "fsync") corpus in
  let base_nofsync_ms, append_nofsync_ms =
    time_saves ~fsync:false ~rounds (Filename.concat dir "nofsync") corpus
  in
  let overhead a b = if b > 0.0 then (a -. b) /. b *. 100.0 else 0.0 in
  let table = Table.create [ "operation"; "fsync(ms)"; "no-fsync(ms)"; "overhead(%)" ] in
  List.iter
    (fun (label, synced, unsynced) ->
      Table.add_row table
        [ label; Table.cell_f synced; Table.cell_f unsynced; Table.cell_f (overhead synced unsynced) ])
    [
      ("checkpoint save: base", base_ms, base_nofsync_ms);
      ("checkpoint save: append", append_ms, append_nofsync_ms);
    ];
  Table.print table;
  metric "save_base_ms" base_ms;
  metric "save_base_nofsync_ms" base_nofsync_ms;
  metric "save_fsync_overhead_pct" (overhead base_ms base_nofsync_ms);
  metric "save_append_ms" append_ms;
  metric "save_append_nofsync_ms" append_nofsync_ms;

  (* --- clean path: the CRC-32 of every save, and the ddgraph text view ---- *)
  let crc_buffer = String.init (1 lsl 20) (fun i -> Char.chr ((i * 131) land 0xff)) in
  let crc_passes = 256 in
  ignore (Crc32.string crc_buffer);
  let crc_s =
    Timer.time_s (fun () ->
        for _ = 1 to crc_passes do
          ignore (Sys.opaque_identity (Crc32.string crc_buffer))
        done)
  in
  let crc32_mb_per_s = float_of_int (crc_passes * String.length crc_buffer) /. crc_s /. 1e6 in
  let graph = Engine.graph engine in
  let text_passes = 100 in
  let graph_bytes = String.length (Serialize.to_string graph) in
  let text_s =
    Timer.time_s (fun () ->
        for _ = 1 to text_passes do
          ignore (Sys.opaque_identity (Serialize.to_string graph))
        done)
  in
  let graph_text_ms = text_s /. float_of_int text_passes *. 1e3 in
  note "Encode kernels: CRC-32 at %.0f MB/s over a 1 MiB buffer; ddgraph text of the\n\
        bench graph (%d bytes) in %.2f ms."
    crc32_mb_per_s graph_bytes graph_text_ms;
  metric "crc32_mb_per_s" crc32_mb_per_s;
  metric "graph_text_ms" graph_text_ms;

  (* --- clean path: a scrub pass and its cadence cost ----------------------- *)
  let store_dir = Filename.concat dir "store" in
  clear_dir store_dir;
  let store = Checkpoint.open_store store_dir in
  Checkpoint.save store engine;
  let timer = Timer.start () in
  let clean_report = Scrub.run ~engine store in
  let scrub_ms = Timer.elapsed_s timer *. 1e3 in
  note "Clean scrub pass: %.1fms over %d versions and %d live tables (damage: %d)."
    scrub_ms clean_report.Scrub.versions_ok clean_report.Scrub.tables_ok
    (Scrub.damage_found clean_report);
  metric "scrub_pass_ms" scrub_ms;
  metric "scrub_clean_ok" (if Scrub.damage_found clean_report = 0 then 1.0 else 0.0);

  (* Update loop with a scrub every other checkpoint vs none. *)
  let drive ~with_scrub dir =
    clear_dir dir;
    let engine = make_engine corpus in
    let store = Checkpoint.open_store dir in
    Checkpoint.save store engine;
    let cadence = Scrub.cadence 2 in
    let timer = Timer.start () in
    List.iter
      (fun rid ->
        ignore (Engine.apply_update engine (Pipeline.update_of rid));
        Checkpoint.save store engine;
        if with_scrub && Scrub.due cadence then ignore (Scrub.run ~engine store))
      Pipeline.all_rule_ids;
    Timer.elapsed_s timer
  in
  let plain_s = drive ~with_scrub:false (Filename.concat dir "plain") in
  let scrubbed_s = drive ~with_scrub:true (Filename.concat dir "cadence") in
  note "Update loop: %.2fs plain, %.2fs with scrub-every-2-checkpoints (+%.1f%%)."
    plain_s scrubbed_s (overhead scrubbed_s plain_s);
  metric "cadence_overhead_pct" (overhead scrubbed_s plain_s);

  (* --- repair path: plant damage, climb the ladder ------------------------- *)
  let ckpt = Filename.concat store_dir (Option.get (Checkpoint.latest store)) in
  flip_byte_in_file ckpt (-40);
  (* Derived-plane damage on one non-empty table, healed in place. *)
  let db = Grounding.database (Engine.grounding engine) in
  (match
     List.find_opt
       (fun n -> Relation.cardinality (Database.find db n) > 0)
       (Database.table_names db)
   with
  | Some name -> Column_store.unsafe_corrupt_filter (Relation.store (Database.find db name))
  | None -> ());
  let timer = Timer.start () in
  let r = Scrub.run ~engine store in
  let repair_ms = Timer.elapsed_s timer *. 1e3 in
  note
    "Damaged store scrub (%.1fms): %d version(s) quarantined, %d table(s)\n\
     repaired in place, %d unrepaired; republished: %b."
    repair_ms r.Scrub.versions_quarantined r.Scrub.tables_repaired
    (List.length r.Scrub.unrepaired)
    r.Scrub.republished;
  metric "repair_versions_quarantined" (float_of_int r.Scrub.versions_quarantined);
  metric "repair_tables_repaired" (float_of_int r.Scrub.tables_repaired);
  metric "repair_unrepaired" (float_of_int (List.length r.Scrub.unrepaired));
  metric "repair_healthy" (if Scrub.healthy r then 1.0 else 0.0);
  (* And the store must still recover bit-for-bit after the repair. *)
  let identical =
    match Checkpoint.recover (Checkpoint.open_store store_dir) with
    | Ok (recovered, _) ->
      Engine.marginals_by_relation recovered = Engine.marginals_by_relation engine
    | Error _ -> false
  in
  note "Recovery after repair reproduces the live marginals: %b" identical;
  metric "recover_after_repair_identical" (if identical then 1.0 else 0.0)

let () = register "scrub" "Scrub: fsync cost, scrub cadence, repair ladder" scrub
