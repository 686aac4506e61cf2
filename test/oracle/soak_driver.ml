(* The full ingest→txn→checkpoint loop as a soakable pipeline; the
   contract is in soak_driver.mli.

   The feed blob is published before the checkpoint save, so a crash can
   land the pair out of step (a torn append recovers a prefix of the
   batches the blob already holds).  Recovery then redrives the whole
   stream from scratch rather than marry an engine snapshot to a
   canonicalizer from a different point in time: that is how entity
   identity silently forks. *)

module Engine = Dd_core.Engine
module Txn = Dd_core.Txn
module Database = Dd_relational.Database
module Checkpoint = Dd_kbc.Checkpoint
module Scrub = Dd_kbc.Scrub
module Pipeline = Dd_kbc.Pipeline
module Program = Dd_core.Program
module Source = Dd_ingest.Source
module Batcher = Dd_ingest.Batcher
module Feed = Dd_ingest.Feed

let blob_name = "canon"

let encode_blob ~seq state = Printf.sprintf "canon %d\n%s" seq state

let decode_blob raw =
  Scanf.sscanf_opt raw "canon %d\n%n" (fun seq n -> (seq, String.sub raw n (String.length raw - n)))

(* Empty the store before a from-scratch republish, so a stale ckpt-<n>
   can never outrank the rebuilt state.  Quarantined evidence stays
   unless [all] (a reset between schedules). *)
let clear ~all dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else
    Array.iter
      (fun name ->
        if all || not (Filename.check_suffix name ".quarantined") then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)

(* The streaming program: features + supervision riding on the base, same
   shape the ingestion bench drives. *)
let stream_program () =
  Program.add_rules
    (Pipeline.base_program ())
    (Pipeline.rules_of Pipeline.FE1
    @ Pipeline.rules_of Pipeline.S1
    @ Pipeline.rules_of Pipeline.S2)

let batches_of source batcher =
  let rec go acc =
    match Source.next source with
    | Some doc -> (
      match Batcher.push batcher doc with
      | Some b -> go (b :: acc)
      | None -> go acc)
    | None -> ( match Batcher.drain batcher with Some b -> List.rev (b :: acc) | None -> List.rev acc)
  in
  go []

let pipeline ?(options = Engine.default_options) ?attach ?verify_snapshot ~dir source =
  let batches = Array.of_list (batches_of source (Batcher.create ~max_docs:8 ())) in
  let store = ref None and txn = ref None and feed = ref None in
  let the_store () = Option.get !store in
  let the_txn () = Option.get !txn in
  let the_feed () = Option.get !feed in
  let engine () = Txn.engine (the_txn ()) in
  let blob () = encode_blob ~seq:(Engine.commits (engine ())) (Feed.encode_state (the_feed ())) in
  let start ?state st engine =
    store := Some st;
    txn := Some (Txn.create engine);
    feed := Some (Feed.create ?state (the_txn ()));
    Option.iter (fun f -> f (the_txn ())) attach
  in
  let publish () =
    Checkpoint.save_blob (the_store ()) ~name:blob_name (blob ());
    Checkpoint.save (the_store ()) (engine ())
  in
  let fresh ~all =
    clear ~all dir;
    let db = Database.create () in
    Feed.prepare_database db source;
    start (Checkpoint.open_store dir) (Engine.create ~options db (stream_program ()));
    publish ()
  in
  {
    Soak.steps = Array.length batches;
    reset = (fun () -> fresh ~all:true);
    apply =
      (fun i ->
        match (Feed.ingest (the_feed ()) batches.(i)).Feed.outcome with
        | Ok _ -> if i mod 2 = 1 then publish ()
        | Error e ->
          failwith (Printf.sprintf "batch %d quarantined: %s" i (Txn.error_message e)));
    save = publish;
    recover =
      (fun () ->
        let st = Checkpoint.open_store dir in
        let scratch () =
          fresh ~all:false;
          0
        in
        match Checkpoint.recover st with
        (* Killed before the first publish, or every version damaged
           beyond loading (quarantined files stay behind as evidence): a
           from-scratch redrive.  Any other error is a recovery bug. *)
        | Error Checkpoint.No_checkpoint -> scratch ()
        | Error (Checkpoint.Corrupt _) when Checkpoint.quarantined_files st <> [] -> scratch ()
        | Error err -> failwith ("recovery failed: " ^ Checkpoint.error_to_string err)
        | Ok (engine, applied) -> (
          let raw = Result.value ~default:None (Checkpoint.load_blob st ~name:blob_name) in
          match Option.bind raw decode_blob with
          | Some (seq, blob) when seq = applied -> (
            match Feed.decode_state blob with
            | Ok state ->
              start ~state st engine;
              applied
            | Error _ -> scratch ())
          | Some _ | None ->
            (* No loadable blob, or blob and checkpoint out of step (a crash
               landed between the two publishes): never marry them —
               redrive from scratch. *)
            scratch ()));
    scrub =
      (fun () ->
        Scrub.run ~engine:(engine ()) ~reblob:(fun _ -> Some (blob ())) ?verify_snapshot
          (the_store ()));
    fingerprint =
      (fun () ->
        Marshal.to_string
          (Engine.marginals_by_relation (engine ()), Feed.encode_state (the_feed ()))
          []);
  }
