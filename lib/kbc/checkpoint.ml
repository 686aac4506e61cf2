(* Crash-safe checkpoint/recovery for the incremental KBC loop.

   The durable layout inside a store directory is:

     MANIFEST            names the latest published checkpoint + its WAL
     ckpt-<n>.ddckpt     a base: engine state after the engine's n-th commit
     wal-<n>.log         commits n+1, n+2, ... (one entry each)
     *.quarantined       damaged files set aside by recovery/scrub

   Every number is the engine's commit count ([Engine.commits]).  Every
   file but MANIFEST is a sequence of [Dd_util.Record] frames (tag,
   length, CRC-32): a checkpoint holds its sequence number, the factor
   graph in the auditable ddgraph v2 text format and the marshalled
   engine state; a WAL its checkpoint's sequence number and whether that
   base continues the chain, then one frame per update.  Every publish
   is atomic and durable (temp file + data fsync + rename + directory
   fsync, all via [Dd_util.Fault_file]) and ordered so that a crash at
   any instant leaves the previous checkpoint consistent: first the
   fresh (empty) WAL, then the checkpoint file, then the MANIFEST
   switch.

   The store retains the newest [keep_versions] checkpoint/WAL pairs.
   Because wal-<m> holds exactly the updates between checkpoint m and the
   next publish, recovery that has to fall back past a damaged newest
   version can chain-replay forward: load ckpt-<m>, replay wal-<m> to
   reach the next publish point, and keep following WALs by sequence
   until the chain runs out or reaches a base that ends it.

   A save is WAL-first.  The engine logs the updates it commits
   ([Engine.committed_log]); [save] appends those to the current WAL in
   one write and one fsync, so a save costs time in proportion to its
   delta.  It writes a full base (a new ckpt-<n> with a fresh WAL) only
   when replay could not reproduce the engine, when the store cannot
   vouch that the WAL ends where the engine's log begins, or when the
   WAL would pass its caps (32 entries, half the base's bytes) — so
   recovery replays a bounded log.  Every WAL entry comes from a save: there is no other way into
   the log.  Recovery therefore is: load the newest checkpoint that
   passes every checksum — quarantining any version that doesn't
   ([.quarantined] suffix, never deleted) — replay the WAL chain through
   the ordinary [Engine.apply_update] path (deterministic, since the
   snapshot includes the engine's PRNG state), and publish a fresh
   base.  A torn entry at the WAL tail (the classic mid-append crash)
   fails its CRC or length check and marks the end of the log. *)

module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Txn = Dd_core.Txn
module Graph = Dd_fgraph.Graph
module Serialize = Dd_fgraph.Serialize
module Database = Dd_relational.Database
module Fault = Dd_util.Fault
module Fault_file = Dd_util.Fault_file
module Record = Dd_util.Record

type error =
  | No_checkpoint  (** the store has no checkpoint at all *)
  | Corrupt of string  (** bad magic, failed checksum, torn structure *)
  | Invalid_state of string  (** checksums fine, semantic validation failed *)

let error_to_string = function
  | No_checkpoint -> "no checkpoint published in store"
  | Corrupt message -> "corrupt checkpoint store: " ^ message
  | Invalid_state message -> "checkpoint failed validation: " ^ message

type save = Base | Append of int

type wal_usage = { entries : int; bytes : int; base_bytes : int }

(* The current base and its WAL, and the engine it was taken from — by
   identity token, so the store never keeps an engine alive. *)
type base = {
  engine : Engine.identity;
  base_seq : int;
  size : int;  (* bytes of the checkpoint file *)
  wal : out_channel;  (* the base's WAL, open for appends *)
  wal_file : string;  (* path behind [wal], for fsync tracking *)
  mutable appended : int;  (* WAL entries since the base *)
  mutable appended_bytes : int;
  mutable sealed : bool;  (* quarantined, or an append failed: base next *)
}

type t = {
  dir : string;
  keep : int;  (* checkpoint versions retained by gc *)
  fsync : bool;  (* fsync data + directories on every publish *)
  mutable seq : int;  (* the engine commit count the durable state holds *)
  mutable chained : bool;  (* that state is the replay of the chain before it *)
  mutable base : base option;  (* [None]: the next save writes a base *)
  mutable last_save : save option;
}

let manifest_path store = Filename.concat store.dir "MANIFEST"

let ckpt_name seq = Printf.sprintf "ckpt-%d.ddckpt" seq

let wal_name seq = Printf.sprintf "wal-%d.log" seq

let point_pre_rename = "checkpoint.save.pre_rename"

let point_pre_manifest = "checkpoint.save.pre_manifest"

let point_mid_append = "checkpoint.save.mid_append"

let fault_points = [ point_pre_rename; point_pre_manifest; point_mid_append ]

let ckpt_path store seq = Filename.concat store.dir (ckpt_name seq)

let wal_path store seq = Filename.concat store.dir (wal_name seq)

let open_store ?(keep_versions = 2) ?(fsync = true) dir =
  if keep_versions < 1 then invalid_arg "Checkpoint.open_store: keep_versions < 1";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    invalid_arg ("Checkpoint.open_store: not a directory: " ^ dir);
  {
    dir;
    keep = keep_versions;
    fsync;
    seq = 0;
    chained = false;
    base = None;
    last_save = None;
  }

let abandon store =
  Option.iter (fun b -> close_out_noerr b.wal) store.base;
  store.base <- None

let applied store = store.seq

let last_save store = store.last_save

let wal_usage store =
  match store.base with
  | Some b -> { entries = b.appended; bytes = b.appended_bytes; base_bytes = b.size }
  | None -> { entries = 0; bytes = 0; base_bytes = 0 }

(* Version names are structural: "ckpt-<n>.ddckpt" (and nothing else). *)
let version_of_name name =
  match Filename.chop_suffix_opt ~suffix:".ddckpt" name with
  | None -> None
  | Some stem ->
    if String.length stem > 5 && String.sub stem 0 5 = "ckpt-" then
      match int_of_string_opt (String.sub stem 5 (String.length stem - 5)) with
      | Some n when n >= 0 && name = ckpt_name n -> Some n
      | _ -> None
    else None

let versions store =
  Array.fold_left
    (fun acc name -> match version_of_name name with Some n -> n :: acc | None -> acc)
    []
    (try Sys.readdir store.dir with Sys_error _ -> [||])
  |> List.sort (fun a b -> compare b a)

let quarantine_path path =
  if Sys.file_exists path then
    try Sys.rename path (path ^ ".quarantined") with Sys_error _ -> ()

let quarantine_version store seq =
  (match store.base with Some b when b.base_seq = seq -> b.sealed <- true | _ -> ());
  quarantine_path (ckpt_path store seq);
  quarantine_path (wal_path store seq)

let quarantined_files store =
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".quarantined" then name :: acc else acc)
    []
    (try Sys.readdir store.dir with Sys_error _ -> [||])
  |> List.sort String.compare

(* --- checkpoint save ------------------------------------------------------- *)

let state_snapshot engine = Marshal.to_string (engine : Engine.t) []

(* Bumped whenever the marshalled [Engine.t] layout changes (3: the
   generator's state became a byte buffer; 4: the cached compiled kernel
   stores its coupled/isolated split; 5: the engine carries its commit
   log), so an older store fails the tag check instead of unmarshalling
   into the wrong shape. *)
let ckpt_tag = "ddckpt 5"

(* A save appends while the WAL stays within both caps and writes a base
   once it would pass either, so recovery replays at most
   [max_wal_entries] updates and the WAL never outweighs half its base. *)
let max_wal_entries = 32

let wal_fits b ~entries ~bytes =
  b.appended + entries <= max_wal_entries && 2 * (b.appended_bytes + bytes) <= b.size

let checkpoint_content engine ~seq =
  Record.frames
    [
      (ckpt_tag, string_of_int seq);
      ("graph", Serialize.to_string (Engine.graph engine));
      ("state", state_snapshot engine);
    ]

let publish_manifest store ~ckpt ~wal =
  let content =
    Printf.sprintf "ddmanifest 1\ncheckpoint %s\nwal %s\nend\n" ckpt wal
  in
  Fault_file.write_atomic ~fsync:store.fsync (manifest_path store) content

(* Retire everything outside the newest [store.keep] versions.  Quarantined
   files are never collected (they are the scrub/forensics record), stray
   .tmp files from crashed publishes are. *)
let gc_stale_files store =
  let kept = ref 0 in
  let keep_seqs =
    List.filter (fun _ -> incr kept; !kept <= store.keep) (versions store)
  in
  Array.iter
    (fun name ->
      let stale =
        match version_of_name name with
        | Some n -> not (List.mem n keep_seqs)
        | None ->
          if Filename.check_suffix name ".tmp" then true
          else if String.length name >= 4 && String.sub name 0 4 = "wal-" then
            match Filename.chop_suffix_opt ~suffix:".log" name with
            | Some stem -> (
              match int_of_string_opt (String.sub stem 4 (String.length stem - 4)) with
              | Some n -> not (List.mem n keep_seqs)
              | None -> false)
            | None -> false
          else false
      in
      if stale then
        try Sys.remove (Filename.concat store.dir name) with Sys_error _ -> ())
    (try Sys.readdir store.dir with Sys_error _ -> [||])

(* Bumped with the WAL layout (3: the header says whether the base
   continues the chain). *)
let wal_tag = "ddwal 3"

let wal_header seq ~continues =
  Printf.sprintf "%d %s" seq (if continues then "continues" else "ends")

(* A base at the engine's commit count, which then absorbs its commit
   log.  It continues the chain when its state is the replay of what came
   before: the engine has a log, and it either committed past the
   store's durable state or sits on it, which must then continue the
   chain itself. *)
let write_base store engine =
  abandon store;
  let seq = Engine.commits engine in
  let continues =
    Engine.committed_log engine <> None
    && (seq > store.seq || (seq = store.seq && store.chained))
  in
  Engine.drain_log engine;
  let content = checkpoint_content engine ~seq in
  match
    (* 1. Fresh empty WAL for the updates that will follow this checkpoint.
       Not yet referenced by the manifest, so a crash here is invisible. *)
    Fault_file.write_atomic ~fsync:store.fsync (wal_path store seq)
      (Record.frame wal_tag (wal_header seq ~continues));
    (* 2. The checkpoint file itself: data fsync before the rename,
       directory fsync after, so a crash cannot leave a renamed-but-empty
       file. *)
    let tmp = ckpt_path store seq ^ ".tmp" in
    Fault_file.write_file ~fsync:store.fsync tmp content;
    Fault.hit point_pre_rename;
    Fault_file.rename_durable ~fsync:store.fsync tmp (ckpt_path store seq);
    (* 3. Only the manifest switch makes the new checkpoint authoritative. *)
    Fault.hit point_pre_manifest;
    publish_manifest store ~ckpt:(ckpt_name seq) ~wal:(wal_name seq)
  with
  | () ->
    (* 4. Open the new WAL for appends and retire any versions past the
       retention window. *)
    let wal_file = wal_path store seq in
    let wal = open_out_gen [ Open_wronly; Open_append ] 0o644 wal_file in
    gc_stale_files store;
    store.seq <- seq;
    store.chained <- continues;
    store.base <-
      Some
        {
          engine = Engine.identity engine;
          base_seq = seq;
          size = String.length content;
          wal;
          wal_file;
          appended = 0;
          appended_bytes = 0;
          sealed = false;
        };
    store.last_save <- Some Base
  | exception e ->
    Engine.require_base engine;
    raise e

(* --- write-ahead log ------------------------------------------------------- *)

let entry_tag seq = Printf.sprintf "entry %d" seq

(* Entries framed back to back, each tagged with its commit number. *)
let frame_entries entries =
  String.concat ""
    (List.map
       (fun (commit, update) ->
         Record.frame (entry_tag commit) (Marshal.to_string (update : Grounding.update) []))
       entries)

(* One write and one fsync to [b]'s WAL for all of [data], [count]
   entries.  A crash partway leaves a torn tail entry, which recovery
   discards, so the log always reads as a committed prefix; after any
   failure the WAL takes no more appends. *)
let append_entries store b ~count data =
  let ch = b.wal and path = b.wal_file in
  match
    if Fault.check point_mid_append then begin
      (* The process dies halfway through the write. *)
      Fault_file.append ~path ch (String.sub data 0 (String.length data / 2));
      (try flush ch with Sys_error _ -> ());
      raise (Fault.Injected point_mid_append)
    end;
    Fault_file.append ~path ch data;
    Fault_file.flush_fsync ~fsync:store.fsync ~path ch
  with
  | () ->
    store.chained <- true;
    b.appended <- b.appended + count;
    b.appended_bytes <- b.appended_bytes + String.length data
  | exception e ->
    b.sealed <- true;
    raise e

let save store engine =
  let append =
    match (store.base, Engine.committed_log engine) with
    (* The log holds the engine's last commits, so it continues exactly
       where the WAL ends when the commits before it are the store's. *)
    | Some b, Some entries
      when b.engine == Engine.identity engine
           && (not b.sealed)
           && Engine.commits engine - List.length entries = store.seq ->
      let count = List.length entries in
      let data = frame_entries entries in
      if wal_fits b ~entries:count ~bytes:(String.length data) then Some (b, count, data) else None
    | _ -> None
  in
  match append with
  | Some (b, count, data) ->
    if count > 0 then append_entries store b ~count data;
    store.seq <- Engine.commits engine;
    Engine.drain_log engine;
    store.last_save <- Some (Append count)
  | None -> write_base store engine

(* --- structured reads ------------------------------------------------------- *)

exception Bad of error

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bad (Corrupt m))) fmt

(* A whole file that must be exactly one record. *)
let read_record path tag =
  match Record.decode tag (Fault_file.read_file path) with
  | Ok payload -> Ok payload
  | Error m -> Error (Corrupt (Filename.basename path ^ ": " ^ m))
  | exception Sys_error m -> Error (Corrupt m)

(* --- dead-letter persistence ------------------------------------------------ *)

(* Quarantined updates survive a restart in a DEADLETTERS file published
   atomically next to the checkpoints: one record whose payload is the
   marshalled letter list, so the supervisor's metadata (sequence,
   attempts, error) sits under the same CRC as the payloads.  Each
   payload keeps its own [Txn.encode_update] frame and is decoded at load
   time, so a bad letter surfaces here rather than at replay. *)

let dead_letters_path store = Filename.concat store.dir "DEADLETTERS"

let dead_letters_tag = "dddead 2"

let quarantine_dead_letters store = quarantine_path (dead_letters_path store)

let save_dead_letters store letters =
  Fault_file.write_atomic ~fsync:store.fsync (dead_letters_path store)
    (Record.frame dead_letters_tag (Marshal.to_string (letters : Txn.dead_letter list) []))

let load_dead_letters store =
  let path = dead_letters_path store in
  if not (Sys.file_exists path) then Ok []
  else
    Result.bind (read_record path dead_letters_tag) (fun payload ->
        let letters : Txn.dead_letter list = Marshal.from_string payload 0 in
        match List.find_opt (fun dl -> Result.is_error (Txn.decode_dead_letter dl)) letters with
        | Some dl -> Error (Corrupt (Printf.sprintf "letter %d payload does not decode" dl.Txn.seq))
        | None -> Ok letters)

(* --- sidecar blobs ---------------------------------------------------------- *)

(* Small named state blobs published atomically next to the checkpoints —
   the subsystem-state analogue of DEADLETTERS (the ingestion feed stores
   its canonicalizer here).  Each is one record, so a torn or tampered
   file fails at load time. *)

let blob_file name = "BLOB_" ^ name

let blob_path store name =
  String.iter
    (fun c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        || c = '-' || c = '_'
      in
      if not ok then invalid_arg ("Checkpoint blob name: " ^ name))
    name;
  if name = "" then invalid_arg "Checkpoint blob name: empty";
  Filename.concat store.dir (blob_file name)

let blob_tag = "ddblob 2"

let save_blob store ~name content =
  Fault_file.write_atomic ~fsync:store.fsync (blob_path store name) (Record.frame blob_tag content)

let load_blob store ~name =
  let path = blob_path store name in
  if not (Sys.file_exists path) then Ok None
  else Result.map Option.some (read_record path blob_tag)

let blob_names store =
  Array.fold_left
    (fun acc name ->
      if
        String.length name > 5
        && String.sub name 0 5 = "BLOB_"
        && not (Filename.check_suffix name ".quarantined")
      then String.sub name 5 (String.length name - 5) :: acc
      else acc)
    []
    (try Sys.readdir store.dir with Sys_error _ -> [||])
  |> List.sort String.compare

let quarantine_blob store ~name = quarantine_path (blob_path store name)

(* --- load + recovery ------------------------------------------------------- *)

let validate engine =
  let ( let* ) = Result.bind in
  let* () =
    Result.map_error (fun e -> "factor graph: " ^ e) (Graph.validate (Engine.graph engine))
  in
  Result.map_error
    (fun e -> "database: " ^ e)
    (Database.validate (Grounding.database (Engine.grounding engine)))

let load_checkpoint_file path =
  if not (Sys.file_exists path) then corrupt "missing checkpoint file %s" path;
  let r = Record.of_file path in
  let read tag = try Record.read r tag with Record.Malformed m -> corrupt "checkpoint %s" m in
  let seq =
    match int_of_string_opt (read ckpt_tag) with
    | Some n when n >= 0 -> n
    | Some _ | None -> corrupt "bad checkpoint seq"
  in
  (match version_of_name (Filename.basename path) with
  | Some n when n <> seq -> corrupt "checkpoint seq %d does not match file %s" seq path
  | _ -> ());
  let graph_text = read "graph" in
  (* Both checksums pass before [Marshal.from_string], which is undefined
     behaviour on corrupted bytes. *)
  let state = read "state" in
  (try Record.finish r with Record.Malformed m -> corrupt "checkpoint: %s" m);
  let graph =
    match Serialize.of_string graph_text with
    | g -> g
    | exception Serialize.Format_error m -> corrupt "embedded graph: %s" m
  in
  (match Graph.validate graph with
  | Ok () -> ()
  | Error m -> raise (Bad (Invalid_state ("embedded graph: " ^ m))));
  let engine : Engine.t = Marshal.from_string state 0 in
  (* Cross-check the binary snapshot against the auditable graph
     section: both came from the same save, so re-serialization must
     be byte-identical. *)
  if Serialize.to_string (Engine.graph engine) <> graph_text then
    raise (Bad (Invalid_state "embedded graph does not match engine state"));
  (match validate engine with
  | Ok () -> ()
  | Error m -> raise (Bad (Invalid_state m)));
  if Engine.commits engine <> seq then
    raise (Bad (Invalid_state "checkpoint seq is not its engine's commit count"));
  (seq, engine)

let verify_version store seq =
  match load_checkpoint_file (ckpt_path store seq) with
  | _ -> Ok ()
  | exception Bad error -> Error error
  | exception Sys_error m -> Error (Corrupt m)

(* The WAL of the base at [seq]: whether that base continues the chain,
   and the entries after it, in order; [None] when the file is missing or
   its header unreadable.  Tolerant by design: a torn or out-of-sequence
   tail entry ends the log at that point — the entries "never made it to
   disk" and the driver redrives them. *)
let read_wal store seq =
  let rec entries r n acc =
    match Record.read r (entry_tag n) with
    | payload -> entries r (n + 1) ((Marshal.from_string payload 0 : Grounding.update) :: acc)
    | exception Record.Malformed _ -> List.rev acc
  in
  match Record.of_file (wal_path store seq) with
  | exception Sys_error _ -> None
  | r -> (
    match Record.read r wal_tag with
    | h when h = wal_header seq ~continues:true -> Some (true, entries r (seq + 1) [])
    | h when h = wal_header seq ~continues:false -> Some (false, entries r (seq + 1) [])
    | _ | (exception Record.Malformed _) -> None)

let recover store =
  abandon store;
  match
    let manifest_exists = Sys.file_exists (manifest_path store) in
    let vs = versions store in
    if vs = [] then
      raise
        (Bad
           (if manifest_exists then
              Corrupt "manifest present but no checkpoint versions on disk"
            else No_checkpoint));
    (* Newest version that passes every checksum and validation wins;
       a damaged checkpoint on the way down is quarantined, not deleted.
       Its WAL stays for the chain below: when the base continues the
       chain, the updates appended after it are not lost with it. *)
    let rec attempt quarantined = function
      | [] ->
        corrupt "no loadable checkpoint version (%d quarantined)" quarantined
      | seqn :: rest -> (
        match load_checkpoint_file (ckpt_path store seqn) with
        | result -> result
        | exception (Bad _ | Sys_error _) ->
          quarantine_path (ckpt_path store seqn);
          attempt (quarantined + 1) rest)
    in
    let ckpt_seq, engine = attempt 0 vs in
    (* Chain-replay WALs forward from the loaded version: wal-<m> carries
       the updates between checkpoint m and the next publish, whose own
       WAL continues the chain — unless its base ends it, and then that
       WAL is quarantined with the base.  Replay through the ordinary
       update path: deterministic because the snapshot restored the
       engine's PRNG along with everything else. *)
    let replay updates = List.iter (fun u -> ignore (Engine.apply_update engine u)) updates in
    let rec chain seq =
      match read_wal store seq with
      | Some (true, []) -> ()
      | Some (true, updates) ->
        replay updates;
        chain (Engine.commits engine)
      | Some (false, _) | None -> quarantine_path (wal_path store seq)
    in
    let continues, updates = Option.value ~default:(false, []) (read_wal store ckpt_seq) in
    replay updates;
    if updates <> [] then chain (Engine.commits engine);
    (* Re-publish so the replay work is durable and any torn WAL tail is
       retired.  With nothing replayed the new base is the loaded one, so
       it ends the chain if that one did. *)
    store.seq <- Engine.commits engine;
    store.chained <- continues || updates <> [];
    save store engine;
    (engine, Engine.commits engine)
  with
  | result -> Ok result
  | exception Bad error -> Error error
  | exception Sys_error m -> Error (Corrupt m)

let latest store =
  match String.split_on_char '\n' (Fault_file.read_file (manifest_path store)) with
  | "ddmanifest 1" :: ckpt :: wal :: "end" :: _ -> (
    match (String.split_on_char ' ' ckpt, String.split_on_char ' ' wal) with
    | [ "checkpoint"; name ], [ "wal"; _ ] -> Some name
    | _ -> None)
  | _ -> None
  | exception Sys_error _ -> None
