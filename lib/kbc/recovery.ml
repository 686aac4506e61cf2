(* Crash–recover–compare harness over the Fig-KBC pipeline.

   The property under test: for any registered fault point, a run that is
   killed mid-update and recovered from the checkpoint store reaches the
   same final marginals as an uninterrupted run with the same seed.  The
   argument is determinism end to end — the checkpoint snapshot includes
   the engine PRNG, so WAL replay and the remaining updates retrace the
   uninterrupted run bit for bit, and [Quality.compare_marginals] reports
   a high-confidence Jaccard of exactly 1.0 with zero max difference. *)

module Engine = Dd_core.Engine
module Database = Dd_relational.Database
module Tuple = Dd_relational.Tuple
module Fault = Dd_util.Fault
module Fault_file = Dd_util.Fault_file

let clear_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let updates ?semantics () = List.map (Pipeline.update_of ?semantics) Pipeline.all_rule_ids

let fresh_engine ?(options = Engine.default_options) ?semantics corpus =
  let db = Database.create () in
  Corpus.load corpus db;
  Engine.create ~options db (Pipeline.base_program ?semantics ())

(* Apply updates [from .. end], saving on the fixed cadence.  The first
   half take the write-ahead path ([Checkpoint.apply_update]); the rest
   commit in memory and reach the WAL through [save]'s append.  Before
   the second half the engine rematerializes, which no replay redoes, so
   the next save writes a base: a sweep crashes inside a log entry, a
   base and a multi-entry append.  Recovery never lands between the
   rematerialization and its base, since nothing after it is durable
   until that base is.  Saves never change what the engine computes, so
   the cadence has no effect on the final marginals — only on how much
   WAL replay a crash costs. *)
let finish ?semantics ~checkpoint_every store engine ~from =
  let updates = updates ?semantics () in
  let half = List.length updates / 2 in
  List.iteri
    (fun i update ->
      if i >= from then begin
        if i < half then ignore (Checkpoint.apply_update store engine update)
        else begin
          if i = half then ignore (Engine.rematerialize engine);
          ignore (Engine.apply_update engine update)
        end;
        if (i + 1) mod checkpoint_every = 0 then Checkpoint.save store engine
      end)
    updates

let run ?options ?semantics ?(checkpoint_every = 2) ~dir corpus =
  let store = Checkpoint.open_store dir in
  let engine = fresh_engine ?options ?semantics corpus in
  Checkpoint.save store engine;
  finish ?semantics ~checkpoint_every store engine ~from:0;
  engine

type baseline = {
  marginals : (string * Tuple.t * float) list;
  exercised : (string * int) list;
      (* every fault point the pipeline hit, with its hit count *)
}

let baseline ?options ?semantics ?(checkpoint_every = 2) ~dir corpus =
  ensure_dir dir;
  clear_dir dir;
  Fault.reset ();
  let engine = run ?options ?semantics ~checkpoint_every ~dir corpus in
  let marginals = Engine.marginals_by_relation engine in
  let exercised =
    List.filter_map
      (fun name ->
        let h = Fault.hits name in
        if h > 0 then Some (name, h) else None)
      (Fault.registered ())
  in
  { marginals; exercised }

type outcome = {
  point : string;
  trigger : int;  (* the armed Nth position *)
  crashed : bool;  (* false when the trigger lies beyond the run's hits *)
  latent : bool;
      (* the fault fired without killing the run (bit flip, dropped
         fsync); the harness then forced a power cut to surface it *)
  recovered_from : string option;
      (* checkpoint the store recovered from; None = crash predated the
         first publish and the run was redone from scratch *)
  replayed_to : int;  (* updates absorbed at the moment recovery finished *)
  agreement : Quality.agreement;
}

let crash_recover_compare ?options ?semantics ?(checkpoint_every = 2) ~dir ~point
    ~trigger ~reference corpus =
  ensure_dir dir;
  clear_dir dir;
  Fault.reset ();
  Fault_file.reset ();
  Fault_file.seed (0xc4a5 lxor trigger);
  Fault.arm point (Fault.Nth trigger);
  let survived =
    match run ?options ?semantics ~checkpoint_every ~dir corpus with
    | engine -> Some engine
    | exception e when Fault.is_injected e -> None
  in
  (* [disarm] clears the counters, so read them first. *)
  let fired = Fault.fired point > 0 in
  Fault.disarm point;
  let recover_and_finish ~power_cut =
    if power_cut then Fault_file.crash_lose_volatile ();
    let store = Checkpoint.open_store dir in
    match Checkpoint.recover store with
    | Ok (engine, applied) ->
      let name = Checkpoint.latest store in
      finish ?semantics ~checkpoint_every store engine ~from:applied;
      (engine, name, applied)
    | Error Checkpoint.No_checkpoint ->
      (* Killed before anything was published: nothing to lose, the only
         recovery is a clean deterministic rerun. *)
      clear_dir dir;
      (run ?options ?semantics ~checkpoint_every ~dir corpus, None, 0)
    | Error (Checkpoint.Corrupt _) when Checkpoint.quarantined_files store <> [] ->
      (* Every published version was damaged beyond loading; the damaged
         files are quarantined and the last rung is a deterministic
         scratch rebuild. *)
      clear_dir dir;
      (run ?options ?semantics ~checkpoint_every ~dir corpus, None, 0)
    | Error err -> failwith ("recovery failed: " ^ Checkpoint.error_to_string err)
  in
  let engine, recovered_from, replayed_to =
    match survived with
    | Some engine when not fired -> (engine, None, List.length Pipeline.all_rule_ids)
    | Some _ ->
      (* The fault fired silently — the run finished, but the bytes on
         disk may be lying.  Force a power cut and make recovery prove it
         can still reach the reference state. *)
      recover_and_finish ~power_cut:true
    | None -> recover_and_finish ~power_cut:false
  in
  Fault_file.reset ();
  let agreement = Quality.compare_marginals (Engine.marginals_by_relation engine) reference in
  {
    point;
    trigger;
    crashed = survived = None;
    latent = (survived <> None && fired);
    recovered_from;
    replayed_to;
    agreement;
  }

let sweep ?options ?semantics ?(checkpoint_every = 2) ~dir corpus =
  ensure_dir dir;
  let base =
    baseline ?options ?semantics ~checkpoint_every ~dir:(Filename.concat dir "baseline")
      corpus
  in
  let crash_dir = Filename.concat dir "crash" in
  let outcomes =
    List.map
      (fun (point, hits) ->
        (* Mid-run: late enough that checkpointed state exists for most
           points, early enough that real work remains after recovery. *)
        let trigger = (hits / 2) + 1 in
        crash_recover_compare ?options ?semantics ~checkpoint_every ~dir:crash_dir
          ~point ~trigger ~reference:base.marginals corpus)
      base.exercised
  in
  Fault.reset ();
  (base, outcomes)
