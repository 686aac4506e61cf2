(* Background integrity scrub with a self-healing repair ladder.

   Checksums only help if something re-reads them: a bit that flips after
   a checkpoint is published (or a table that decays in memory) stays
   invisible until recovery trips over it months later.  [run] walks every
   durable artifact in a checkpoint store and every live table,
   re-verifies all of it, and climbs a repair ladder per damaged artifact:

     checkpoint version   quarantine it; an older valid version remains
                          loadable (recovery chain-replays WALs forward);
                          re-publish a base from the live engine to
                          restore the retention window
     sidecar blob         rewrite from the live subsystem state when the
                          caller can provide it, else quarantine
     DEADLETTERS          quarantine (letters are forensic, not served)
     columnar table       [Column_store.repair] (derived planes recomputed
                          in place) → [Column_store.rebuild] from a
                          reference copy → report for regrounding
     serving snapshot     verify only; the server rebuilds snapshots from
                          the engine on the next commit, so a bad snapshot
                          is re-published, never repaired in place

   Everything the ladder cannot heal ends up either quarantined (never
   loaded, never served) or in [unrepaired] — the caller's signal to fall
   back to scratch regrounding.  A scrub never deletes anything. *)

module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store

type report = {
  versions_ok : int;
  versions_quarantined : int;
  blobs_ok : int;
  blobs_rewritten : int;
  blobs_quarantined : int;
  dead_letters_quarantined : bool;
  tables_ok : int;
  tables_repaired : int;  (* healed in place by [Column_store.repair] *)
  tables_rebuilt : int;  (* reloaded from the reference copy *)
  unrepaired : string list;  (* table names needing scratch regrounding *)
  snapshot_ok : bool option;  (* [None] when no verifier was supplied *)
  republished : bool;  (* a fresh checkpoint was saved to restore redundancy *)
}

let clean =
  {
    versions_ok = 0;
    versions_quarantined = 0;
    blobs_ok = 0;
    blobs_rewritten = 0;
    blobs_quarantined = 0;
    dead_letters_quarantined = false;
    tables_ok = 0;
    tables_repaired = 0;
    tables_rebuilt = 0;
    unrepaired = [];
    snapshot_ok = None;
    republished = false;
  }

let damage_found r =
  r.versions_quarantined + r.blobs_rewritten + r.blobs_quarantined
  + r.tables_repaired + r.tables_rebuilt
  + List.length r.unrepaired
  + (if r.dead_letters_quarantined then 1 else 0)
  + (match r.snapshot_ok with Some false -> 1 | _ -> 0)

let healthy r = r.unrepaired = [] && r.snapshot_ok <> Some false

let run ?engine ?reference ?reblob ?verify_snapshot store =
  let r = ref clean in
  (* 1. Checkpoint versions: full re-verification (every CRC, graph and
     schema validation), newest first. *)
  List.iter
    (fun seq ->
      match Checkpoint.verify_version store seq with
      | Ok () -> r := { !r with versions_ok = !r.versions_ok + 1 }
      | Error _ ->
        Checkpoint.quarantine_version store seq;
        r := { !r with versions_quarantined = !r.versions_quarantined + 1 })
    (Checkpoint.versions store);
  (* 2. Sidecar blobs: rewrite from live state when the owning subsystem
     can re-encode itself, otherwise quarantine. *)
  List.iter
    (fun name ->
      match Checkpoint.load_blob store ~name with
      | Ok _ -> r := { !r with blobs_ok = !r.blobs_ok + 1 }
      | Error _ -> (
        match Option.bind reblob (fun f -> f name) with
        | Some content ->
          Checkpoint.quarantine_blob store ~name;
          Checkpoint.save_blob store ~name content;
          r := { !r with blobs_rewritten = !r.blobs_rewritten + 1 }
        | None ->
          Checkpoint.quarantine_blob store ~name;
          r := { !r with blobs_quarantined = !r.blobs_quarantined + 1 }))
    (Checkpoint.blob_names store);
  (* 3. The dead-letter queue. *)
  (match Checkpoint.load_dead_letters store with
  | Ok _ -> ()
  | Error _ ->
    Checkpoint.quarantine_dead_letters store;
    r := { !r with dead_letters_quarantined = true });
  (* 4. Live tables: audit each column store, then climb the ladder. *)
  (match engine with
  | None -> ()
  | Some engine ->
    let db = Grounding.database (Engine.grounding engine) in
    List.iter
      (fun name ->
        let cs = Relation.store (Database.find db name) in
        match Column_store.audit cs with
        | Ok () -> r := { !r with tables_ok = !r.tables_ok + 1 }
        | Error _ -> (
          (* An in-place repair or rebuild is a change no WAL replay
             makes: the engine's next save must be a base. *)
          Engine.require_base engine;
          match Column_store.repair cs with
          | Ok () -> r := { !r with tables_repaired = !r.tables_repaired + 1 }
          | Error _ -> (
            match Option.bind reference (fun f -> f name) with
            | Some mirror -> (
              Column_store.rebuild cs (fun add -> Relation.iter (fun tup n -> add tup n) mirror);
              match Column_store.audit cs with
              | Ok () -> r := { !r with tables_rebuilt = !r.tables_rebuilt + 1 }
              | Error _ -> r := { !r with unrepaired = name :: !r.unrepaired })
            | None -> r := { !r with unrepaired = name :: !r.unrepaired })))
      (Database.table_names db));
  (* 5. The published serving snapshot, through the caller's verifier
     (this library sits below the serving layer). *)
  (match verify_snapshot with
  | None -> ()
  | Some verify ->
    r := { !r with snapshot_ok = Some (Result.is_ok (verify ())) });
  (* 6. Restore checkpoint redundancy: quarantining versions shrank the
     retention window, so re-publish a base from the live engine. *)
  (match engine with
  | Some engine when !r.versions_quarantined > 0 && healthy !r ->
    Checkpoint.abandon store;
    Checkpoint.save store engine;
    r := { !r with republished = true }
  | _ -> ());
  { !r with unrepaired = List.rev !r.unrepaired }

(* --- cadence ------------------------------------------------------------- *)

type cadence = { every : int; mutable countdown : int }

let cadence every =
  if every < 1 then invalid_arg "Scrub.cadence: every < 1";
  { every; countdown = every }

let due c =
  c.countdown <- c.countdown - 1;
  if c.countdown <= 0 then begin
    c.countdown <- c.every;
    true
  end
  else false

let pp fmt r =
  Format.fprintf fmt
    "@[<v>scrub{versions %d ok / %d quarantined; blobs %d ok / %d rewritten / %d \
     quarantined; tables %d ok / %d repaired / %d rebuilt; unrepaired [%s]; \
     snapshot %s%s%s}@]"
    r.versions_ok r.versions_quarantined r.blobs_ok r.blobs_rewritten
    r.blobs_quarantined r.tables_ok r.tables_repaired r.tables_rebuilt
    (String.concat ", " r.unrepaired)
    (match r.snapshot_ok with None -> "unchecked" | Some true -> "ok" | Some false -> "BAD")
    (if r.dead_letters_quarantined then "; DEADLETTERS quarantined" else "")
    (if r.republished then "; republished" else "")
