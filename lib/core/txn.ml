(* Transactional update application with a graceful-degradation ladder.

   [apply] runs one [Engine.apply_update] under an engine transaction
   (undo logs over the database, graph and grounding tables).  Any
   exception — including every fault-injection point — rolls the engine
   back to a validated pre-update state; the failure is classified into
   the {!Grounding.error} taxonomy and the supervisor walks down:

     retry (transients only, bounded, immediate)
       -> rematerialize and retry
       -> full rerun from scratch ([Engine.rebuild]) and retry
       -> quarantine the update into the dead-letter queue

   so one poison batch never wedges the pipeline.  DeepDive already falls
   back from incremental to full re-execution when the optimizer predicts
   incremental is unprofitable (Section 3.3); the ladder extends that
   idea from a performance choice to a correctness mechanism.

   A retry follows its failure at once, with no delay, so the whole
   ladder is deterministic and wall-clock-free. *)

module Graph = Dd_fgraph.Graph
module Database = Dd_relational.Database
module Fault = Dd_util.Fault
module Budget = Dd_util.Budget

type error = Grounding.error

let error_message = Grounding.error_message

type options = {
  max_retries : int;
  allow_rematerialize : bool;
  allow_rerun : bool;
}

let default_options = { max_retries = 2; allow_rematerialize = true; allow_rerun = true }

(* Extra attempts when the rollback itself is hit by an injected fault. *)
let rollback_retries = 2

type rung =
  | Direct
  | Retry of int
  | Rematerialize
  | Rerun

let rung_to_string = function
  | Direct -> "direct"
  | Retry k -> Printf.sprintf "retry-%d" k
  | Rematerialize -> "rematerialize"
  | Rerun -> "rerun"

type outcome = {
  report : Engine.report;
  rung : rung;
  attempts : int;
}

type dead_letter = {
  seq : int;
  error : error;
  attempts : int;
  payload : string;
}

type event =
  | Committed of outcome
  | Degraded of rung
  | Quarantined of dead_letter

type t = {
  mutable engine : Engine.t;
  topts : options;
  mutable seq : int;
  mutable dead : dead_letter list;  (* newest first *)
  mutable observers : (event -> unit) list;  (* registration order *)
}

let create ?(options = default_options) engine =
  {
    engine;
    topts = options;
    seq = 0;
    dead = [];
    observers = [];
  }

let engine t = t.engine

let dead_letters t = List.rev t.dead

let on_event t f = t.observers <- t.observers @ [ f ]

let emit t event = List.iter (fun f -> f event) t.observers

let restore_dead_letters (t : t) (letters : dead_letter list) =
  List.iter (fun (dl : dead_letter) -> t.seq <- max t.seq dl.seq) letters;
  t.dead <- List.rev_append letters t.dead

(* --- error classification ------------------------------------------------- *)

let classify : exn -> error = function
  | Grounding.Error e -> e
  | Budget.Exceeded site -> `Inference_timeout ("step budget exhausted at " ^ site)
  | Fault.Injected name -> `Transient ("injected fault at " ^ name)
  | Invalid_argument m ->
    (* Precondition violations at the storage boundary (schema
       nonconformance, unknown base table) are the delta's fault. *)
    `Malformed_delta m
  | Failure m -> `Internal m
  | e -> `Internal (Printexc.to_string e)

(* --- dead-letter payloads ------------------------------------------------- *)

(* Replayable serialized delta: the marshalled update in one
   [Dd_util.Record] frame, the same framing as a checkpoint WAL entry. *)
let payload_tag = "ddtxn 2"

let encode_update (update : Grounding.update) =
  Dd_util.Record.frame payload_tag (Marshal.to_string update [])

let decode_update payload =
  match Dd_util.Record.decode payload_tag payload with
  | Error m -> Error ("Txn.decode_update: " ^ m)
  | Ok body -> (
    match Marshal.from_string body 0 with
    | (update : Grounding.update) -> Ok update
    | exception _ -> Error "Txn.decode_update: unmarshal failed")

let decode_dead_letter dl = decode_update dl.payload

(* --- the ladder ----------------------------------------------------------- *)

let validate_engine engine =
  match Graph.validate (Engine.graph engine) with
  | Error m -> Error (`Internal ("post-rollback graph validation: " ^ m))
  | Ok () -> (
    match Database.validate (Grounding.database (Engine.grounding engine)) with
    | Error m -> Error (`Internal ("post-rollback database validation: " ^ m))
    | Ok () -> Ok ())

(* Rollback under injection: the [engine.txn_rollback.*] points may fire
   mid-rollback.  Rollback is idempotent, so retry a bounded number of
   times; if injection persists (e.g. a point armed at probability 1.0),
   run the final attempt with injection suppressed rather than abandon
   the engine half-restored.  Non-injected exceptions propagate — a
   rollback that genuinely cannot complete is unrecoverable here. *)
let rollback_guarded t x =
  let rec attempt k =
    match Engine.txn_rollback t.engine x with
    | () -> ()
    | exception e when Fault.is_injected e ->
      if k < rollback_retries then attempt (k + 1)
      else Fault.with_suppressed (fun () -> Engine.txn_rollback t.engine x)
  in
  attempt 0

(* One transactional attempt: begin, apply, commit — or classify, roll
   back, and re-validate the restored state. *)
let try_once t update =
  let x = Engine.txn_begin t.engine in
  match Engine.apply_update t.engine update with
  | report ->
    Engine.txn_commit t.engine x;
    Ok report
  | exception e ->
    let err = classify e in
    rollback_guarded t x;
    (match validate_engine t.engine with
    | Ok () -> Error err
    | Error e2 -> Error e2)

let apply t update =
  let attempts = ref 0 in
  let attempt () =
    incr attempts;
    try_once t update
  in
  let finish rung report =
    let outcome = { report; rung; attempts = !attempts } in
    emit t (Committed outcome);
    Ok outcome
  in
  let quarantine err =
    t.seq <- t.seq + 1;
    let dl = { seq = t.seq; error = err; attempts = !attempts; payload = encode_update update } in
    t.dead <- dl :: t.dead;
    emit t (Quarantined dl);
    Error err
  in
  (* Rung 0/1: direct attempt, then bounded retry — transients only; a
     malformed delta or a deterministic timeout will not pass on a second
     try. *)
  let rec retry k err =
    match err with
    | `Transient _ when k <= t.topts.max_retries ->
      emit t (Degraded (Retry k));
      (match attempt () with Ok r -> Ok (Retry k, r) | Error e -> retry (k + 1) e)
    | _ -> Error err
  in
  let direct = match attempt () with Ok r -> Ok (Direct, r) | Error e -> retry 1 e in
  match direct with
  | Ok (rung, r) -> finish rung r
  | Error err1 -> (
    (* Rung 2: refresh the materialized baseline, then retry once.  A
       stale or exhausted materialization (dead sample store, drifted
       variational artifact) is repaired here. *)
    let remat =
      if not t.topts.allow_rematerialize then Error err1
      else begin
        emit t (Degraded Rematerialize);
        match Engine.rematerialize t.engine with
        | _seconds -> (
          match attempt () with Ok r -> Ok (Rematerialize, r) | Error e -> Error e)
        | exception e -> Error (classify e)
      end
    in
    match remat with
    | Ok (rung, r) -> finish rung r
    | Error err2 -> (
      (* Rung 3: re-execution as the universal recovery path — build a
         fresh engine from scratch over the rolled-back database and
         program, then apply the update to it.  On success the fresh
         engine replaces the old one; it continues the commit count. *)
      let rerun =
        if not t.topts.allow_rerun then Error err2
        else begin
          emit t (Degraded Rerun);
          match
            Fault.hit "txn.rerun.pre_create";
            Engine.rebuild t.engine
          with
          | fresh -> (
            t.engine <- fresh;
            match attempt () with Ok r -> Ok (Rerun, r) | Error e -> Error e)
          | exception e -> Error (classify e)
        end
      in
      match rerun with
      | Ok (rung, r) -> finish rung r
      | Error err3 -> quarantine err3))

let replay t dl =
  match decode_dead_letter dl with
  | Error m -> Error (`Malformed_delta m)
  | Ok update -> (
    match apply t update with
    | Ok outcome ->
      t.dead <- List.filter (fun (d : dead_letter) -> d.seq <> dl.seq) t.dead;
      Ok outcome
    | Error _ as e -> e)
