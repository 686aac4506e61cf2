(* Crash-consistency soak harness: seeded fault schedules, or one
   schedule per exercised point ([sweep]), over a pipeline of closures,
   each held to a golden fault-free run.  The property and the pipeline
   contract are documented in soak.mli.

   Every escaping [Fault.Injected] is a machine death: volatile
   (un-fsynced) bytes are lost ([Fault_file.crash_lose_volatile]), all
   in-memory state is abandoned, and the pipeline recovers from disk,
   scrubs, and resumes from wherever the durable state proves it got
   to.  Silent faults (bit flips, dropped fsyncs) crash nothing, so
   every schedule ends with a forced power cut + recover + scrub, which
   is where latent damage must surface and heal. *)

module Engine = Dd_core.Engine
module Database = Dd_relational.Database
module Checkpoint = Dd_kbc.Checkpoint
module Corpus = Dd_kbc.Corpus
module Pipeline = Dd_kbc.Pipeline
module Scrub = Dd_kbc.Scrub
module Fault = Dd_util.Fault
module Fault_file = Dd_util.Fault_file
module Prng = Dd_util.Prng

type pipeline = {
  steps : int;
  reset : unit -> unit;
  apply : int -> unit;
  save : unit -> unit;
  recover : unit -> int;
  scrub : unit -> Scrub.report;
  fingerprint : unit -> string;
}

type arm = { point : string; trigger : int }

type schedule = { sid : int; arms : arm list }

type outcome = {
  schedule : schedule;
  crashes : int;
  repairs : int;
  fired : string list;
  failure : string option;
}

type summary = {
  schedules : int;
  clean : int;
  crashed : int;
  total_crashes : int;
  total_repairs : int;
  failures : outcome list;
}

(* --- schedule generation -------------------------------------------------- *)

let generate ~points ~seed sid =
  let rng = Prng.create (seed + (0x9e3779b1 * sid)) in
  let pts = Array.of_list points in
  let n = 1 + Prng.int_below rng 3 in
  let arms =
    List.init n (fun _ ->
        let point, window = Prng.choice rng pts in
        { point; trigger = 1 + Prng.int_below rng window })
  in
  { sid; arms }

(* --- one schedule ---------------------------------------------------------- *)

let run_schedule pipeline sched =
  Fault.reset ();
  Fault_file.reset ();
  Fault_file.seed (0x5eed + sched.sid);
  (* Armed before the reset, so the points that fire while the pipeline
     builds its first state (engine creation, the initial publish) are
     reachable too; a death there recovers like any other. *)
  List.iter (fun a -> Fault.arm a.point (Fault.Nth a.trigger)) sched.arms;
  let crashes = ref 0 and repairs = ref 0 in
  let step = ref 0 in
  let fired = ref [] in
  (* [Fault.reset] zeroes the counters: note the arms that fired first. *)
  let reset_faults () =
    List.iter
      (fun a -> if Fault.fired a.point > 0 then fired := a.point :: !fired)
      sched.arms;
    Fault.reset ()
  in
  let scrub () =
    let r = pipeline.scrub () in
    repairs := !repairs + Scrub.damage_found r;
    r
  in
  (* A machine died.  Recovery and the scrub after it (which may
     republish a base) run under the armed schedule and may be killed
     again; each Nth arm fires at most once, so the retry loop is
     bounded, with a suppressed last resort for safety. *)
  let crash_recover () =
    incr crashes;
    let recover_and_scrub () =
      let applied = pipeline.recover () in
      ignore (scrub ());
      applied
    in
    let rec attempt k =
      Fault_file.crash_lose_volatile ();
      if k >= 5 then begin
        reset_faults ();
        recover_and_scrub ()
      end
      else
        match recover_and_scrub () with
        | applied -> applied
        | exception e when Fault.is_injected e ->
          incr crashes;
          attempt (k + 1)
    in
    attempt 0
  in
  let failure = ref None in
  (try
     (match pipeline.reset () with
     | () -> ()
     | exception e when Fault.is_injected e -> step := crash_recover ());
     let rec drive () =
       if !step < pipeline.steps then begin
         (match pipeline.apply !step with
         | () -> incr step
         | exception e when Fault.is_injected e -> step := crash_recover ());
         drive ()
       end
       else
         match pipeline.save () with
         | () -> ()
         | exception e when Fault.is_injected e ->
           step := crash_recover ();
           drive ()
     in
     drive ();
     (* Forced final power cut: whatever silent damage the schedule
        planted — a flipped bit in a checkpoint, an fsync that never
        happened — must be found, healed or quarantined NOW, and must not
        change the state the pipeline converges to. *)
     reset_faults ();
     Fault_file.crash_lose_volatile ();
     step := pipeline.recover ();
     let final_report = scrub () in
     drive ();
     if not (Scrub.healthy final_report) then
       failure :=
         Some (Format.asprintf "final scrub left damage: %a" Scrub.pp final_report)
   with e ->
     failure :=
       Some
         (Printf.sprintf "schedule raised %s at step %d" (Printexc.to_string e) !step));
  (match !failure with
  | Some _ -> ()
  | None ->
    (* One more scrub after the post-recovery redrive: nothing may be
       left damaged, and the fingerprint must match the golden model. *)
    let r = scrub () in
    if not (Scrub.healthy r) then
      failure := Some (Format.asprintf "post-redrive scrub: %a" Scrub.pp r));
  reset_faults ();
  {
    schedule = sched;
    crashes = !crashes;
    repairs = !repairs;
    fired = List.sort_uniq String.compare !fired;
    failure = !failure;
  }

let check_golden pipeline golden outcome =
  match outcome.failure with
  | Some _ -> outcome
  | None ->
    let fp = pipeline.fingerprint () in
    if String.equal fp golden then outcome
    else { outcome with failure = Some "fingerprint diverged from golden model" }

(* --- shrinking ------------------------------------------------------------- *)

(* Greedy minimization: try dropping each arm, then halving each trigger;
   accept any candidate that still fails, repeat to a fixpoint (bounded). *)
let shrink ~run sched =
  let fails s = match (run s).failure with Some _ -> true | None -> false in
  let candidates s =
    let drops =
      if List.length s.arms <= 1 then []
      else
        List.mapi
          (fun i _ -> { s with arms = List.filteri (fun j _ -> j <> i) s.arms })
          s.arms
    in
    let halves =
      List.concat
        (List.mapi
           (fun i a ->
             if a.trigger <= 1 then []
             else
               [
                 {
                   s with
                   arms =
                     List.mapi
                       (fun j b -> if j = i then { b with trigger = b.trigger / 2 } else b)
                       s.arms;
                 };
               ])
           s.arms)
    in
    drops @ halves
  in
  let budget = ref 32 in
  let rec go s =
    if !budget <= 0 then s
    else
      match
        List.find_opt
          (fun c ->
            decr budget;
            !budget >= 0 && fails c)
          (candidates s)
      with
      | Some smaller -> go smaller
      | None -> s
  in
  go sched

(* --- the soak loop ---------------------------------------------------------- *)

(* Golden model: the same pipeline, no faults armed.  Returns its
   fingerprint and every fault point the run hit, with its hit count —
   counted before the fingerprint reads anything back. *)
let golden_run pipeline =
  Fault.reset ();
  Fault_file.reset ();
  pipeline.reset ();
  for i = 0 to pipeline.steps - 1 do
    pipeline.apply i
  done;
  pipeline.save ();
  let exercised =
    List.filter_map
      (fun name -> match Fault.hits name with 0 -> None | h -> Some (name, h))
      (Fault.registered ())
  in
  (pipeline.fingerprint (), exercised)

let soak ?(seed = 1) ?(points = Fault_file.all_points) ?on_schedule ~schedules
    pipeline =
  let golden, exercised = golden_run pipeline in
  (* Each trigger within the hits of a fault-free run, so a point hit
     only twice fires as often as one hit fifty times; a point that run
     never hits (a read only recovery makes) keeps the window [1, 16]. *)
  let points =
    List.map
      (fun p -> (p, Option.value ~default:16 (List.assoc_opt p exercised)))
      points
  in
  let clean = ref 0 and crashed = ref 0 in
  let total_crashes = ref 0 and total_repairs = ref 0 in
  let failures = ref [] in
  for sid = 1 to schedules do
    let sched = generate ~points ~seed sid in
    let outcome = check_golden pipeline golden (run_schedule pipeline sched) in
    if outcome.fired = [] then incr clean;
    if outcome.crashes > 0 then incr crashed;
    total_crashes := !total_crashes + outcome.crashes;
    total_repairs := !total_repairs + outcome.repairs;
    (match outcome.failure with
    | None -> ()
    | Some _ ->
      let minimal =
        shrink ~run:(fun s -> check_golden pipeline golden (run_schedule pipeline s)) sched
      in
      let final = check_golden pipeline golden (run_schedule pipeline minimal) in
      failures := (if final.failure = None then outcome else final) :: !failures);
    match on_schedule with None -> () | Some f -> f outcome
  done;
  Fault.reset ();
  Fault_file.reset ();
  {
    schedules;
    clean = !clean;
    crashed = !crashed;
    total_crashes = !total_crashes;
    total_repairs = !total_repairs;
    failures = List.rev !failures;
  }

let sweep pipeline =
  let golden, exercised = golden_run pipeline in
  let outcomes =
    List.mapi
      (fun i (point, hits) ->
        (* Mid-run: late enough that durable state exists for most
           points, early enough that real work remains after recovery. *)
        let sched = { sid = i + 1; arms = [ { point; trigger = (hits / 2) + 1 } ] } in
        check_golden pipeline golden (run_schedule pipeline sched))
      exercised
  in
  Fault.reset ();
  Fault_file.reset ();
  (exercised, outcomes)

(* --- the bare kbc pipeline -------------------------------------------------- *)

(* The six-rule-update Fig-KBC loop through a checkpoint store, with a
   sidecar blob standing in for subsystem state (re-encoded on every save
   and after every recovery, the way the ingestion feed persists its
   canonicalizer).  Deterministic end to end: the corpus is static, the
   update list fixed, and the engine snapshot carries its PRNG.

   Updates commit in memory and reach the WAL through a save after
   every second one.  Before update [half] the engine rematerializes, which no
   replay redoes, so the next save writes a base: one run crosses the
   initial publish, multi-entry appends and a base.  Recovery never
   lands between the rematerialization and its base, since nothing
   after it is durable until that base is.  Saves never change what the
   engine computes, so the cadence has no effect on the fingerprint. *)

let kbc_pipeline ?(options = Engine.default_options) ~dir corpus =
  let updates = List.map (fun rid -> Pipeline.update_of rid) Pipeline.all_rule_ids in
  let steps = List.length updates in
  let half = steps / 2 in
  let update i = List.nth updates i in
  let store = ref None in
  let engine = ref None in
  let the_store () = Option.get !store in
  let the_engine () = Option.get !engine in
  let blob_of seq = Printf.sprintf "soak-state %d" seq in
  let fresh_engine () =
    let db = Database.create () in
    Corpus.load corpus db;
    Engine.create ~options db (Pipeline.base_program ())
  in
  let publish () =
    Checkpoint.save (the_store ()) (the_engine ());
    Checkpoint.save_blob (the_store ()) ~name:"soakstate"
      (blob_of (Checkpoint.applied (the_store ())))
  in
  let rebuild () =
    engine := Some (fresh_engine ());
    publish ();
    0
  in
  {
    steps;
    reset =
      (fun () ->
        (* [open_store] creates the directory when it is missing. *)
        if Sys.file_exists dir then
          Array.iter
            (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
            (Sys.readdir dir);
        store := Some (Checkpoint.open_store dir);
        engine := Some (fresh_engine ());
        publish ());
    apply =
      (fun i ->
        if i = half then ignore (Engine.rematerialize (the_engine ()));
        ignore (Engine.apply_update (the_engine ()) (update i));
        if i mod 2 = 1 then publish ());
    save = publish;
    recover =
      (fun () ->
        let st = Checkpoint.open_store dir in
        store := Some st;
        match Checkpoint.recover st with
        | Ok (e, applied) ->
          engine := Some e;
          Checkpoint.save_blob st ~name:"soakstate" (blob_of applied);
          applied
        (* Killed before the first publish, or every version damaged
           beyond loading (quarantined files stay behind as evidence): the
           last rung is a deterministic from-scratch rebuild.  Any other
           error is a recovery bug. *)
        | Error Checkpoint.No_checkpoint -> rebuild ()
        | Error (Checkpoint.Corrupt _) when Checkpoint.quarantined_files st <> [] -> rebuild ()
        | Error err -> failwith ("recovery failed: " ^ Checkpoint.error_to_string err));
    scrub =
      (fun () ->
        Scrub.run ~engine:(the_engine ())
          ~reblob:(fun _ -> Some (blob_of (Checkpoint.applied (the_store ()))))
          (the_store ()));
    fingerprint =
      (fun () ->
        let marginals = Engine.marginals_by_relation (the_engine ()) in
        let blob =
          match Checkpoint.load_blob (the_store ()) ~name:"soakstate" with
          | Ok (Some s) -> s
          | Ok None -> "<none>"
          | Error e -> "<error: " ^ Checkpoint.error_to_string e ^ ">"
        in
        Marshal.to_string (marginals, blob) []);
  }
