module Engine = Dd_core.Engine
module Txn = Dd_core.Txn
module Pipeline = Dd_kbc.Pipeline
module Pool = Dd_parallel.Pool
module Prng = Dd_util.Prng
module Server = Dd_serve.Server
module Snapshot = Dd_serve.Snapshot

type reader_report = {
  reads : int;
  min_epoch : int;
  max_epoch : int;
  distinct_epochs : int;
  monotone : bool;
  verifies : int;
  verify_failures : string list;
}

type step = {
  step_rule : Pipeline.rule_id;
  step_result : (Txn.outcome, Txn.error) result;
}

type report = {
  steps : step list;
  readers : reader_report array;
  health : Server.health;
  final_identical : bool;
  elapsed_s : float;
}

let bits = Int64.bits_of_float

let marginals_identical a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if bits x <> bits b.(i) then ok := false) a;
  !ok

(* One reader iteration: a pinned multi-query read.  Everything happens
   against the single snapshot the [read] pinned, so the epoch, the
   threshold counts and the top-k all describe one consistent state; the
   periodic full [Snapshot.verify] is the torn-read detector. *)
let reader_step server rng ~verify () =
  Server.read server (fun snap ->
      let epoch = Snapshot.epoch snap in
      let failure =
        if verify then (
          match Snapshot.verify snap with Ok () -> None | Error m -> Some m)
        else begin
          (* Cheap consistency probes on the pinned snapshot. *)
          let n = Snapshot.num_facts snap in
          let thr = float_of_int (Prng.int_below rng 1000) /. 1000.0 in
          let c = Snapshot.count_above snap thr in
          let above = Snapshot.top_k snap c in
          if c > n then Some "count_above exceeds num_facts"
          else if List.exists (fun f -> f.Snapshot.probability < thr) above then
            Some "top-k prefix disagrees with count_above"
          else None
        end
      in
      (epoch, failure))

let run ?(readers = 2) ?(verify_every = 64) ?bins ?truth ?semantics ?txn_options
    ?(pace_s = 0.0) ?on_step engine rule_ids =
  let txn = Txn.create ?options:txn_options engine in
  let server = Server.create ?bins ?truth txn in
  let stop = Atomic.make false in
  let steps = ref [] in
  let reports = Array.make (max 1 readers) None in
  let pool = Pool.create (max 1 readers + 1) in
  let t0 = Unix.gettimeofday () in
  (let writer () =
     Fun.protect
       ~finally:(fun () -> Atomic.set stop true)
       (fun () ->
         let on_step step =
           (match on_step with Some f -> f step | None -> ());
           if pace_s > 0.0 then Unix.sleepf pace_s
         in
         steps :=
           List.map
             (fun rid ->
               let step =
                 { step_rule = rid; step_result = Txn.apply txn (Pipeline.update_of ?semantics rid) }
               in
               on_step step;
               step)
             rule_ids)
   in
   let reader d () =
     let rng = Prng.create (0x5e7e + d) in
     let reads = ref 0 and verifies = ref 0 and distinct = ref 0 in
     let min_epoch = ref max_int and max_epoch = ref 0 in
     let last = ref 0 in
     let monotone = ref true in
     let failures = ref [] in
     let observe () =
       let verify = verify_every > 0 && !reads mod verify_every = 0 in
       let epoch, failure = reader_step server rng ~verify () in
       incr reads;
       if verify then incr verifies;
       (match failure with Some m -> failures := m :: !failures | None -> ());
       if epoch < !last then monotone := false;
       if epoch <> !last then incr distinct;
       last := epoch;
       if epoch < !min_epoch then min_epoch := epoch;
       if epoch > !max_epoch then max_epoch := epoch
     in
     while not (Atomic.get stop) do
       observe ()
     done;
     (* One final read so every reader also sees the post-drive state. *)
     observe ();
     reports.(d - 1) <-
       Some
         {
           reads = !reads;
           min_epoch = !min_epoch;
           max_epoch = !max_epoch;
           distinct_epochs = !distinct;
           monotone = !monotone;
           verifies = !verifies;
           verify_failures = List.rev !failures;
         }
   in
   Fun.protect
     ~finally:(fun () -> Pool.shutdown pool)
     (fun () -> Pool.run pool (fun d -> if d = 0 then writer () else reader d ())));
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let final_identical =
    marginals_identical
      (Snapshot.marginals (Server.current server))
      (Engine.marginals (Txn.engine txn))
  in
  let readers =
    Array.map
      (function
        | Some r -> r
        | None ->
          {
            reads = 0;
            min_epoch = 0;
            max_epoch = 0;
            distinct_epochs = 0;
            monotone = true;
            verifies = 0;
            verify_failures = [ "reader produced no report" ];
          })
      reports
  in
  (txn, server, { steps = !steps; readers; health = Server.health server; final_identical; elapsed_s })
