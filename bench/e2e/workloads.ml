(* The four workloads.  Each runs rounds of a fixed-size scenario, with
   inputs derived from the run seed, as many rounds as its time budget
   holds on the reference host ({!Measure.rounds}); every round ends with
   correctness checks on what it built.  All of them run the engine,
   supervisor, batcher and checkpoint defaults, so a change of default
   shows in the numbers. *)

module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Checkpoint = Dd_kbc.Checkpoint
module Quality = Dd_kbc.Quality
module Engine = Dd_core.Engine
module Txn = Dd_core.Txn
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Value = Dd_relational.Value
module Snapshot = Dd_serve.Snapshot
module Server = Dd_serve.Server
module Source = Dd_ingest.Source
module Batcher = Dd_ingest.Batcher
module Feed = Dd_ingest.Feed
module M = Measure
open Measure

let now_ns = Trace.now_ns

(* --- a served, checkpointed engine: what every round sets up ------------- *)

type served = { txn : Txn.t; server : Server.t; store : Checkpoint.t; dir : string }

let save (m : M.t) s =
  M.timed m "checkpoint.save" (fun () -> Checkpoint.save s.store (Txn.engine s.txn));
  if M.first_round m then
    Option.iter
      (fun name -> M.sample m "checkpoint.bytes" (float_of_int (Host.file_size (Filename.concat s.dir name))))
      (Checkpoint.latest s.store)

(* Set-up: load the base tables, build the engine, publish the first
   snapshot and take the first checkpoint.  A traced run then grounds the
   same program on a twin of the base tables, to split the engine's build
   into grounding and the rest (learning and materialization). *)
let serve ctx (m : M.t) ?truth ~load program =
  let since = now_ns () in
  let s, create_ms =
    Trace.span "setup" (fun () ->
        let db = Database.create () in
        M.timed m "corpus.load" (fun () -> load db);
        let engine, create_ms = M.timed_ms m "engine.create" (fun () -> Engine.create db program) in
        let txn = Txn.create engine in
        let server = Trace.span "server.create" (fun () -> Server.create ?truth txn) in
        let dir = M.store_dir ctx m in
        let s = { txn; server; store = Checkpoint.open_store dir; dir } in
        save m s;
        (s, create_ms))
  in
  Stats.add m.setup (float_of_int (now_ns () - since) /. 1e9);
  if Trace.enabled () then begin
    let twin = Database.create () in
    Trace.span "corpus.load" (fun () -> load twin);
    let _, ground_ms = M.timed_ms m "grounding.ground" (fun () -> Grounding.ground twin program) in
    M.sample m "engine.create_minus_ground" (create_ms -. ground_ms)
  end;
  s

let release s =
  Checkpoint.abandon s.store;
  Host.rm_rf s.dir

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let served_keys snap =
  List.concat_map
    (fun r -> Array.to_list (Snapshot.relation_facts snap r))
    (Snapshot.relations snap)

(* Every served key, looked up at least once and 4096 times in all, on
   the quiescent server; each lookup is timed. *)
let read_probe (m : M.t) s =
  let keys = Array.of_list (served_keys (Server.current s.server)) in
  let n = Array.length keys in
  let reads = M.recorder ~capacity:65_536 m "server.read" in
  let misses = ref 0 in
  if n > 0 then
    for i = 0 to max 4095 (n - 1) do
      let f = keys.(i mod n) in
      let t0 = now_ns () in
      let hit = Server.lookup s.server ~relation:f.Snapshot.relation f.Snapshot.tuple in
      Stats.add reads (float_of_int (now_ns () - t0));
      if hit = None then incr misses
    done;
  M.check m "no_missed_keys" (!misses = 0) (Printf.sprintf "%d lookups of served keys missed" !misses)

(* End-of-round checks.  The last checkpoint was published after the last
   update, so recovery must reproduce the live marginals bit for bit; a
   from-scratch grounding of the same base tables (the twin) must match
   the incrementally maintained one.  In a traced run's first round the
   twin also maps a Rerun's marginals back to tuples, to measure how far
   incremental inference drifted from it. *)
let finish (m : M.t) s ~base_db ~rerun ?truth ?feed ~probe () =
  Trace.span "check" (fun () ->
      let engine = Txn.engine s.txn in
      let live = Engine.marginals engine in
      (match Trace.span "check.recover" (fun () -> Checkpoint.recover s.store) with
      | Error e -> M.check m "recover_bit_exact" false (Checkpoint.error_to_string e)
      | Ok (recovered, _) -> (
        M.check m "recover_bit_exact"
          (bits_equal (Engine.marginals recovered) live)
          "recovered marginals differ from the live engine";
        match feed with
        | None -> ()
        | Some feed ->
          let ok, why =
            Trace.span "check.feed_state" (fun () ->
                match Checkpoint.load_blob s.store ~name:"feed" with
                | Error e -> (false, Checkpoint.error_to_string e)
                | Ok None -> (false, "feed blob missing")
                | Ok (Some blob) -> (
                  match Feed.decode_state blob with
                  | Error e -> (false, e)
                  | Ok state ->
                    let back = Feed.create ~state (Txn.create recovered) in
                    ( Feed.encode_state back = Feed.encode_state feed
                      && Feed.el_bindings back = Feed.el_bindings feed,
                      "recovered feed state differs" )))
          in
          M.check m "feed_state_roundtrip" ok why));
      let snap = Server.current s.server in
      let verdict = Trace.span "check.verify" (fun () -> Snapshot.verify snap) in
      M.check m "snapshot_verify" (verdict = Ok ())
        (match verdict with Error e -> e | Ok () -> "");
      M.check m "served_equals_live" (bits_equal (Snapshot.marginals snap) live)
        "served snapshot lags the live engine";
      let g = Engine.grounding engine in
      let program = Grounding.program g in
      let twin = Trace.span "check.twin" (fun () -> Grounding.ground (base_db ()) program) in
      let a = Grounding.stats twin and b = Grounding.stats g in
      M.check m "twin_grounding_stats" (a = b)
        (Printf.sprintf "twin vars/factors/weights/evidence %d/%d/%d/%d, live %d/%d/%d/%d"
           a.Grounding.variables a.Grounding.factors a.Grounding.weights a.Grounding.evidence
           b.Grounding.variables b.Grounding.factors b.Grounding.weights b.Grounding.evidence);
      if Trace.enabled () && M.first_round m then begin
        let rerun =
          match rerun with
          | Some marginals -> marginals
          | None -> fst (M.timed m "engine.rerun" (fun () -> Engine.rerun (base_db ()) program))
        in
        let agreement =
          Quality.compare_marginals (Engine.marginals_by_relation engine)
            (Grounding.marginals_by_relation twin rerun)
        in
        M.sample m "quality.rerun_divergence" agreement.Quality.frac_diff_gt;
        Option.iter (fun truth -> M.sample m "quality.kb_f1" (Quality.evaluate g live ~truth).Quality.f1) truth
      end;
      if probe then Trace.span "check.read_probe" (fun () -> read_probe m s);
      M.count m "grounding.vars" (float_of_int b.Grounding.variables);
      M.count m "grounding.factors" (float_of_int b.Grounding.factors);
      M.count m "snapshot.facts" (float_of_int (Snapshot.num_facts snap));
      M.count m "compiled.kernel_compiles" (float_of_int (Engine.kernel_compiles engine)));
  release s

(* --- rule_dev: the Figure 9 development loop ----------------------------- *)

(* Closed loop: the analyst waits for each answer.  One round is one
   corpus seed over all five Systems presets at twice their document
   count; each preset gets the six rule updates.  In its first round a
   traced run follows each update with the Rerun of the same program, the
   paper's baseline; other rounds and untraced runs skip it, since no
   end-to-end metric reads it. *)
let rule_dev ctx (m : M.t) =
  let presets, scale = if ctx.M.smoke then ([ Systems.genomics ], 1) else (Systems.all, 2) in
  M.rounds ctx m ~round_s:1.4 ~min_rounds:4 (fun round ->
      let updates = ref 0 and busy_ms = ref 0.0 in
      List.iteri
        (fun i preset ->
          let config =
            {
              preset with
              Corpus.docs = preset.Corpus.docs * scale;
              seed = M.derive ctx "corpus" ((round * 8) + i);
            }
          in
          let corpus = Trace.span "input.generate" (fun () -> Corpus.generate config) in
          let load db = Corpus.load corpus db in
          let base_db () =
            let db = Database.create () in
            load db;
            db
          in
          let s = serve ctx m ~truth:corpus.Corpus.truth ~load (Pipeline.base_program ()) in
          let rerun = ref None in
          List.iter
            (fun rule ->
              let update = Pipeline.update_of rule in
              m.attempted <- m.attempted + 1;
              let t0 = now_ns () in
              Trace.span ~req:(M.fresh_req m) "update" (fun () ->
                  let t1 = now_ns () in
                  (match Trace.span "txn.apply" (fun () -> Txn.apply s.txn update) with
                  | Ok outcome -> M.record_update m ~call:"txn.apply" ~call_ms:(M.ms_since t1) outcome s.server
                  | Error _ -> m.failed <- m.failed + 1);
                  save m s);
              let ms = M.ms_since t0 in
              Stats.add m.latency ms;
              incr updates;
              busy_ms := !busy_ms +. ms;
              if Trace.enabled () && M.first_round m then begin
                let program = Grounding.program (Engine.grounding (Txn.engine s.txn)) in
                rerun :=
                  Some
                    (Trace.span "rerun" (fun () ->
                         let db = Trace.span "rerun.load" base_db in
                         fst (M.timed m "engine.rerun" (fun () -> Engine.rerun db program))))
              end)
            Pipeline.all_rule_ids;
          finish m s ~base_db ~rerun:!rerun ~truth:corpus.Corpus.truth ~probe:true ())
        presets;
      Stats.add m.rates (1000.0 *. float_of_int !updates /. !busy_ms))

(* --- document streams ---------------------------------------------------- *)

(* Features and supervision ride along with the candidates; the same
   program the ingestion soak drives. *)
let stream_program () =
  Program.add_rules (Pipeline.base_program ())
    (Pipeline.rules_of Pipeline.FE1 @ Pipeline.rules_of Pipeline.S1 @ Pipeline.rules_of Pipeline.S2)

let stream_config ?(rate = 60.0) ~docs ~seed () =
  { Source.default with Source.docs; entities = max 4 (docs / 8); rate; seed }

type stream = {
  served : served;
  feed : Feed.t;
  source : Source.t;
  batcher : Batcher.t;
  mutable batch_no : int;
  mutable busy_s : float;
  service : Stats.t;  (** per-batch service seconds, in arrival order *)
}

let open_stream ctx m config =
  let source = Trace.span "input.generate" (fun () -> Source.synthetic config) in
  let served = serve ctx m ~load:(fun db -> Feed.prepare_database db source) (stream_program ()) in
  {
    served;
    feed = Feed.create served.txn;
    source;
    batcher = Batcher.create ();
    batch_no = 0;
    busy_s = 0.0;
    service = Stats.create ~capacity:8192 ();
  }

(* The feed state travels with the engine: blob first, then checkpoint. *)
let publish m st =
  M.timed m "checkpoint.blob" (fun () ->
      Checkpoint.save_blob st.served.store ~name:"feed" (Feed.encode_state st.feed));
  save m st.served

(* One batch: ingest, and every tenth batch a checkpoint.  Returns the
   service time in seconds. *)
let process (m : M.t) st (batch : Batcher.batch) =
  let t0 = now_ns () in
  Trace.span ~req:(M.fresh_req m) "batch" (fun () ->
      let t1 = now_ns () in
      let report = Trace.span "feed.ingest" (fun () -> Feed.ingest st.feed batch) in
      (match report.Feed.outcome with
      | Ok outcome -> M.record_update m ~call:"feed.ingest" ~call_ms:(M.ms_since t1) outcome st.served.server
      | Error _ -> m.failed <- m.failed + report.Feed.docs);
      M.count m "feed.delta_rows_sum" (float_of_int report.Feed.delta_rows);
      M.count m "feed.merges_sum" (float_of_int report.Feed.merges);
      st.batch_no <- st.batch_no + 1;
      if st.batch_no mod 10 = 0 then publish m st);
  let service = float_of_int (now_ns () - t0) /. 1e9 in
  Stats.add st.service service;
  st.busy_s <- st.busy_s +. service;
  service

(* Latency of each document from the time it was due to the end of the
   service that committed it; the part before service began is the wait
   in the batcher and behind earlier batches. *)
let record_docs (m : M.t) (batch : Batcher.batch) ~start_s ~done_s =
  List.iter
    (fun (doc : Source.doc) ->
      Stats.add m.latency (1000.0 *. (done_s -. doc.Source.arrival_s));
      M.sample m "batcher.wait" (1000.0 *. (start_s -. doc.Source.arrival_s));
      m.attempted <- m.attempted + 1)
    batch.Batcher.docs

(* Copy of the live base tables, for the twin grounding and the Rerun. *)
let base_copy engine () =
  let live = Grounding.database (Engine.grounding engine) in
  let db = Database.create () in
  List.iter
    (fun (name, schema) ->
      let rel = Database.create_table db name schema in
      Option.iter
        (Relation.iter (fun tuple count -> Relation.insert ~count rel tuple))
        (Database.find_opt live name))
    Corpus.input_schemas;
  db

(* Service growth is the last tenth of the stream's batches over the
   first tenth, by mean service time. *)
let close_stream (m : M.t) st ~probe =
  publish m st;
  let xs = Stats.samples st.service in
  let n = Array.length xs in
  let k = max 1 (n / 10) in
  let mean_of a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  M.count m "feed.service_growth" (mean_of (Array.sub xs (n - k) k) /. mean_of (Array.sub xs 0 k));
  M.count m "canonicalizer.entities_excess"
    (float_of_int (Feed.entities_bound st.feed - Source.true_entities st.source));
  let engine = Txn.engine st.served.txn in
  finish m st.served ~base_db:(base_copy engine) ~rerun:None ~feed:st.feed ~probe ()

(* A stream's set-up costs about a millisecond and a run holds at most a
   dozen streams, so before the measured rounds [rehearsals] more set-ups
   of streams of [docs] docs are made and dropped, for a steady set-up
   median.  Each rehearses another stream seed: one seed's set-ups can
   run a third slower than another's, so a run that rehearsed one seed
   would carry that seed's offset into its median. *)
let rehearsals = 24

let rehearse ctx (m : M.t) ~docs =
  if not ctx.M.smoke then begin
    m.rehearsing <- true;
    for i = 1 to rehearsals do
      release (open_stream ctx m (stream_config ~docs ~seed:(M.derive ctx "rehearsal" i) ())).served
    done;
    m.rehearsing <- false
  end

(* Open loop on the stream clock: documents are due at the stream's own
   arrival times whatever the writer is doing, and a batch starts when it
   has closed and the writer is free.  Service times are measured; the
   queueing they cause is carried on the virtual clock, so a run does not
   sleep through the stream's idle gaps.  A round is one 600-doc stream:
   long enough that per-commit costs grow with the KB (severalfold from
   the first tenth of a stream to the last), short enough that a run
   averages a dozen stream seeds, since one stream's docs/s swings by
   about 15% with its seed. *)
let doc_stream ctx (m : M.t) =
  let docs = if ctx.M.smoke then 48 else 600 in
  let config round = stream_config ~docs ~seed:(M.derive ctx "stream" round) () in
  rehearse ctx m ~docs;
  M.rounds ctx m ~round_s:1.65 ~min_rounds:1 (fun round ->
      let st = open_stream ctx m (config round) in
      let free_at = ref 0.0 in
      let run (batch : Batcher.batch) =
        let start_s = max !free_at batch.Batcher.ready_s in
        free_at := start_s +. process m st batch;
        record_docs m batch ~start_s ~done_s:!free_at
      in
      let rec pump () =
        match Source.next st.source with
        | Some doc ->
          Option.iter run (Batcher.push st.batcher doc);
          pump ()
        | None -> Option.iter run (Batcher.drain st.batcher)
      in
      pump ();
      Stats.add m.rates (float_of_int docs /. st.busy_s);
      close_stream m st ~probe:true)

(* --- serve_mixed: reads beside a real-time writer ------------------------ *)

type reader = { ops : int; misses : int; staleness_ms : Stats.t }

(* Closed loop on its own domain: 90% point lookups of served keys, 5%
   top-10, 4% count above 0.5, 1% entity facts.  One read in 64 is
   timed, and the read rate of every chunk of 65536 reads is recorded, so
   a burst of writer interference moves the median rate little.  The key
   pool is refreshed from the served snapshot once per chunk; served
   facts are never withdrawn, so a key that was served once must always
   be found. *)
let read_loop server ~stop ~seed ~(reads_ns : Stats.t) ~(rates : Stats.t) =
  let rng = Random.State.make [| seed |] in
  let staleness_ms = Stats.create ~capacity:4096 () in
  let keys = ref [||] and values = ref [||] in
  let refresh () =
    let facts = Array.of_list (served_keys (Server.current server)) in
    keys := facts;
    (* the last column of a query tuple is a mention id *)
    values :=
      Array.of_list
        (List.filter_map
           (fun f ->
             match f.Snapshot.tuple.(Array.length f.Snapshot.tuple - 1) with
             | Value.Str v -> Some v
             | _ -> None)
           (Array.to_list facts))
  in
  let ops = ref 0 and misses = ref 0 in
  let chunk_t0 = ref 0 in
  while not (Atomic.get stop) do
    if !ops land 0xFFFF = 0 then begin
      let now = now_ns () in
      if !ops > 0 then Stats.add rates (65536e9 /. float_of_int (now - !chunk_t0));
      chunk_t0 := now;
      refresh ();
      Stats.add staleness_ms (1000.0 *. (Server.health server).Server.staleness_s)
    end;
    let timed = !ops land 63 = 0 in
    let start = if timed then now_ns () else 0 in
    let k = Random.State.int rng 100 in
    (if k < 90 then begin
       let n = Array.length !keys in
       if n > 0 then
         let f = !keys.(Random.State.int rng n) in
         if Server.lookup server ~relation:f.Snapshot.relation f.Snapshot.tuple = None then incr misses
     end
     else if k < 95 then ignore (Server.top_k server 10)
     else if k < 99 then ignore (Server.count_above server 0.5)
     else
       let n = Array.length !values in
       if n > 0 then ignore (Server.entity_facts server !values.(Random.State.int rng n)));
    if timed then Stats.add reads_ns (float_of_int (now_ns () - start));
    incr ops
  done;
  { ops = !ops; misses = !misses; staleness_ms }

(* The writer replays a stream in real time, as long as the run's time
   budget, while one reader domain queries.  It runs at 30 docs/s: beside
   the reader, a 60 docs/s writer saturates before the stream ends (its
   p90 latency reached 6 s). *)
let serve_mixed ctx (m : M.t) =
  let rate = 30.0 in
  let docs = if ctx.M.smoke then 24 else int_of_float (rate *. ctx.M.seconds) in
  let config = stream_config ~rate ~docs ~seed:(M.derive ctx "stream" 0) () in
  rehearse ctx m ~docs;
  let st = open_stream ctx m config in
  let stop = Atomic.make false in
  let reads_ns = M.recorder ~capacity:65_536 m "server.read" in
  let reader =
    Domain.spawn (fun () -> read_loop st.served.server ~stop ~seed:(M.derive ctx "reader" 0) ~reads_ns ~rates:m.rates)
  in
  let t0 = now_ns () in
  let now_s () = float_of_int (now_ns () - t0) /. 1e9 in
  let run batch =
    let start_s = now_s () in
    ignore (process m st batch);
    record_docs m batch ~start_s ~done_s:(now_s ())
  in
  (* Sleep until [due], in steps of at most 2 ms so a batch whose deadline
     passes meanwhile closes on time. *)
  let rec wait_until due =
    let now = now_s () in
    match Batcher.due st.batcher ~now_s:now with
    | Some batch ->
      run batch;
      wait_until due
    | None ->
      if now < due then begin
        Trace.span "writer.idle" (fun () -> Unix.sleepf (Float.min 0.002 (due -. now)));
        wait_until due
      end
  in
  let rec pump () =
    match Source.next st.source with
    | Some doc ->
      wait_until doc.Source.arrival_s;
      Option.iter run (Batcher.push st.batcher doc);
      pump ()
    | None -> Option.iter run (Batcher.drain st.batcher)
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true) pump;
  let r = Domain.join reader in
  m.attempted <- m.attempted + r.ops;
  m.failed <- m.failed + r.misses;
  M.check m "no_missed_keys" (r.misses = 0)
    (Printf.sprintf "%d of %d reader lookups missed a served key" r.misses r.ops);
  M.extra m "writer_docs_per_s" (float_of_int docs /. st.busy_s) "1/s";
  Hashtbl.replace m.recorders "server.staleness" r.staleness_ms;
  close_stream m st ~probe:false;
  m.rounds <- 1

(* --- batch_build: build and rebuild News-shaped corpora -------------------- *)

(* The first nine corpora are set up as served engines (load, create
   with the full program, first snapshot, first checkpoint): that is the
   set-up.  Every corpus, those included, is then rebuilt from scratch by
   Rerun, the measured unit.  At 700 docs every graph has well over the
   engine's 600-variable limit for a variational materialization, so every
   build takes the same path; at 500 docs about one corpus in thirty fell
   under it and its build took 4 s and 40 MiB more. *)
let batch_build ctx (m : M.t) =
  let docs, setups = if ctx.M.smoke then (60, 1) else (700, 9) in
  let config round =
    {
      Systems.news with
      Corpus.docs;
      entities = docs * 2 / 5;
      truth_pairs_per_relation = max 10 (docs / 20);
      seed = M.derive ctx "corpus" round;
    }
  in
  M.rounds ctx m ~round_s:0.14 ~min_rounds:(max 100 setups) (fun round ->
      let corpus = Trace.span "input.generate" (fun () -> Corpus.generate (config round)) in
      let load db = Corpus.load corpus db in
      let base_db () =
        let db = Database.create () in
        load db;
        db
      in
      let served =
        if round < setups then
          Some (serve ctx m ~truth:corpus.Corpus.truth ~load (Pipeline.full_program ()))
        else None
      in
      let marginals =
        Trace.span ~req:(M.fresh_req m) "rerun" (fun () ->
            let db = Trace.span "rerun.load" base_db in
            m.attempted <- m.attempted + 1;
            let (marginals, _), ms = M.timed_ms m "engine.rerun" (fun () -> Engine.rerun db (Pipeline.full_program ())) in
            Stats.add m.latency ms;
            Stats.add m.rates (1000.0 *. float_of_int docs /. ms);
            marginals)
      in
      Option.iter
        (fun s -> finish m s ~base_db ~rerun:(Some marginals) ~truth:corpus.Corpus.truth ~probe:true ())
        served)

let all = [ ("rule_dev", rule_dev); ("doc_stream", doc_stream); ("batch_build", batch_build); ("serve_mixed", serve_mixed) ]
