(* Serving: what the snapshot-swap read path costs and buys.

   Read throughput: reader domains hammer [Server.lookup] over a fixed key
   set against a quiescent server — the pure cost of the read path (one
   atomic load and one counter increment around two hash probes) at
   1/2/4/8 domains.

   Swap latency: the six-snapshot KBC sequence driven through the
   supervisor with the server attached; every commit builds and swaps a
   snapshot, and the server's own health surface reports the build+publish
   latency distribution.  A second row drives one 600-doc synthetic
   document stream through the feed, about 140 publishes over a KB that
   grows to about 1,000 facts: the stream-shaped publish, where each
   snapshot extends the previous one's layout.

   Staleness vs cadence: a sampler domain watches the health surface while
   the writer applies the sequence at different paces; mean wall-clock
   staleness tracks the update interval (readers always lag the writer by
   about half a cadence plus the swap cost). *)

open Harness
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Database = Dd_relational.Database
module Engine = Dd_core.Engine
module Txn = Dd_core.Txn
module Pool = Dd_parallel.Pool
module Snapshot = Dd_serve.Snapshot
module Server = Dd_serve.Server
module Program = Dd_core.Program
module Source = Dd_ingest.Source
module Batcher = Dd_ingest.Batcher
module Feed = Dd_ingest.Feed

let bench_options =
  {
    Engine.default_options with
    Engine.materialization_samples = 300;
    inference_chain = 120;
    initial_learning_epochs = 25;
    incremental_learning_epochs = 6;
  }

let sequence = Pipeline.all_rule_ids

let make_engine config =
  let corpus = Corpus.generate config in
  let db = Database.create () in
  Corpus.load corpus db;
  (corpus, Engine.create ~options:bench_options db (Pipeline.base_program ()))

(* --- read throughput ----------------------------------------------------- *)

let throughput server keys ~domains ~per_domain =
  let pool = Pool.create domains in
  let n = Array.length keys in
  let timer = Timer.start () in
  Pool.run pool (fun d ->
      (* Stride by a per-domain offset so domains walk different keys. *)
      let i = ref (d * 7919 mod n) in
      for _ = 1 to per_domain do
        let relation, tuple = Array.unsafe_get keys !i in
        ignore (Server.lookup server ~relation tuple);
        incr i;
        if !i = n then i := 0
      done);
  let seconds = Timer.elapsed_s timer in
  Pool.shutdown pool;
  float_of_int (domains * per_domain) /. seconds

(* --- stream publishes ------------------------------------------------------- *)

(* The document-stream program and shape of [bench/e2e]'s doc_stream
   workload: features and supervision ride along with the candidates. *)
let stream_program () =
  Program.add_rules (Pipeline.base_program ())
    (Pipeline.rules_of Pipeline.FE1 @ Pipeline.rules_of Pipeline.S1 @ Pipeline.rules_of Pipeline.S2)

let stream_run ~docs =
  let config = { Source.default with Source.docs; entities = max 4 (docs / 8); rate = 60.0; seed = 1 } in
  let db = Database.create () in
  Feed.prepare_database db (Source.synthetic config);
  let txn = Txn.create (Engine.create db (stream_program ())) in
  let server = Server.create txn in
  let summary = Feed.run (Feed.create txn) (Source.synthetic config) (Batcher.create ()) in
  if summary.Feed.run_quarantined > 0 then failwith "bench stream quarantined a batch";
  let snap = Server.current server in
  (match Snapshot.verify snap with
  | Ok () -> ()
  | Error m -> failwith ("stream snapshot failed its audit: " ^ m));
  (Snapshot.num_facts snap, Server.health server)

(* --- staleness vs update cadence ------------------------------------------ *)

let staleness_run config ~pace_s =
  let _, engine = make_engine config in
  let txn = Txn.create engine in
  let server = Server.create txn in
  let stop = Atomic.make false in
  let samples = ref [] in
  let pool = Pool.create 2 in
  Pool.run pool (fun d ->
      if d = 0 then
        Fun.protect
          ~finally:(fun () -> Atomic.set stop true)
          (fun () ->
            List.iter
              (fun rid ->
                (match Txn.apply txn (Pipeline.update_of rid) with
                | Ok _ -> ()
                | Error e -> failwith ("bench update quarantined: " ^ Txn.error_message e));
                if pace_s > 0.0 then Unix.sleepf pace_s)
              sequence)
      else begin
        let acc = ref [] in
        while not (Atomic.get stop) do
          acc := (Server.health server).Server.staleness_s :: !acc;
          Unix.sleepf 0.0002
        done;
        samples := !acc
      end);
  Pool.shutdown pool;
  let h = Server.health server in
  (!samples, h)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let serving ~full =
  section "Serving: snapshot reads, swap latency, staleness vs cadence";
  let config =
    let base = Systems.news in
    if full then { base with Corpus.docs = base.Corpus.docs * 2 } else base
  in

  (* One served engine state for the read-path measurements: the full
     six-snapshot sequence applied, calibration on. *)
  let corpus, engine = make_engine config in
  let txn = Txn.create engine in
  let server = Server.create ~truth:corpus.Corpus.truth txn in
  List.iter
    (fun rid ->
      match Txn.apply txn (Pipeline.update_of rid) with
      | Ok _ -> ()
      | Error e -> failwith ("bench update quarantined: " ^ Txn.error_message e))
    sequence;
  let snap = Server.current server in
  (match Snapshot.verify snap with
  | Ok () -> ()
  | Error m -> failwith ("served snapshot failed its audit: " ^ m));
  metric "served_facts" (float_of_int (Snapshot.num_facts snap));
  metric "epochs_published" (float_of_int (Snapshot.epoch snap));

  let keys =
    Array.of_list
      (List.map (fun (r, t, _) -> (r, t)) (Engine.marginals_by_relation (Txn.engine txn)))
  in
  let per_domain = if full then 2_000_000 else 500_000 in
  note "Read throughput over %d keys (%d lookups per domain):" (Array.length keys) per_domain;
  let table = Table.create [ "reader domains"; "lookups/s (aggregate)"; "lookups/s (per domain)" ] in
  List.iter
    (fun domains ->
      let rate = throughput server keys ~domains ~per_domain in
      Table.add_row table
        [
          string_of_int domains;
          Printf.sprintf "%.3g" rate;
          Printf.sprintf "%.3g" (rate /. float_of_int domains);
        ];
      metric (Printf.sprintf "lookups_per_s_domains_%d" domains) rate)
    [ 1; 2; 4; 8 ];
  Table.print table;

  (* Swap latency: the health surface accumulated one swap per commit
     (plus calibration — the expensive snapshot path). *)
  let h = Server.health server in
  note "\nSnapshot swap latency over %d swaps: last %.2fms  mean %.2fms  max %.2fms"
    h.Server.swaps h.Server.last_swap_ms h.Server.mean_swap_ms h.Server.max_swap_ms;
  metric "swap_count" (float_of_int h.Server.swaps);
  metric "swap_mean_ms" h.Server.mean_swap_ms;
  metric "swap_max_ms" h.Server.max_swap_ms;

  let docs = 600 in
  let facts, h = stream_run ~docs in
  note "Stream publishes (%d docs): %d swaps to %d facts, mean %.3fms, last %.3fms" docs
    h.Server.swaps facts h.Server.mean_swap_ms h.Server.last_swap_ms;
  metric "stream_facts" (float_of_int facts);
  metric "stream_swaps" (float_of_int h.Server.swaps);
  metric "stream_swap_mean_ms" h.Server.mean_swap_ms;
  metric "stream_swap_last_ms" h.Server.last_swap_ms;

  note "\nRead staleness vs update cadence (health sampled every 0.2ms):";
  let table = Table.create [ "cadence"; "samples"; "mean staleness (ms)"; "max staleness (ms)" ] in
  List.iter
    (fun (label, pace_s) ->
      let samples, end_health = staleness_run config ~pace_s in
      let mean_ms = 1000.0 *. mean samples in
      let max_ms = 1000.0 *. List.fold_left max 0.0 samples in
      Table.add_row table
        [
          label;
          string_of_int (List.length samples);
          Printf.sprintf "%.2f" mean_ms;
          Printf.sprintf "%.2f" max_ms;
        ];
      let key = "staleness_" ^ label in
      metric (key ^ "_mean_ms") mean_ms;
      metric (key ^ "_max_ms") max_ms;
      metric (key ^ "_commits_behind_final") (float_of_int end_health.Server.staleness_commits))
    [ ("tight", 0.0); ("cadence_10ms", 0.01); ("cadence_50ms", 0.05) ];
  Table.print table

let () = register "serving" "Serving: read throughput, swap latency, staleness" serving
