(* What one run accumulates, and how the declared metrics are computed
   from it.  Workloads time their calls with [timed]; per-call times go
   to named recorders that feed the per-layer percentiles, counts go to
   first-round tallies, and the spans (traced runs only) give each
   layer's share of the run's wall time. *)

module Engine = Dd_core.Engine
module Txn = Dd_core.Txn
module Grounding = Dd_core.Grounding
module Server = Dd_serve.Server

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  smoke : bool;
  dir : string;  (** scratch directory for checkpoint stores *)
}

type t = {
  started_ns : int;
  mutable next_req : int;
  mutable next_store : int;
  mutable rounds : int;  (** rounds completed *)
  mutable rehearsing : bool;  (** set-ups made for the set-up median only; they feed no layer metric *)
  (* end to end *)
  setup : Stats.t;  (** seconds *)
  latency : Stats.t;  (** ms, the workload's unit of work *)
  rates : Stats.t;  (** work per busy second, one sample per window of the run *)
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * string option) list;  (** newest first; [Some why] = failed *)
  mutable extras : (string * float * string) list;  (** newest first *)
  (* per layer *)
  recorders : (string, Stats.t) Hashtbl.t;  (** per-call values, by span name *)
  counts : (string, float) Hashtbl.t;  (** first-round tallies, by metric name *)
}

let create () =
  {
    started_ns = Trace.now_ns ();
    next_req = 0;
    next_store = 0;
    rounds = 0;
    rehearsing = false;
    setup = Stats.create ~capacity:4096 ();
    latency = Stats.create ();
    rates = Stats.create ~capacity:8192 ();
    attempted = 0;
    failed = 0;
    checks = [];
    extras = [];
    recorders = Hashtbl.create 32;
    counts = Hashtbl.create 32;
  }

let elapsed_s t = float_of_int (Trace.now_ns () - t.started_ns) /. 1e9

let fresh_req t =
  t.next_req <- t.next_req + 1;
  t.next_req

let recorder ?(capacity = 8192) t name =
  match Hashtbl.find_opt t.recorders name with
  | Some r -> r
  | None ->
    let r = Stats.create ~capacity () in
    Hashtbl.replace t.recorders name r;
    r

let sample t name v = if not t.rehearsing then Stats.add (recorder t name) v

(* Counts cover the first round only: it is the same fixed-size scenario
   on every commit, so for a given seed a count repeats exactly however
   fast the run went. *)
let first_round t = t.rounds = 0

let count t name v =
  if first_round t && not t.rehearsing then Hashtbl.replace t.counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let ms_since t0 = float_of_int (Trace.now_ns () - t0) /. 1e6

(* Run [f] inside span [name] and record its duration (ms) under [name];
   returns the result and the duration. *)
let timed_ms t name f =
  Trace.span name (fun () ->
      let t0 = Trace.now_ns () in
      let v = f () in
      let ms = ms_since t0 in
      sample t name ms;
      (v, ms))

let timed t name f = fst (timed_ms t name f)

let check t name ok detail = t.checks <- (name, if ok then None else Some detail) :: t.checks

let extra t name value unit = t.extras <- (name, value, unit) :: t.extras

(* A run is a whole number of rounds, fixed by [seconds]: as many as take
   about that long on the reference host, where a round takes about
   [round_s], and at least [min_rounds] so every percentile has its
   samples.  A faster commit runs the same rounds in less time, so both
   sides of a comparison measure identical inputs.  No round starts after
   [hard_cap_s], so a pathological commit still finishes within three
   minutes. *)
let hard_cap_s = 140.0

let rounds ctx t ~round_s ~min_rounds f =
  let n = if ctx.smoke then 1 else max min_rounds (int_of_float (Float.round (ctx.seconds /. round_s))) in
  while t.rounds < n && (t.rounds = 0 || elapsed_s t < hard_cap_s) do
    f t.rounds;
    t.rounds <- t.rounds + 1
  done

(* Per-round input seeds, fixed by the run seed. *)
let derive ctx tag round = Hashtbl.hash (ctx.seed, ctx.workload, tag, round) land 0x3FFFFFF

let store_dir ctx t =
  t.next_store <- t.next_store + 1;
  Filename.concat ctx.dir (Printf.sprintf "store-%d" t.next_store)

let strategy_name = function
  | Engine.Used_sampling -> "sampling"
  | Engine.Used_variational -> "variational"
  | Engine.Used_full_gibbs -> "full_gibbs"

(* Fold one committed update into the layer metrics.  [call] is the span
   of the bench call that committed it, [call_ms] its duration.  The
   engine's own phase times and the snapshot swap the commit triggered
   are recorded, subtracted from the call for its self time, and laid out
   as derived children of its span. *)
let record_update t ~call ~call_ms (outcome : Txn.outcome) server =
  let r = outcome.Txn.report in
  let g = r.Engine.grounding in
  let phases =
    [
      ("grounding.extend", 1000.0 *. r.Engine.grounding_seconds);
      ("learner", 1000.0 *. r.Engine.learning_seconds);
      ("inference", 1000.0 *. r.Engine.inference_seconds);
      ("snapshot.swap", (Server.health server).Server.last_swap_ms);
    ]
  in
  List.iter (fun (name, ms) -> sample t name ms) phases;
  sample t (call ^ ".self") (call_ms -. List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 phases);
  Trace.derive (List.map (fun (name, ms) -> (name, ms /. 1000.0)) phases);
  let strategy = strategy_name r.Engine.strategy in
  count t ("optimizer." ^ strategy ^ "_count") 1.0;
  count t ("inference." ^ strategy ^ "_ms_sum") (1000.0 *. r.Engine.inference_seconds);
  count t "learner.ms_sum" (1000.0 *. r.Engine.learning_seconds);
  count t "grounding.flips_sum" (float_of_int g.Grounding.flips);
  count t "grounding.new_vars_sum" (float_of_int g.Grounding.new_vars);
  count t "grounding.new_factors_sum" (float_of_int g.Grounding.new_factors);
  count t "txn.attempts_sum" (float_of_int outcome.Txn.attempts);
  if outcome.Txn.rung <> Txn.Direct then count t "txn.nondirect_count" 1.0;
  match r.Engine.acceptance_rate with
  | Some a when first_round t -> sample t "metropolis.acceptance" a
  | _ -> ()

(* --- metric computation ------------------------------------------------ *)

(* Each end-to-end metric, or why it cannot be reported. *)
let end_to_end t =
  [
    ("setup_s", Stats.median t.setup);
    ("latency_p50_ms", Stats.percentile t.latency 0.5);
    ("latency_p90_ms", Stats.percentile t.latency 0.9);
    ("throughput_per_s", Stats.median t.rates);
    ("peak_rss_mib", Ok (Host.peak_rss_mib ()));
  ]

(* Span names whose self time each share adds up; every span the
   benchmark opens belongs to one. *)
let share_groups =
  [
    ("share.input_pct", [ "input.generate" ]);
    ("share.setup_pct", [ "setup"; "corpus.load"; "engine.create"; "server.create" ]);
    ("share.feed_pct", [ "batch"; "feed.ingest" ]);
    ("share.txn_pct", [ "update"; "txn.apply" ]);
    ("share.grounding_pct", [ "grounding.extend"; "grounding.ground" ]);
    ("share.learner_pct", [ "learner" ]);
    ("share.inference_pct", [ "inference" ]);
    ("share.snapshot_pct", [ "snapshot.swap" ]);
    ("share.checkpoint_pct", [ "checkpoint.save"; "checkpoint.blob" ]);
    ("share.rerun_pct", [ "rerun"; "rerun.load"; "engine.rerun" ]);
    ("share.checks_pct", [ "check"; "check.recover"; "check.feed_state"; "check.verify"; "check.twin"; "check.read_probe" ]);
    ("share.idle_pct", [ "writer.idle" ]);
  ]

(* A per-layer value a workload lacks reads 0.  Medians need only one
   sample; a tail percentile the sample count cannot support reads 0 and
   is reported on stderr. *)
let per_layer t ~gc0 ~gc1 ~stop_ns =
  let find name = Hashtbl.find_opt t.recorders name in
  let median name = match Option.map Stats.median (find name) with Some (Ok v) -> v | _ -> 0.0 in
  let tail name p =
    match find name with
    | None -> 0.0
    | Some r -> (
      match Stats.percentile r p with
      | Ok v -> v
      | Error why ->
        Printf.eprintf "per-layer %s p%g reads 0: %s\n" name (100.0 *. p) why;
        0.0)
  in
  let mean name = match find name with Some r -> Stats.mean r | None -> 0.0 in
  let counted name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name) in
  let spans = Trace.spans () in
  let wall_ns = float_of_int (stop_ns - t.started_ns) in
  let self = Trace.self_ns spans in
  let self_of name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt self name)) in
  let shares =
    List.map
      (fun (metric, names) -> (metric, 100.0 *. List.fold_left (fun acc n -> acc +. self_of n) 0.0 names /. wall_ns))
      share_groups
  in
  [
    ("feed.self_ms_p50", median "feed.ingest.self");
    ("batcher.wait_ms_p90", tail "batcher.wait" 0.9);
    ("feed.service_growth", counted "feed.service_growth");
    ("feed.delta_rows_sum", counted "feed.delta_rows_sum");
    ("feed.merges_sum", counted "feed.merges_sum");
    ("canonicalizer.entities_excess", counted "canonicalizer.entities_excess");
    ("corpus.load_s", median "corpus.load" /. 1000.0);
    ("grounding.ground_s", median "grounding.ground" /. 1000.0);
    ("grounding.extend_ms_p50", median "grounding.extend");
    ("grounding.flips_sum", counted "grounding.flips_sum");
    ("grounding.new_vars_sum", counted "grounding.new_vars_sum");
    ("grounding.new_factors_sum", counted "grounding.new_factors_sum");
    ("grounding.vars", counted "grounding.vars");
    ("grounding.factors", counted "grounding.factors");
    ("engine.create_minus_ground_s", median "engine.create_minus_ground" /. 1000.0);
    ("learner.ms_sum", counted "learner.ms_sum");
    ("inference.ms_p50", median "inference");
    ("inference.sampling_ms_sum", counted "inference.sampling_ms_sum");
    ("inference.variational_ms_sum", counted "inference.variational_ms_sum");
    ("inference.full_gibbs_ms_sum", counted "inference.full_gibbs_ms_sum");
    ("optimizer.sampling_count", counted "optimizer.sampling_count");
    ("optimizer.variational_count", counted "optimizer.variational_count");
    ("optimizer.full_gibbs_count", counted "optimizer.full_gibbs_count");
    ("metropolis.acceptance_mean", mean "metropolis.acceptance");
    ("compiled.kernel_compiles", counted "compiled.kernel_compiles");
    ("engine.rerun_ms_p50", median "engine.rerun");
    ("txn.apply_self_ms_p50", median "txn.apply.self");
    ("txn.nondirect_count", counted "txn.nondirect_count");
    ("txn.attempts_sum", counted "txn.attempts_sum");
    ("snapshot.swap_ms_p50", median "snapshot.swap");
    ("server.read_ns_p50", median "server.read");
    ("server.read_ns_p99", tail "server.read" 0.99);
    ("server.staleness_ms_p50", median "server.staleness");
    ("snapshot.facts", counted "snapshot.facts");
    ("checkpoint.save_ms_p50", median "checkpoint.save");
    ("checkpoint.blob_ms_p50", median "checkpoint.blob");
    ("checkpoint.bytes_per_save", mean "checkpoint.bytes");
    ("quality.rerun_divergence", mean "quality.rerun_divergence");
    ("quality.kb_f1", mean "quality.kb_f1");
    ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
  ]
  @ shares
  @ [
      ("trace.coverage_pct", 100.0 *. Trace.coverage spans ~start_ns:t.started_ns ~stop_ns);
      ("trace.overhead_pct", 100.0 *. Trace.per_span_ns () *. float_of_int (Array.length spans) /. wall_ns);
    ]
