(* The metrics the benchmark declares, in BENCHMARK.json order.  Every
   workload reports every metric: the end-to-end set in untraced runs,
   the per-layer set in traced runs.  A per-layer metric a workload does
   not exercise reads 0.  What each means per workload, and which
   end-to-end metric each layer metric should move, is in README.md. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** allowed worsening as a share of the parent's median *)
}

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_p90_ms" "ms" Lower 0.25;
    e2e "throughput_per_s" "1/s" Higher 0.25;
    e2e "peak_rss_mib" "MiB" Lower 0.2;
  ]

(* Names ending in _p50/_p90/_p99 are percentiles of per-call times over
   the whole run; _sum, _count and the graph sizes are exact counts over
   the run's first round, the same fixed-size scenario on every commit. *)
let per_layer =
  [
    (* ingest *)
    layer "feed.self_ms_p50" "ms" Lower;
    layer "batcher.wait_ms_p90" "ms" Lower;
    layer "feed.service_growth" "ratio" Lower;
    layer "feed.delta_rows_sum" "count" Lower;
    layer "feed.merges_sum" "count" Lower;
    layer "canonicalizer.entities_excess" "count" Lower;
    (* relational, datalog, grounding *)
    layer "corpus.load_s" "s" Lower;
    layer "grounding.ground_s" "s" Lower;
    layer "grounding.extend_ms_p50" "ms" Lower;
    layer "grounding.flips_sum" "count" Lower;
    layer "grounding.new_vars_sum" "count" Lower;
    layer "grounding.new_factors_sum" "count" Lower;
    layer "grounding.vars" "count" Lower;
    layer "grounding.factors" "count" Lower;
    (* learning, inference, strategy choice *)
    layer "engine.create_minus_ground_s" "s" Lower;
    layer "learner.ms_sum" "ms" Lower;
    layer "inference.ms_p50" "ms" Lower;
    layer "inference.sampling_ms_sum" "ms" Lower;
    layer "inference.variational_ms_sum" "ms" Lower;
    layer "inference.full_gibbs_ms_sum" "ms" Lower;
    layer "optimizer.sampling_count" "count" Higher;
    layer "optimizer.variational_count" "count" Lower;
    layer "optimizer.full_gibbs_count" "count" Lower;
    layer "metropolis.acceptance_mean" "ratio" Higher;
    layer "compiled.kernel_compiles" "count" Lower;
    layer "engine.rerun_ms_p50" "ms" Lower;
    (* transactions *)
    layer "txn.apply_self_ms_p50" "ms" Lower;
    layer "txn.nondirect_count" "count" Lower;
    layer "txn.attempts_sum" "count" Lower;
    (* serving *)
    layer "snapshot.swap_ms_p50" "ms" Lower;
    layer "server.read_ns_p50" "ns" Lower;
    layer "server.read_ns_p99" "ns" Lower;
    layer "server.staleness_ms_p50" "ms" Lower;
    layer "snapshot.facts" "count" Lower;
    (* checkpoints *)
    layer "checkpoint.save_ms_p50" "ms" Lower;
    layer "checkpoint.blob_ms_p50" "ms" Lower;
    layer "checkpoint.bytes_per_save" "bytes" Lower;
    (* quality and process *)
    layer "quality.rerun_divergence" "ratio" Lower;
    layer "quality.kb_f1" "ratio" Higher;
    layer "gc.major_collections" "count" Lower;
    layer "gc.minor_mwords" "Mwords" Lower;
    (* share of the run's wall time, by the self time of bench-side spans *)
    layer "share.input_pct" "%" Lower;
    layer "share.setup_pct" "%" Lower;
    layer "share.feed_pct" "%" Lower;
    layer "share.txn_pct" "%" Lower;
    layer "share.grounding_pct" "%" Lower;
    layer "share.learner_pct" "%" Lower;
    layer "share.inference_pct" "%" Lower;
    layer "share.snapshot_pct" "%" Lower;
    layer "share.checkpoint_pct" "%" Lower;
    layer "share.rerun_pct" "%" Lower;
    layer "share.checks_pct" "%" Lower;
    layer "share.idle_pct" "%" Higher;
    layer "trace.coverage_pct" "%" Higher;
    layer "trace.overhead_pct" "%" Lower;
  ]
