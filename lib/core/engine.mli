(** The incremental DeepDive engine (Section 3 end-to-end).

    [create] builds as [rerun] does — grounds the program, compiles one
    {!Dd_inference.Compiled} kernel, learns initial weights and infers
    on it — and then materializes both strategies from that kernel.
    [apply_update] then executes one iteration of the
    KBC development loop: incremental grounding (DRed), incremental
    learning (warmstarted contrastive divergence), and inference by the
    one strategy {!Optimizer.decide} picks from what the engine observes,
    each strategy one call.

    The deltas are always expressed against the *materialized* baseline, so
    a single materialization serves many successive updates (its cost
    amortizes, Section 4.2); call [rematerialize] to refresh the baseline.

    [rerun] is the paper's Rerun baseline: ground, learn and infer from
    scratch.  A fresh engine's {!marginals} are its answer, bit for
    bit. *)

module Graph = Dd_fgraph.Graph
module Tuple = Dd_relational.Tuple
module Database = Dd_relational.Database

type options = {
  materialization_samples : int;
  inference_chain : int;  (** MH proposals / Gibbs sweeps per inference *)
  burn_in : int;
  lambda : float;
      (** variational regularization; every graph gets the variational
          artifact ({!Dd_variational.Approx}, one coupled block at a time)
          unless [disable_variational] *)
  acceptance_floor : float;  (** read by {!Optimizer.after_probe} *)
  initial_learning_epochs : int;
      (** from-scratch learning runs at {!Dd_inference.Learner.default_cd}'s
          rate *)
  incremental_learning_epochs : int;
  incremental_learning_rate : float;
      (** warmstart fine-tuning is gentler than from-scratch learning, which
          also keeps the sampling approach's acceptance rate usable *)
  disable_sampling : bool;  (** lesion: NoSampling ({!Optimizer.decide}) *)
  disable_variational : bool;  (** lesion: NoRelaxation — no variational artifact *)
  workload_aware : bool;  (** false = the NoWorkloadInfo lesion ({!Optimizer.decide}) *)
  parallel_domains : int;
      (** domains used for materialization sampling and full-Gibbs
          inference ({!Dd_parallel}).  The default 1 keeps the sequential
          code paths and bit-exact seed reproducibility; [N > 1] draws
          materialization worlds from [N] independent chains and runs
          full-Gibbs fallbacks as color-synchronous parallel sweeps —
          deterministic per [(seed, N)], but a different chain than
          [N = 1]. *)
  step_budget : Dd_util.Budget.spec;
      (** cooperative deadline for one [apply_update] step, polled per
          Gibbs sweep / color phase / worker-slice chunk and per DRed
          batch; exhaustion raises {!Dd_util.Budget.Exceeded},
          which {!Txn} classifies as [`Inference_timeout].  Default
          [Unlimited]. *)
  seed : int;
}

val default_options : options

type strategy_used =
  | Used_sampling  (** one MH chain over fresh stored worlds from the store cursor *)
  | Used_variational
      (** also a sampling pick that {!Optimizer.after_probe} resorted: its
          probe's worlds stay read, and the report carries the probe's
          acceptance rate *)
  | Used_full_gibbs
      (** {!Optimizer.Exact} ({!report.exact_components} enumerated) or
          {!Optimizer.Real_graph_chain}: inference on the real graph *)

val strategy_used_to_string : strategy_used -> string

type report = {
  strategy : strategy_used;
  grounding_seconds : float;
  learning_seconds : float;
  inference_seconds : float;
  acceptance_rate : float option;
  exact_components : int;
      (** coupled components answered by enumeration; 0 unless the exact
          rule fired on a graph with coupled variables *)
  grounding : Grounding.report;
  marginals : float array;
}

type t

val create : ?options:options -> Database.t -> Program.t -> t
(** Ground, compile one kernel, learn ([initial_learning_epochs] of
    {!Dd_inference.Learner.train_cd}) and infer on it exactly as
    {!rerun} does, from the same PRNG stream; then draw the
    materialization from the same kernel and stream, and keep the
    kernel as the engine's cache.  The fault points
    [engine.create.post_ground] and [engine.create.post_learn] fire
    here (and in {!rebuild}), not in {!rerun}. *)

val grounding : t -> Grounding.t

val graph : t -> Graph.t

val materialization : t -> Materialize.t

val marginals : t -> float array
(** Most recent inference result; on a fresh engine, {!rerun}'s
    marginals on the same database, program and options, bit for
    bit. *)

val marginals_by_relation : t -> (string * Tuple.t * float) list

val kernel_compiles : t -> int
(** How many times the engine has compiled a flat Gibbs kernel
    ({!Dd_inference.Compiled}).  {!create} compiles one, which serves
    its learning, inference and materialization, so a fresh engine
    reads 1.  Stays flat across weight-only incremental steps — the
    cached kernel is reused with refreshed weight slots — and across
    {e appending} updates, which add only variables, weights and
    factors over new variables, and/or move evidence: those
    {!Dd_inference.Compiled.extend} the cached kernel.  It grows when an
    update added a body to an existing factor or a factor over an
    existing variable, when grounding reports [needs_rebuild], and on
    the first use after the cache was dropped (a failed update, or
    {!without_kernel}). *)

val apply_update : t -> Grounding.update -> report
(** One iteration of the incremental loop.  When grounding reports
    [needs_rebuild], the engine rebuilds from scratch as {!rerun} does
    ([Used_full_gibbs], {!rerun}'s marginals) and rematerializes.  On an
    exception (a
    {!Grounding.Error}, {!Dd_util.Budget.Exceeded}, or an injected fault)
    the engine may be left partially mutated — wrap the call in
    {!txn_begin} / {!txn_rollback} (or use {!Txn.apply}, which does) when
    the caller must survive failures. *)

type txn
(** A transaction over one [apply_update]: cheap value snapshots of the
    engine's small mutable state plus undo logs over the database
    relations, the factor graph, and the grounding tables.  The clean
    path pays journal bookkeeping only — no copy of the database or
    graph. *)

val txn_begin : t -> txn
(** Arm the undo logs and snapshot the pre-update state. *)

val txn_commit : t -> txn -> unit
(** Detach the undo logs, keeping the update's effects; later writes are
    no longer journaled. *)

val txn_rollback : t -> txn -> unit
(** Restore the engine to its state at {!txn_begin}.  Idempotent: if a
    rollback is itself interrupted (the [engine.txn_rollback.*] fault
    points), running it again converges to the same restored state. *)

val rematerialize : t -> float
(** Refresh the materialized baseline; returns elapsed seconds.  Marks
    the engine as needing a base (see {!committed_log}). *)

(** {2 Commit log}

    A durable store ({!Dd_kbc.Checkpoint}) persists an engine as a full
    base plus the updates committed since.  The engine keeps those
    updates until a store drains them; replaying them through
    {!apply_update} on the base reproduces the engine bit for bit.  A
    change that replay cannot reproduce marks the engine as needing a
    base instead: {!create}, {!rebuild}, {!rematerialize}, an
    {!apply_update} that raised, and {!require_base}.  {!txn_rollback}
    restores the log with the rest of the state; rollback also restores
    the PRNG, so a retried update replays exactly.  The log is bounded: past 32 undrained updates it
    is dropped and the engine needs a base. *)

type identity
(** A token naming one in-memory engine, compared with [==].  {!create}
    makes a fresh one, and so does unmarshalling a saved engine, so a
    store can recognise the engine it last based without keeping it
    alive. *)

val identity : t -> identity

val without_kernel : t -> t
(** A shallow copy sharing every field but the compiled-kernel cache,
    which it leaves empty — what a store marshals: the kernel is a pure
    function of the graph, recompiled on first use. *)

val commits : t -> int
(** Updates this engine has committed, counted from {!create}; a saved
    and reloaded engine and a {!rebuild} continue the count.  A store
    numbers its versions and WAL entries by it. *)

val committed_log : t -> (int * Grounding.update) list option
(** The updates committed since the log was last drained, oldest first,
    each with its commit number (the last is {!commits}); [None] when
    the engine needs a base. *)

val drain_log : t -> unit
(** Empty the log and clear the needs-base mark: a store has made the
    engine's current state durable. *)

val require_base : t -> unit
(** Mark the engine as needing a base — for changes made outside
    {!apply_update}, such as scrub repairing a live table in place. *)

val rebuild : t -> t
(** A fresh engine built from scratch ({!create}, same options) over this
    engine's database and program — the {!Txn} Rerun rung.  It continues
    this engine's {!commits} and needs a base. *)

val rerun : ?options:options -> Database.t -> Program.t -> float array * float
(** Ground, compile one kernel, learn and infer on it from scratch —
    {!create}'s build without its materialization; returns (marginals,
    seconds).  The marginals index the fresh grounding's variables. *)

val rerun_grounding : options -> Database.t -> Program.t -> Grounding.t * float array
(** {!rerun} without the clock, also returning the fresh grounding its
    marginals index — for callers that evaluate the Rerun output. *)
