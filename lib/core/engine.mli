(** The incremental DeepDive engine (Section 3 end-to-end).

    [create] grounds the program, learns initial weights, and materializes
    both strategies.  [apply_update] then executes one iteration of the
    KBC development loop: incremental grounding (DRed), incremental
    learning (warmstarted contrastive divergence), strategy selection (the
    Section 3.3 optimizer, with lesion switches for the Figure 11
    experiments), and incremental inference against the materialization.

    The deltas are always expressed against the *materialized* baseline, so
    a single materialization serves many successive updates (its cost
    amortizes, Section 4.2); call [rematerialize] to refresh the baseline.

    [rerun] is the paper's Rerun baseline: ground, learn and infer from
    scratch. *)

module Graph = Dd_fgraph.Graph
module Tuple = Dd_relational.Tuple
module Database = Dd_relational.Database

type options = {
  materialization_samples : int;
  inference_chain : int;  (** MH proposals / Gibbs sweeps per inference *)
  burn_in : int;
  lambda : float;  (** variational regularization *)
  acceptance_floor : float;
      (** below this measured MH acceptance rate, re-answer the update with
          the variational artifact ("the method resorts to another
          evaluation method", Section 3.2.2) *)
  initial_learning_epochs : int;
  initial_learning_rate : float;
  incremental_learning_epochs : int;
  incremental_learning_rate : float;
      (** warmstart fine-tuning is gentler than from-scratch learning, which
          also keeps the sampling approach's acceptance rate usable *)
  variational_var_limit : int;
  with_variational : bool;
  disable_sampling : bool;  (** lesion: NoSampling *)
  disable_variational : bool;  (** lesion: NoRelaxation *)
  workload_aware : bool;  (** false = the NoWorkloadInfo baseline *)
  parallel_domains : int;
      (** domains used for materialization sampling and full-Gibbs
          inference ({!Dd_parallel}).  The default 1 keeps the sequential
          code paths and bit-exact seed reproducibility; [N > 1] draws
          materialization worlds from [N] independent chains and runs
          full-Gibbs fallbacks as color-synchronous parallel sweeps —
          deterministic per [(seed, N)], but a different chain than
          [N = 1]. *)
  gibbs_mode : Dd_parallel.Par_gibbs.gibbs_mode;
      (** scheduling of full-Gibbs inference sweeps.  [Color_sync]
          (default) barriers between chromatic color phases and is the
          bit-exact reference; [Async] free-runs
          [max parallel_domains 1] lock-free workers over contiguous
          variable ranges with benign races (DimmWitted-style),
          synchronizing only at epoch boundaries — statistically
          equivalent, not bit-reproducible across domain counts or
          scheduling.  [Async] takes effect even at
          [parallel_domains = 1] (single free-running worker, bit-exact
          with the sequential chain). *)
  step_budget : Dd_util.Budget.spec;
      (** cooperative deadline for one [apply_update] step, polled per
          Gibbs sweep / color phase / async epoch-and-range-chunk and
          per DRed batch; exhaustion raises {!Dd_util.Budget.Exceeded},
          which {!Txn} classifies as [`Inference_timeout].  Default
          [Unlimited]. *)
  seed : int;
}

val default_options : options

type strategy_used =
  | Used_sampling
  | Used_variational
  | Used_full_gibbs  (** fallback when no variational artifact exists *)

val strategy_used_to_string : strategy_used -> string

type report = {
  strategy : strategy_used;
  grounding_seconds : float;
  learning_seconds : float;
  inference_seconds : float;
  acceptance_rate : float option;
  grounding : Grounding.report;
  marginals : float array;
}

type t

val create : ?options:options -> Database.t -> Program.t -> t

val options : t -> options

val grounding : t -> Grounding.t

val graph : t -> Graph.t

val materialization : t -> Materialize.t

val marginals : t -> float array
(** Most recent inference result (initially from materialization-time
    sampling). *)

val marginals_by_relation : t -> (string * Tuple.t * float) list

val kernel_compiles : t -> int
(** How many times the engine has compiled a flat Gibbs kernel
    ({!Dd_inference.Compiled}) for full-Gibbs inference.  Stays flat
    across weight-only incremental steps — the cached kernel is reused
    with refreshed weight slots — and grows only when an update changed
    the graph's structure or evidence. *)

val apply_update : t -> Grounding.update -> report
(** One iteration of the incremental loop.  On an exception (a
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
(** Ground + learn + infer from scratch; returns (marginals, seconds).
    The marginals index the fresh grounding's variables. *)

val rerun_grounding : options -> Database.t -> Program.t -> Grounding.t * float array
(** {!rerun} without the clock, also returning the fresh grounding its
    marginals index — for callers that evaluate the Rerun output. *)
