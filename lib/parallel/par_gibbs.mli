(** Domain-parallel Gibbs sampling.

    Three parallelization modes, mirroring how DimmWitted spends cores:

    - {b Color-synchronous sweeps} (one chain, many domains,
      {!Color_sync}): a sweep visits the {!Partition} color classes in
      order; within a class the variables are split into per-domain
      slices and resampled concurrently on the shared
      {!Dd_inference.Compiled} kernel state.  Variables of one color
      share no factor, so concurrent updates touch disjoint cached
      counts and disjoint assignment cells; the pool barrier between
      classes publishes them.  Bit-exact reference: deterministic per
      [(seed, graph, domains)].
    - {b Asynchronous free-running sweeps} (one chain, many domains,
      {!Async}): every logical worker owns one contiguous cost-balanced
      {!Range} span of the packed query array and free-runs whole sweeps
      over it with {e no per-color barrier}; neighbor assignments are
      read racily from the shared byte vector (the DimmWitted benign
      race — see {!Dd_inference.Compiled.async_resample_var}) and workers
      synchronize only at epoch boundaries ({!sweep_epoch}) for budget
      polling and marginal accumulation.  Logical workers are
      multiplexed in deterministic blocks onto at most
      [min (domains, pool size)] hardware slots, so requesting more
      workers than cores shrinks each worker's resident range instead of
      oversubscribing the machine.  Deterministic only when a single
      hardware slot executes (1 worker, or a pool of size 1); otherwise
      the trajectory depends on scheduling — statistically equivalent,
      not bit-reproducible.
    - {b Parallel chains} (many chains, one domain each):
      {!sample_worlds} and {!chain_marginals} run [domains] independent
      chains and merge.

    With [domains = 1] and the default mode every entry point delegates
    to the sequential {!Dd_inference.Compiled} sampler and reproduces its
    output bit-for-bit from the same seed.  [Async] with one worker also
    reproduces the sequential chain bit-for-bit: it keeps the caller's
    PRNG stream, and the counter-free conditional is bit-identical to
    the counter-based one when unraced.

    A sampler from {!create} sweeps every query variable.  {!marginals}
    builds its chain over the {e coupled} query variables only
    ({!Dd_inference.Compiled.coupled_vars}): color-sync filters the
    isolated ones out of its plan, and async builds its spans over the
    coupled set.  Isolated query variables read their exact marginal in
    closed form ({!Dd_inference.Compiled.closed_form_marginals}).  On a
    graph with no isolated query variable both sets are the same, and so
    are the plan, the spans and every draw. *)

module Graph = Dd_fgraph.Graph

type gibbs_mode = Color_sync | Async

val gibbs_mode_to_string : gibbs_mode -> string

type t

val create :
  ?init:bool array ->
  ?pool:Pool.t ->
  ?mode:gibbs_mode ->
  ?kernel:Dd_inference.Compiled.t ->
  domains:int ->
  Dd_util.Prng.t ->
  Graph.t ->
  t
(** Build the sampler state: the compiled {!Dd_inference.Compiled}
    kernel counters plus, per mode, the graph partition ([Color_sync],
    [domains > 1]) or the contiguous range plan ([Async]).  Each domain
    / logical worker owns an independent {!Dd_util.Prng.split} stream.
    [?pool] lends an existing pool: [Color_sync] requires
    [size >= domains]; [Async] accepts any size and multiplexes its
    [domains] logical workers onto [min (domains, size)] slots (a pool
    of size 1 makes async execution deterministic).  Without [?pool],
    [Color_sync] spawns [domains] workers and [Async] spawns
    [min (domains, Pool.recommended ())].  [?kernel] lends an
    already-compiled kernel for the same graph; it must satisfy
    {!Dd_inference.Compiled.matches_structure}.  [?mode] defaults to
    [Color_sync].  Raises [Invalid_argument] when [domains < 1]. *)

val assignment : t -> bool array
(** Fresh snapshot of the current assignment.  Valid in every mode (the
    async sampler's bytes are always whole). *)

val domains : t -> int

val mode : t -> gibbs_mode

val phases : t -> int
(** Barrier phases per sweep: the partition's color count for the
    multi-domain color-sync sampler, or 1 when sequential or async.
    Large values relative to [num_vars / domains] signal a
    conflict-dense graph on which color-sync sweeps degrade — the case
    the async mode exists for; see DESIGN.md. *)

val sweep : t -> unit
(** One pass over every query variable.  [domains = 1] color-sync:
    exactly {!Dd_inference.Compiled.sweep}.  Multi-domain color-sync:
    one barrier per color class (phases whose work lands on a single
    domain run inline).  Async: one epoch of a single free-running
    sweep. *)

val sweep_epoch : ?budget:Dd_util.Budget.t -> ?totals:int array -> t -> sweeps:int -> unit
(** [sweep_epoch t ~sweeps] runs one {e epoch}: every async worker
    free-runs [sweeps] passes over its own range with no intermediate
    synchronization; the single pool join at the end is the epoch
    barrier.  [?totals] accumulates per-sweep true-counts for the packed
    query variables (each worker writes only its own span's cells).
    [budget] is polled on the coordinator once per epoch and inside
    every worker's chunked range sweep (site ["par_gibbs.async_range"]).
    Also works for the sequential sampler ([sweeps] plain sweeps);
    raises [Invalid_argument] on the multi-domain color-sync sampler,
    whose sweeps are inherently phase-synchronized. *)

val resync : t -> unit
(** Rebuild the kernel state's [unsat]/[sat] counters from the current
    assignment if async sweeps left them stale
    ({!Dd_inference.Compiled.rebuild_counters} — the shard merge "on
    demand").  No-op in other modes or when already fresh.  Call before
    handing {!t}'s state to any counter-based consumer. *)

val shutdown : t -> unit
(** Release the worker pool if this sampler owns one.  Idempotent; the
    sampler must not be swept afterwards. *)

val marginals :
  ?burn_in:int ->
  ?budget:Dd_util.Budget.t ->
  ?kernel:Dd_inference.Compiled.t ->
  ?mode:gibbs_mode ->
  ?epoch_sweeps:int ->
  domains:int ->
  Dd_util.Prng.t ->
  Graph.t ->
  sweeps:int ->
  float array
(** Single-chain marginals.  Evidence variables report their clamped
    value and isolated query variables their closed-form marginal, read
    once before the chain starts; the chain sweeps the coupled query
    variables and counts them.  Default mode [Color_sync]: drop-in for
    {!Dd_inference.Compiled.marginals} (bit-identical at
    [domains = 1]), polling [budget] on the coordinator between color
    phases (every color keeps its phase, even one left empty by the
    filter) and inside every worker slice.  Mode [Async]: burn-in and
    sampling run as epochs of [epoch_sweeps] (default 8) free-running
    sweeps; workers accumulate marginal counts for their own ranges
    between epoch barriers, and the budget is polled per epoch plus
    inside every chunked range sweep.  A worker-side exhaustion surfaces after the
    join with every byte whole and the engine state rolled back by the
    caller's transaction — async counters are rebuilt lazily, never
    trusted after an abort. *)

val sample_worlds :
  ?burn_in:int -> ?spacing:int -> domains:int -> Dd_util.Prng.t -> Graph.t -> n:int -> bool array array
(** [n] worlds from [domains] independent chains (chain [d] contributes
    a deterministic near-equal share, each burned in separately).  The
    graph is compiled once and the kernel shared by every chain.  With
    [domains = 1] this is {!Dd_inference.Compiled.sample_worlds} from the
    caller's stream. *)

val chain_marginals :
  ?burn_in:int -> domains:int -> Dd_util.Prng.t -> Graph.t -> sweeps:int -> float array
(** Merged marginal estimate from [domains] independent chains of
    [sweeps] sweeps each (equal-weight average — [domains * sweeps]
    post-burn-in samples in the time of [sweeps]), sharing one compiled
    kernel.  With [domains = 1] this is
    {!Dd_inference.Compiled.marginals} from the caller's stream. *)
