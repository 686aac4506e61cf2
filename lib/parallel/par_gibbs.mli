(** Domain-parallel Gibbs sampling.

    Two parallelization modes, mirroring how DimmWitted spends cores:

    - {b Color-synchronous sweeps} (one chain, many domains): a sweep
      visits the {!Partition} color classes in order; within a class the
      variables are split into per-domain slices and resampled
      concurrently on the shared {!Dd_inference.Compiled} kernel state.
      Variables of one color share no factor, so concurrent updates touch
      disjoint cached counts and disjoint assignment cells; the pool
      barrier between classes publishes them.  Deterministic per
      [(seed, graph, domains)], so a replay or a Rerun reproduces it bit
      for bit.
    - {b Parallel chains} (many chains, one domain each):
      {!sample_worlds} runs [domains] independent chains and merges their
      worlds.

    With [domains = 1] every entry point delegates to the sequential
    {!Dd_inference.Compiled} sampler and reproduces its output
    bit-for-bit from the same seed.

    Every entry point runs on a kernel the caller compiled (and may
    keep) and reads the graph from it ({!Dd_inference.Compiled.graph});
    none compiles one.

    A sampler from {!create} sweeps every query variable.  {!marginals}
    is {!Dd_inference.Compiled.marginals} unless there is a chain to
    split: at [domains = 1], with nothing coupled, or when every coupled
    component is small ({!Dd_inference.Compiled.enumerable}) it calls
    it, so no partition or pool is built for closed forms or
    enumeration.  Otherwise it builds its chain over the {e coupled}
    query variables only ({!Dd_inference.Compiled.coupled_vars}): it
    filters the isolated ones out of its color plan and reads their
    exact marginal in closed form
    ({!Dd_inference.Compiled.closed_form_marginals}).  On a graph with no
    isolated query variable both sets are the same, and so are the plan
    and every draw. *)

type t

val create : kernel:Dd_inference.Compiled.t -> domains:int -> Dd_util.Prng.t -> t
(** Build the sampler state: counters over [kernel] plus, for
    [domains > 1], the partition of its graph and a pool of [domains]
    workers.  Each domain owns an independent {!Dd_util.Prng.split}
    stream.  Raises [Invalid_argument] when [domains < 1]. *)

val sweep : t -> unit
(** One pass over every query variable.  [domains = 1]: exactly
    {!Dd_inference.Compiled.sweep}.  Multi-domain: one barrier per color
    class (phases whose work lands on a single domain run inline). *)

val shutdown : t -> unit
(** Release the worker pool, if any.  Idempotent; the sampler must not
    be swept afterwards. *)

val marginals :
  ?burn_in:int ->
  ?budget:Dd_util.Budget.t ->
  kernel:Dd_inference.Compiled.t ->
  domains:int ->
  Dd_util.Prng.t ->
  sweeps:int ->
  float array
(** Single-chain marginals.  At [domains = 1], or when
    [Compiled.enumerable ~steps:(burn_in + sweeps)] holds (always when
    nothing is coupled), this is {!Dd_inference.Compiled.marginals},
    bit for bit: enumeration draws nothing and gives the same bits at
    every domain count.  Otherwise evidence variables report their
    clamped value and isolated query variables their closed-form
    marginal, read once before the chain starts; the color-synchronous
    chain sweeps the coupled query variables and counts them, polling
    [budget] on the coordinator between color phases (every color keeps
    its phase, even one left empty by the filter) and inside every
    worker slice. *)

val sample_worlds :
  ?burn_in:int ->
  kernel:Dd_inference.Compiled.t ->
  domains:int ->
  Dd_util.Prng.t ->
  n:int ->
  bool array array
(** [n] worlds from [domains] independent chains (chain [d] contributes
    a deterministic near-equal share, each burned in separately), all
    on the one [kernel].  With [domains = 1] this is {!Dd_inference.Compiled.sample_worlds} from the
    caller's stream. *)
