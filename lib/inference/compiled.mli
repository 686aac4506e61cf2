(** Compiled flat factor-graph kernel (CSR layout) for Gibbs sampling.

    {!Dd_fgraph.Graph.t} is a pointer-rich structure: factors are records
    of literal-record arrays, adjacency is an int list per variable, and
    weights live behind a growable vector.  Sampling over it chases
    pointers and re-evaluates every adjacent factor per conditional.
    This module compiles a graph {e once} into immutable flat int/float
    arrays — the layout DimmWitted-style main-memory engines use — so
    that the two hot operations of Gibbs
    sampling, a conditional-probability evaluation and an assignment
    update, run over contiguous arrays with no heap allocation at all:
    the sweeps below allocate nothing per variable update.  The
    conditional's float math (energy sum, sigmoid, Bernoulli threshold)
    stays inside this module, the uniform draw comes from
    {!Dd_util.Prng.bits53} as an immediate, and [Ratio]'s [log (1 + n)]
    is served from a table for [n < ratio_table_len].

    Two views of the same graph are laid out side by side:

    - {b factor-major} (used to seed counters and read gradients):
      [factor -> bodies -> literals] as two nested CSR levels
      ([f_body_off], [b_lit_off]) over flat [l_var]/[l_neg] arrays,
      plus per-factor head / semantics-tag / weight-slot arrays.
    - {b variable-major} (used by conditionals and updates):
      [variable -> factor groups -> body occurrences]
      ([v_grp_off], [grp_occ_off]) where each group names one adjacent
      factor (including factors that only mention the variable as head,
      with an empty occurrence span) in ascending factor order.

    Weight {e values} are copied into a dense float array at compile
    time; {!refresh_weights} re-reads them from the graph, which is the
    cheap "recompile" path when learning moved weights but the structure
    did not change.  When grounding only appended to the graph,
    {!extend} builds the grown kernel from the old one instead of
    compiling it again.  A packed query-variable array replaces the
    per-variable evidence branch of [Dd_oracle.Gibbs.sweep].

    This is the only Gibbs sampler on production paths; the naive
    [Dd_oracle.Gibbs] (under [test/oracle]) stays as its test oracle.

    {b Isolated and coupled query variables.}  [compile] splits the
    query set once, in one pass over the literals: a query variable is
    {e coupled} when some adjacent factor (head or body) also mentions
    another query variable, and {e isolated} otherwise.  An isolated
    variable is a singleton component of Appendix B.1's decomposition:
    its conditional P(v | rest) depends only on weights and clamped
    evidence, so that conditional is its exact marginal.  {!marginals}
    (and {!Dd_parallel.Par_gibbs.marginals}) therefore read isolated
    variables in closed form ({!closed_form_marginals}) and run the
    chain over {!coupled_vars} only — Rao-Blackwellization on singleton
    components.  {!sweep} and {!sample_worlds} still visit every query
    variable: they produce whole worlds.

    {b Exact marginals for small components.}  [compile] also labels the
    coupled variables into components (query variables joined through a
    shared factor, by {!Dd_util.Union_find}) and packs each one.  Given
    the evidence, the distribution factorizes over components, so a
    component of [k] variables can be answered exactly by walking its
    [2^k] assignments.  {!enumerable} is the work rule: the sum of [2^k]
    over the components is at most a measured constant times the
    chain's [steps × num_coupled] variable updates.  When it holds (and
    something is coupled), {!marginals} — and
    {!Dd_parallel.Par_gibbs.marginals} — enumerate each component,
    drawing nothing; otherwise they run the chain described below, with
    unchanged bits.

    Determinism contract: for a given [(seed, graph)], {!make_state}
    draws the initial world exactly as [Dd_oracle.Gibbs.init_assignment]
    does and {!sweep} draws from the PRNG in exactly the order and count
    of [Dd_oracle.Gibbs.sweep] (ascending variable id over query
    variables, one Bernoulli draw each), so the two PRNG streams stay in
    step.  The conditional sums the same per-factor energies as
    [Dd_oracle.Gibbs.conditional_true_prob] in a different order, so the
    two agree to floating-point reassociation (within 1e-9), and
    trajectories agree per seed unless a uniform draw lands between the
    two values (asserted by tests).  {!marginals} draws the same initial
    world and then one Bernoulli per {e coupled} variable per sweep; on
    a graph with no isolated query variable it is bit-identical to
    counting every sweep of {!sweep} (the reference kept under
    [test/oracle]), and evaluating the closed forms consumes no
    randomness; enumeration draws nothing at all.

    {b Lone and shared variables.}  The same pass marks every variable,
    evidence included, {e shared} when some factor mentions it and
    another variable, and {e lone} otherwise.  Learning needs chains
    only for the shared ones: a lone variable is independent of all
    others in both phases of contrastive divergence, so its factors'
    expected features have a closed form ({!add_lone_terms}), and
    {!sweep_shared_query}, {!sweep_shared} and {!add_feature_counts}
    visit only the shared variables and the factors that touch them.

    {b Appends.}  {!compile} is {!extend} of the kernel of no variable:
    the factor-major and variable-major arrays are a prefix followed by
    the appended factors' and variables' suffix, and one function over
    the flat arrays marks the query split, the components and the
    lone/shared split of a suffix.  So {!extend} of a kernel equals
    {!compile} of the same graph on every array, bit for bit. *)

module Graph = Dd_fgraph.Graph

type t
(** Immutable compiled kernel.  Snapshots the graph's structure and
    weight values; weights can be re-synced with {!refresh_weights}.
    After grounding appended variables and factors, or moved evidence,
    {!extend} gives the new kernel; after it added bodies to a factor or
    a factor over an older variable, {!compile} does.  A kernel is never
    changed in place apart from its weight slots, so an old kernel
    stays valid for the graph it was built from. *)

type state
(** Mutable sampling state over a kernel: the current assignment (one
    byte per variable) plus per-body unsatisfied-literal counts and
    per-factor satisfied-body counts. *)

val compile : Graph.t -> t
(** One-shot compilation.  Raises [Invalid_argument] if a factor body
    mentions the same variable twice (never produced by grounding). *)

val extend : t -> Graph.t -> t option
(** [extend k g], for a [g] that is [k]'s graph after an {e appending}
    update: new variables, new weights, new factors whose variables are
    all new, and any evidence changes, but no body added to one of
    [k]'s factors (the caller knows this from the grounding report).
    Returns a new kernel equal to [compile g] on every array, bit for
    bit, built in O(change) plus one blit per array; the query split
    and its components are marked again over the whole graph only when
    a variable moved between query and evidence.  [None] when a new
    factor mentions one of [k]'s variables, or [g] is another graph or
    has fewer variables, factors or weights than [k]. *)

val graph : t -> Graph.t
(** The source graph (shared, not copied). *)

val refresh_weights : t -> unit
(** Re-read every compiled weight slot's value from the graph.  O(number
    of weights); the incremental "recompile" used after learning steps
    and weight-only engine updates. *)

val matches_structure : t -> Graph.t -> bool
(** Reuse check, O(1): [g] is the kernel's graph with as many variables,
    factors and weights as at compile time.  It does not see added
    bodies or evidence moves: the caller extends or compiles a new
    kernel on those ({!Dd_core.Engine} reads them from the grounding
    report).  A change of an evidence variable's clamped value needs no
    new kernel: {!make_state} and {!add_lone_terms} read the values from
    the graph. *)

val num_vars : t -> int
val num_query : t -> int

val query_vars : t -> int array
(** Packed query-variable ids, ascending.  Fresh copy. *)

val num_coupled : t -> int

val coupled_vars : t -> int array
(** Packed coupled query-variable ids (some adjacent factor mentions
    another query variable), ascending.  Fresh copy.  The remaining
    query variables are isolated. *)

val num_components : t -> int
(** Coupled components: maximal sets of query variables joined through
    factors that mention two or more of them. *)

val enumerable : t -> steps:int -> bool
(** Every component is small enough to enumerate: the sum of [2^k] over
    the components is at most [c × steps × num_coupled], where
    [steps × num_coupled] counts the chain's variable updates for [steps]
    sweeps (burn-in included) and [c] is the measured crossover of the
    two estimators (DESIGN.md).
    Depends on the structure only.  True when nothing is coupled. *)

val num_shared : t -> int
(** Variables, evidence included, that share a factor with another
    variable.  Zero means learning needs no chain. *)

val learnable_active : t -> int array
(** Weight slots that are learnable {e and} attached to at least one
    factor, ascending.  Fresh copy. *)

(** {1 Sampling state} *)

val make_state : ?init:bool array -> Dd_util.Prng.t -> t -> state
(** Build counters for an initial assignment.  [init] defaults to
    [Dd_oracle.Gibbs.init_assignment] (consuming the PRNG identically);
    raises [Invalid_argument] on a size mismatch. *)

val value : state -> Graph.var -> bool
(** Current value of one variable. *)

val snapshot : state -> bool array
(** Fresh copy of the current assignment. *)

val conditional_true_prob : state -> Graph.var -> float
(** P(v = true | rest), from cached counters.  Only the returned float
    is boxed; the sweeps compute the same value without boxing. *)

val sweep : Dd_util.Prng.t -> state -> unit
(** One pass over the packed query variables, ascending: each draws from
    {!conditional_true_prob}, consuming one {!Dd_util.Prng.bits53} (the
    draw {!Dd_util.Prng.bernoulli} makes), and maintains the counters. *)

val sweep_shared_query : Dd_util.Prng.t -> state -> unit
(** Resample the shared query variables, ascending — the clamped-phase
    sweep of contrastive-divergence learning. *)

val sweep_shared : Dd_util.Prng.t -> state -> unit
(** Resample every shared variable, evidence included, ascending — the
    free-phase sweep of contrastive-divergence learning. *)

val sweep_slice : Dd_util.Prng.t -> state -> Graph.var array -> unit
(** Resample the given variables in order with one PRNG stream.  Used
    by the domain-parallel sampler on color slices: variables of one
    color share no factor, so concurrent slices touch disjoint counter
    and assignment cells. *)

val sweep_slice_budgeted :
  budget:Dd_util.Budget.t ->
  site:string ->
  Dd_util.Prng.t ->
  state ->
  Graph.var array ->
  unit
(** {!sweep_slice} with a cooperative budget poll every 128 variables,
    so one oversized color slice cannot stretch a step deadline:
    exhaustion raises {!Dd_util.Budget.Exceeded} from the polling
    worker.  Draws from the PRNG exactly as {!sweep_slice} does
    for the variables it completes. *)

val accumulate_span_true : state -> Graph.var array -> int array -> unit
(** [accumulate_span_true st vars totals] increments [totals.(v)] for
    every currently-true [v] in [vars] — the marginal-counting inner
    loop. *)

val closed_form_marginals : state -> float array
(** A fresh marginal vector for a chain that sweeps only the coupled
    variables: every evidence variable at its current (clamped) value as
    0/1, every isolated query variable at {!conditional_true_prob} —
    its exact marginal, evaluated once — and every coupled variable at
    its current value as a placeholder the caller overwrites with its
    chain estimate.  Consumes no randomness. *)

val marginals :
  ?burn_in:int -> ?budget:Dd_util.Budget.t -> Dd_util.Prng.t -> t -> sweeps:int -> float array
(** Fresh-state marginals.  When something is coupled and
    [enumerable ~steps:(burn_in + sweeps)] holds, exact marginals by
    enumeration, component by component: evidence and isolated query
    variables come from {!closed_form_marginals}; each component's [2^k]
    assignments are visited in Gray-code order, one flip per state that
    updates the cached counters and returns the energy change (no draw;
    cost exponential in the largest component).  Otherwise the chain: evidence and isolated query
    variables come from {!closed_form_marginals}; the coupled ones are
    the fraction of [sweeps] post-burn-in sweeps over {!coupled_vars} in
    which they were true.  The chain polls [budget] once per sweep
    (burn-in included), also when no variable is coupled, so a tick
    budget expires at the same sweep whatever the split; exhaustion
    raises {!Dd_util.Budget.Exceeded} instead of finishing. *)

val sample_worlds : ?burn_in:int -> Dd_util.Prng.t -> t -> n:int -> bool array array
(** Draw [n] worlds from one fresh chain, one sweep apart after
    [burn_in] (default 10) — the tuple-bundle store of
    the sampling materialization; the compiled counterpart of
    [Dd_oracle.Gibbs.sample_worlds].  Reads the kernel only, so several
    domains may draw chains from one shared kernel concurrently. *)

val sweeps_to_converge :
  ?tolerance:float ->
  ?max_sweeps:int ->
  Dd_util.Prng.t ->
  t ->
  target_var:Graph.var ->
  target_prob:float ->
  int option
(** As [Dd_oracle.Gibbs.sweeps_to_converge], on a fresh compiled chain. *)

val ratio_table_len : int
(** [Ratio]'s [g = log (1 + n)] is read from a table for satisfied-body
    counts [n < ratio_table_len] and computed with [log] above; both use
    the same expression as {!Dd_fgraph.Semantics.g}. *)

(** {1 Learning support} *)

val add_feature_counts : state -> scale:float -> float array -> unit
(** For every factor whose weight slot is learnable and that mentions a
    shared variable, add [scale * sign(head) * g(semantics, satisfied
    bodies)] — the energy gradient of that weight in the state's current
    world — into the dense [grad] array (indexed by weight slot).  Reads
    the live satisfied-body counters: no per-factor recomputation.  The
    factors over one lone variable are {!add_lone_terms}'s. *)

val add_lone_terms : t -> float array -> unit
(** For every learnable factor over one lone evidence variable, add its
    feature at the clamped value minus its exact expectation in the free
    phase, where the variable is true with probability [sigmoid] of its
    energy difference, into [grad].  A factor over one lone query
    variable adds exactly 0 to the contrastive-divergence gradient (both
    phases give the variable the same conditional) and is skipped, as is
    a factor over no variable.  Reads the kernel's weight slots and the
    graph's evidence values; draws nothing. *)
