module Graph = Dd_fgraph.Graph
module Tuple = Dd_relational.Tuple
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Budget = Dd_util.Budget
module Compiled = Dd_inference.Compiled
module Learner = Dd_inference.Learner
module Metropolis = Dd_inference.Metropolis
module Par_gibbs = Dd_parallel.Par_gibbs
module Prng = Dd_util.Prng
module Timer = Dd_util.Timer
module Fault = Dd_util.Fault

type options = {
  materialization_samples : int;
  inference_chain : int;
  burn_in : int;
  lambda : float;
  acceptance_floor : float;
  initial_learning_epochs : int;
  incremental_learning_epochs : int;
  incremental_learning_rate : float;
  disable_sampling : bool;
  disable_variational : bool;
  workload_aware : bool;
  parallel_domains : int;
  step_budget : Budget.spec;
  seed : int;
}

let default_options =
  {
    materialization_samples = 200;
    inference_chain = 100;
    burn_in = 20;
    lambda = 0.1;
    acceptance_floor = 0.02;
    initial_learning_epochs = 30;
    incremental_learning_epochs = 5;
    incremental_learning_rate = 0.03;
    disable_sampling = false;
    disable_variational = false;
    workload_aware = true;
    parallel_domains = 1;
    step_budget = Budget.Unlimited;
    seed = 42;
  }

type strategy_used =
  | Used_sampling
  | Used_variational
  | Used_full_gibbs

let strategy_used_to_string = function
  | Used_sampling -> "sampling"
  | Used_variational -> "variational"
  | Used_full_gibbs -> "full-gibbs"

type report = {
  strategy : strategy_used;
  grounding_seconds : float;
  learning_seconds : float;
  inference_seconds : float;
  acceptance_rate : float option;
  exact_components : int;
  grounding : Grounding.report;
  marginals : float array;
}

type t = {
  mutable ground : Grounding.t;
  opts : options;
  rng : Prng.t;
  mutable mat : Materialize.t;
  mutable last_marginals : float array;
  (* Compiled Gibbs kernel cache, for the graph as it stands: an
     appending update extends it, any other structural update drops it
     for a compile on next use, and weight-only steps just re-sync the
     dense slots. *)
  mutable kernel : Compiled.t option;
  mutable kernel_compiles : int;
  (* Commit log for durable stores: the updates committed since a store
     last drained it, newest first, each with its commit number; [None]
     when replaying them could not reproduce the engine and the next
     save must write a base.  [identity] is a fresh block per engine, and
     unmarshalling a saved engine yields a new one. *)
  identity : identity;
  mutable commits : int;
  mutable log : (int * Grounding.update) list option;
}

and identity = unit ref

(* No store appends more than this many updates at once, so a longer log
   could only ever be written as a base: an engine whose log no store
   drains drops it instead of holding every update. *)
let log_capacity = 32

let grounding t = t.ground

let graph t = Grounding.graph t.ground

let materialization t = t.mat

let marginals t = t.last_marginals

let marginals_by_relation t =
  Grounding.marginals_by_relation t.ground t.last_marginals

let kernel_compiles t = t.kernel_compiles

(* Reuse the cached kernel when only weights moved since it was built;
   [learn_and_infer] extends or drops the cache on any structural or
   evidence delta, and [matches_structure] re-checks the counts as a
   guard against mutation paths that bypass the report. *)
let compiled_kernel t =
  let g = graph t in
  match t.kernel with
  | Some k when Compiled.matches_structure k g ->
    Compiled.refresh_weights k;
    k
  | _ ->
    let k = Compiled.compile g in
    t.kernel <- Some k;
    t.kernel_compiles <- t.kernel_compiles + 1;
    k

(* The NoRelaxation lesion skips the variational artifact it would
   never read. *)
let materialize opts ~kernel rng =
  Materialize.materialize ~n_samples:opts.materialization_samples ~burn_in:opts.burn_in
    ~lambda:opts.lambda ~with_variational:(not opts.disable_variational)
    ~domains:opts.parallel_domains ~kernel rng

(* Inference on the real graph: the from-scratch answer, the exact rule,
   and the fallback when neither §3.2 artifact is usable. *)
let real_graph_marginals ?budget opts ~kernel rng =
  Par_gibbs.marginals ~burn_in:opts.burn_in ?budget ~kernel ~domains:opts.parallel_domains rng
    ~sweeps:opts.inference_chain

(* The one from-scratch build behind [create], [rebuild] and [rerun]:
   ground, compile once, then learn and infer on that kernel, which
   leaves it holding the learned weights.  Inference reads a copy of the
   stream at its post-learning state, so it takes no draw from what
   [create] materializes next.  [hit] fires the fault points of
   [create]. *)
let build ~hit options db prog =
  let ground = Grounding.ground db prog in
  hit "engine.create.post_ground";
  let rng = Prng.create options.seed in
  let kernel = Compiled.compile (Grounding.graph ground) in
  Learner.train_cd
    ~options:{ Learner.default_cd with Learner.epochs = options.initial_learning_epochs }
    ~kernel rng;
  hit "engine.create.post_learn";
  (ground, rng, kernel, real_graph_marginals options ~kernel (Prng.copy rng))

(* Inference runs before materialization, so a fresh engine's marginals
   are [rerun]'s bit for bit; the sample store and the variational
   artifact come from the same kernel, which the engine keeps. *)
let create ?(options = default_options) db prog =
  let ground, rng, kernel, marginals = build ~hit:Fault.hit options db prog in
  let mat = materialize options ~kernel rng in
  {
    ground;
    opts = options;
    rng;
    mat;
    last_marginals = marginals;
    kernel = Some kernel;
    kernel_compiles = 1;
    identity = ref ();
    commits = 0;
    log = None;
  }

(* What the §3.3 optimizer reads of the engine; every rule over it lives
   in [Optimizer]. *)
let observe t kernel =
  {
    Optimizer.enumerable = Compiled.enumerable kernel ~steps:(t.opts.burn_in + t.opts.inference_chain);
    stored_samples = Array.length t.mat.Materialize.samples;
    samples_used = t.mat.Materialize.samples_used;
    variational_built = t.mat.Materialize.variational <> None;
    disable_sampling = t.opts.disable_sampling;
    workload_aware = t.opts.workload_aware;
    chain = t.opts.inference_chain;
    acceptance_floor = t.opts.acceptance_floor;
  }

let variational t change =
  Materialize.variational_infer ~sweeps:t.opts.inference_chain ~burn_in:t.opts.burn_in t.rng
    ~approx:(Option.get t.mat.Materialize.variational) ~change

(* One MH chain per sampling pick, from the store cursor.  Its first
   proposals probe the acceptance rate; the optimizer then resorts to the
   variational artifact or lets the same chain go on.  The cursor moves
   once, past every world the chain read. *)
let sample t obs change =
  let m = t.mat in
  let first = m.Materialize.samples_used in
  let chain = Metropolis.infer t.rng change ~stored:m.Materialize.samples ~first in
  let probe = Optimizer.probe_length obs in
  let r = chain ~proposals:probe in
  let next = Optimizer.after_probe obs ~acceptance:r.Metropolis.acceptance_rate in
  let r =
    match next with
    | Optimizer.Mh_chain n -> chain ~proposals:(n - probe)
    | Optimizer.Resort_to_variational -> r
  in
  t.mat <- { m with Materialize.samples_used = first + 1 + r.Metropolis.proposals };
  let rate = Some r.Metropolis.acceptance_rate in
  match next with
  | Optimizer.Resort_to_variational -> (Used_variational, rate, variational t change)
  | Optimizer.Mh_chain _ -> (Used_sampling, rate, r.Metropolis.marginals)

(* One update's inference: the optimizer's decision, then one arm per
   strategy.  The change against the materialization is built only when
   the decision or its arm reads it. *)
let infer t ~budget kernel =
  let obs = observe t kernel in
  let change = lazy (Materialize.cumulative_change t.mat (graph t)) in
  let decision = Optimizer.decide obs ~change in
  let strategy, acceptance_rate, marginals =
    match decision with
    | Optimizer.Exact | Optimizer.Real_graph_chain ->
      (Used_full_gibbs, None, real_graph_marginals ~budget t.opts ~kernel t.rng)
    | Optimizer.Sampling -> sample t obs (Lazy.force change)
    | Optimizer.Variational -> (Used_variational, None, variational t (Lazy.force change))
  in
  let exact_components = if decision = Optimizer.Exact then Compiled.num_components kernel else 0 in
  (strategy, acceptance_rate, marginals, exact_components)

(* [Grounding.report.needs_rebuild]: the extended graph keeps a body whose
   deterministic support was deleted.  Ground again over the updated
   database and program through [build], as the Txn Rerun rung does, and
   rematerialize; WAL replay redoes this bit for bit. *)
let reground t greport ~grounding_seconds =
  let (ground, rng, kernel, marginals), seconds =
    Timer.time (fun () ->
        build ~hit:ignore t.opts (Grounding.database t.ground) (Grounding.program t.ground))
  in
  t.ground <- ground;
  Prng.assign t.rng rng;
  t.kernel <- Some kernel;
  t.kernel_compiles <- t.kernel_compiles + 1;
  t.mat <- materialize t.opts ~kernel t.rng;
  t.last_marginals <- marginals;
  {
    strategy = Used_full_gibbs;
    grounding_seconds = grounding_seconds +. seconds;
    learning_seconds = 0.0;
    inference_seconds = 0.0;
    acceptance_rate = None;
    exact_components = 0;
    grounding = greport;
    marginals;
  }

let learn_and_infer t greport ~budget ~grounding_seconds =
  (* Incremental learning: warmstart is implicit (weights are live). *)
  let needs_learning =
    greport.Grounding.evidence_changed > 0
    || greport.Grounding.new_factors > 0
    || greport.Grounding.extended > 0
  in
  (* Structure or evidence moved: an appending update (no factor gained
     a body, no new factor reaches an older variable) extends the
     kernel, and any other drops it for a compile.  A weight-only step
     (incremental learning below) keeps it and merely refreshes the
     dense weight slots on next use.  Learning's time includes the
     extend, as it includes a compile. *)
  let update_kernel () =
    if needs_learning || greport.Grounding.new_vars > 0 then
      t.kernel <-
        (if greport.Grounding.extended > 0 then None
         else Option.bind t.kernel (fun k -> Compiled.extend k (graph t)))
  in
  let learning_seconds =
    if needs_learning && t.opts.incremental_learning_epochs > 0 then
      Timer.time_s (fun () ->
          update_kernel ();
          Learner.train_cd
            ~options:
              {
                Learner.epochs = t.opts.incremental_learning_epochs;
                learning_rate = t.opts.incremental_learning_rate;
              }
            ~kernel:(compiled_kernel t) t.rng)
    else begin
      update_kernel ();
      0.0
    end
  in
  Fault.hit "engine.apply_update.post_learning";
  let kernel = compiled_kernel t in
  let (strategy, acceptance_rate, marginals, exact_components), inference_seconds =
    Timer.time (fun () -> infer t ~budget kernel)
  in
  Fault.hit "engine.apply_update.post_inference";
  t.last_marginals <- marginals;
  {
    strategy;
    grounding_seconds;
    learning_seconds;
    inference_seconds;
    acceptance_rate;
    exact_components;
    grounding = greport;
    marginals;
  }

let step t update =
  (* One budget per update step, polled cooperatively by grounding rounds
     and Gibbs sweeps; [Ticks] specs re-arm deterministically per call. *)
  let budget = Budget.start t.opts.step_budget in
  let greport, grounding_seconds =
    Timer.time (fun () -> Grounding.extend ~budget t.ground update)
  in
  (* Crash here = the database and graph were already mutated by grounding
     but the marginals were not refreshed; recovery must rebuild from the
     pre-update checkpoint and replay the logged update. *)
  Fault.hit "engine.apply_update.post_ground";
  if greport.Grounding.needs_rebuild then reground t greport ~grounding_seconds
  else learn_and_infer t greport ~budget ~grounding_seconds

let apply_update t update =
  match step t update with
  | report ->
    t.commits <- t.commits + 1;
    t.log <-
      (match t.log with
      | Some entries when List.compare_length_with entries log_capacity < 0 ->
        Some ((t.commits, update) :: entries)
      | Some _ | None -> None);
    report
  | exception e ->
    (* A half-applied update is a state no replay reproduces, and the
       kernel may no longer describe a prefix of the graph. *)
    t.log <- None;
    t.kernel <- None;
    raise e

let identity t = t.identity

let without_kernel t = { t with kernel = None }

let commits t = t.commits

let committed_log t = Option.map List.rev t.log

let drain_log t = t.log <- Some []

let require_base t = t.log <- None

(* --- update transactions -------------------------------------------------- *)

(* Everything [apply_update] can mutate, captured as either a cheap value
   snapshot (rng state, counters, marginals, kernel cache, commit log —
   all small — and the immutable materialization) or an undo log over
   the big mutable stores (relations journal their tuple flips, the
   graph journals in-place slot writes and truncates appends, the
   grounding tables prune by id thresholds).  The
   clean path therefore pays only journal bookkeeping, never a copy of
   the database or graph. *)
type txn = {
  x_ground : Grounding.t;
  x_graph_journal : Graph.journal;
  x_gmark : Grounding.mark;
  x_tables : string list;  (* tables existing at begin *)
  x_rel_log : (Relation.t * Tuple.t * int) list ref;  (* newest first *)
  x_journaled : Relation.t list;
  x_rng : Dd_util.Prng.t;
  x_mat : Materialize.t;
  x_last_marginals : float array;
  x_kernel : Compiled.t option;
  x_kernel_compiles : int;
  x_commits : int;
  x_log : (int * Grounding.update) list option;
}

let txn_begin t =
  let log = ref [] in
  let db = Grounding.database t.ground in
  let tables = Database.table_names db in
  let journaled = List.filter_map (Database.find_opt db) tables in
  List.iter
    (fun rel ->
      Relation.set_journal rel (Some (fun tup prev -> log := (rel, tup, prev) :: !log)))
    journaled;
  {
    x_ground = t.ground;
    x_graph_journal = Graph.journal_begin (graph t);
    x_gmark = Grounding.mark t.ground;
    x_tables = tables;
    x_rel_log = log;
    x_journaled = journaled;
    x_rng = Prng.copy t.rng;
    x_mat = t.mat;
    x_last_marginals = t.last_marginals;
    x_kernel = t.kernel;
    x_kernel_compiles = t.kernel_compiles;
    x_commits = t.commits;
    x_log = t.log;
  }

let detach_journals x = List.iter (fun rel -> Relation.set_journal rel None) x.x_journaled

let txn_commit t x =
  detach_journals x;
  (* The graph journal was armed by this txn's [journal_begin]; dropping
     it commits the appends. *)
  Graph.journal_end (graph t);
  x.x_rel_log := []

(* Fully idempotent so the supervisor can retry a rollback that was itself
   interrupted: journals detach first (replay must not re-log), every
   restore primitive applies absolute previous values, and the relation
   log is preserved until commit. *)
let txn_rollback t x =
  (* Crash-injection points on the recovery path itself: the supervisor
     retries (bounded) on [Fault.Injected] escaping from here. *)
  Dd_util.Fault.hit "engine.txn_rollback.begin";
  detach_journals x;
  (* A regrounding update replaced the grounding; the old one is the one
     the journal and mark describe. *)
  t.ground <- x.x_ground;
  Graph.rollback (graph t) x.x_graph_journal;
  Grounding.rollback t.ground x.x_gmark;
  let db = Grounding.database t.ground in
  (* DRed materializes new derived predicates on demand; drop any table
     that did not exist when the transaction began. *)
  List.iter
    (fun name -> if not (List.mem name x.x_tables) then Database.drop_table db name)
    (Database.table_names db);
  (* Newest-to-oldest replay: the oldest logged count for a tuple is its
     pre-transaction multiplicity, and it is applied last. *)
  List.iter (fun (rel, tup, prev) -> Relation.restore_count rel tup prev) !(x.x_rel_log);
  Dd_util.Fault.hit "engine.txn_rollback.mid_restore";
  Prng.assign t.rng x.x_rng;
  t.mat <- x.x_mat;
  t.last_marginals <- x.x_last_marginals;
  t.kernel <- x.x_kernel;
  t.kernel_compiles <- x.x_kernel_compiles;
  t.commits <- x.x_commits;
  t.log <- x.x_log

(* A fresh baseline and the PRNG draws it took: nothing replay redoes. *)
let rematerialize t =
  t.log <- None;
  Timer.time_s (fun () -> t.mat <- materialize t.opts ~kernel:(compiled_kernel t) t.rng)

(* The Rerun rung's engine: built from scratch over [t]'s database and
   program, it continues [t]'s commit count and, like any new engine,
   needs a base. *)
let rebuild t =
  let fresh = create ~options:t.opts (Grounding.database t.ground) (Grounding.program t.ground) in
  fresh.commits <- t.commits;
  fresh

let rerun_grounding options db prog =
  let ground, _, _, marginals = build ~hit:ignore options db prog in
  (ground, marginals)

let rerun ?(options = default_options) db prog =
  let timer = Timer.start () in
  let _, marginals = rerun_grounding options db prog in
  (marginals, Timer.elapsed_s timer)
