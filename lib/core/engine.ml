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
  initial_learning_rate : float;
  incremental_learning_epochs : int;
  incremental_learning_rate : float;
  variational_var_limit : int;
  with_variational : bool;
  disable_sampling : bool;
  disable_variational : bool;
  workload_aware : bool;
  parallel_domains : int;
  gibbs_mode : Par_gibbs.gibbs_mode;
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
    initial_learning_rate = 0.1;
    incremental_learning_epochs = 5;
    incremental_learning_rate = 0.03;
    variational_var_limit = 600;
    with_variational = true;
    disable_sampling = false;
    disable_variational = false;
    workload_aware = true;
    parallel_domains = 1;
    gibbs_mode = Par_gibbs.Color_sync;
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
  grounding : Grounding.report;
  marginals : float array;
}

type t = {
  ground : Grounding.t;
  opts : options;
  rng : Prng.t;
  mutable mat : Materialize.t;
  extension_origin : (int, int) Hashtbl.t;
  mutable proposals_used : int;
  mutable last_marginals : float array;
  (* Compiled Gibbs kernel cache: valid as long as the graph's structure
     (and evidence) has not changed since compilation — weight-only
     incremental steps just re-sync the dense slots. *)
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

let options t = t.opts

let grounding t = t.ground

let graph t = Grounding.graph t.ground

let materialization t = t.mat

let marginals t = t.last_marginals

let marginals_by_relation t =
  Grounding.marginals_by_relation t.ground t.last_marginals

let kernel_compiles t = t.kernel_compiles

(* Reuse the cached kernel when only weights moved since compile time;
   [apply_update] drops the cache on any structural or evidence delta,
   and [matches_structure] re-checks the counts as a belt-and-braces
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

let cd_options epochs learning_rate =
  { Learner.default_cd with Learner.epochs; learning_rate; chain_sweeps = 2 }

let learn t ~epochs ~learning_rate =
  if epochs > 0 then
    Learner.train_cd ~options:(cd_options epochs learning_rate) t.rng (graph t)

let materialize_now t =
  t.mat <-
    Materialize.materialize ~n_samples:t.opts.materialization_samples
      ~burn_in:t.opts.burn_in ~lambda:t.opts.lambda
      ~variational_var_limit:t.opts.variational_var_limit
      ~with_variational:t.opts.with_variational
      ~domains:t.opts.parallel_domains t.rng (graph t);
  Hashtbl.reset t.extension_origin;
  t.proposals_used <- 0

let sample_mean_marginals mat nvars =
  let totals = Array.make nvars 0 in
  Array.iter
    (fun world ->
      for v = 0 to min nvars (Array.length world) - 1 do
        if world.(v) then totals.(v) <- totals.(v) + 1
      done)
    mat.Materialize.samples;
  let n = max 1 (Array.length mat.Materialize.samples) in
  Array.map (fun c -> float_of_int c /. float_of_int n) totals

let create ?(options = default_options) db prog =
  let grounding = Grounding.ground db prog in
  Fault.hit "engine.create.post_ground";
  let t =
    {
      ground = grounding;
      opts = options;
      rng = Prng.create options.seed;
      mat =
        {
          Materialize.samples = [||];
          variational = None;
          base_weights = [||];
          base_factor_count = 0;
          base_var_count = 0;
          base_evidence = [||];
        };
      extension_origin = Hashtbl.create 64;
      proposals_used = 0;
      last_marginals = [||];
      kernel = None;
      kernel_compiles = 0;
      identity = ref ();
      commits = 0;
      log = None;
    }
  in
  learn t ~epochs:options.initial_learning_epochs
    ~learning_rate:options.initial_learning_rate;
  Fault.hit "engine.create.post_learn";
  materialize_now t;
  t.last_marginals <- sample_mean_marginals t.mat (Graph.num_vars (graph t));
  t

let record_extensions t (greport : Grounding.report) =
  List.iter
    (fun (fid, old_count) ->
      if fid < t.mat.Materialize.base_factor_count && not (Hashtbl.mem t.extension_origin fid)
      then Hashtbl.replace t.extension_origin fid old_count)
    greport.Grounding.change.Metropolis.extended_factors

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
  record_extensions t greport;
  (* Structure or evidence moved: the compiled kernel is stale.  A
     weight-only step (incremental learning below) keeps it and merely
     refreshes the dense weight slots on next use. *)
  if
    greport.Grounding.new_vars > 0
    || greport.Grounding.new_factors > 0
    || greport.Grounding.extended > 0
    || greport.Grounding.evidence_changed > 0
  then t.kernel <- None;
  (* Incremental learning: warmstart is implicit (weights are live). *)
  let needs_learning =
    greport.Grounding.evidence_changed > 0
    || greport.Grounding.new_factors > 0
    || greport.Grounding.extended > 0
  in
  let learning_seconds =
    if needs_learning then
      Timer.time_s (fun () ->
          learn t ~epochs:t.opts.incremental_learning_epochs
            ~learning_rate:t.opts.incremental_learning_rate)
    else 0.0
  in
  Fault.hit "engine.apply_update.post_learning";
  let change = Materialize.cumulative_change t.mat (graph t) ~extension_origin:t.extension_origin in
  let profile = Optimizer.profile_of_change change in
  let samples_total = Array.length t.mat.Materialize.samples in
  let exhausted = t.proposals_used + t.opts.inference_chain > samples_total in
  let variational_available =
    t.mat.Materialize.variational <> None && not t.opts.disable_variational
  in
  let sampling_available = samples_total > 0 && not t.opts.disable_sampling in
  let decision =
    if not sampling_available then Optimizer.Variational
    else if not variational_available then Optimizer.Sampling
    else if not t.opts.workload_aware then
      if exhausted then Optimizer.Variational else Optimizer.Sampling
    else Optimizer.choose profile ~samples_exhausted:exhausted
  in
  let strategy, acceptance_rate, marginals, inference_seconds =
    match decision with
    | Optimizer.Sampling when sampling_available ->
      (* Probe the acceptance rate first: a chain needs ~SI/rho proposals
         for SI effective samples, and when the distribution moved too much
         the method "resorts to another evaluation method" (Section
         3.2.2). *)
      let (probe, m_probe), probe_secs =
        Timer.time (fun () ->
            let r =
              Metropolis.infer t.rng change ~stored:t.mat.Materialize.samples
                ~chain_length:(min 150 (Array.length t.mat.Materialize.samples))
            in
            (r.Metropolis.acceptance_rate, r))
      in
      t.proposals_used <- t.proposals_used + m_probe.Metropolis.proposals;
      if probe < t.opts.acceptance_floor && variational_available then begin
        let approx = Option.get t.mat.Materialize.variational in
        let m, extra =
          Timer.time (fun () ->
              Materialize.variational_infer ~sweeps:t.opts.inference_chain
                ~burn_in:t.opts.burn_in t.rng ~approx ~change)
        in
        (Used_variational, Some probe, m, probe_secs +. extra)
      end
      else begin
        let chain_length =
          min
            (t.opts.inference_chain * 10)
            (int_of_float
               (ceil (float_of_int t.opts.inference_chain /. max probe 0.02)))
        in
        let result, secs =
          Timer.time (fun () ->
              Metropolis.infer t.rng change ~stored:t.mat.Materialize.samples
                ~chain_length)
        in
        t.proposals_used <- t.proposals_used + result.Metropolis.proposals;
        (Used_sampling, Some result.Metropolis.acceptance_rate, result.Metropolis.marginals,
         probe_secs +. secs)
      end
    | Optimizer.Variational when variational_available ->
      let approx = Option.get t.mat.Materialize.variational in
      let m, secs =
        Timer.time (fun () ->
            Materialize.variational_infer ~sweeps:t.opts.inference_chain
              ~burn_in:t.opts.burn_in t.rng ~approx ~change)
      in
      (Used_variational, None, m, secs)
    | Optimizer.Sampling | Optimizer.Variational ->
      let m, secs =
        Timer.time (fun () ->
            Par_gibbs.marginals ~burn_in:t.opts.burn_in ~budget ~kernel:(compiled_kernel t)
              ~mode:t.opts.gibbs_mode ~domains:t.opts.parallel_domains t.rng (graph t)
              ~sweeps:t.opts.inference_chain)
      in
      (Used_full_gibbs, None, m, secs)
  in
  Fault.hit "engine.apply_update.post_inference";
  t.last_marginals <- marginals;
  {
    strategy;
    grounding_seconds;
    learning_seconds;
    inference_seconds;
    acceptance_rate;
    grounding = greport;
    marginals;
  }

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
    (* A half-applied update is a state no replay reproduces. *)
    t.log <- None;
    raise e

let identity t = t.identity

let commits t = t.commits

let committed_log t = Option.map List.rev t.log

let drain_log t = t.log <- Some []

let require_base t = t.log <- None

(* --- update transactions -------------------------------------------------- *)

(* Everything [apply_update] can mutate, captured as either a cheap value
   snapshot (rng state, counters, marginals, kernel cache, commit log —
   all small) or an undo log over the big mutable stores (relations
   journal their tuple flips, the graph journals in-place slot writes and
   truncates appends, the grounding tables prune by id thresholds).  The
   clean path therefore pays only journal bookkeeping, never a copy of
   the database or graph. *)
type txn = {
  x_graph_journal : Graph.journal;
  x_gmark : Grounding.mark;
  x_tables : string list;  (* tables existing at begin *)
  x_rel_log : (Relation.t * Tuple.t * int) list ref;  (* newest first *)
  x_journaled : Relation.t list;
  x_rng : Dd_util.Prng.t;
  x_mat : Materialize.t;
  x_origin : (int * int) list;
  x_proposals_used : int;
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
    x_graph_journal = Graph.journal_begin (graph t);
    x_gmark = Grounding.mark t.ground;
    x_tables = tables;
    x_rel_log = log;
    x_journaled = journaled;
    x_rng = Prng.copy t.rng;
    x_mat = t.mat;
    x_origin = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.extension_origin [];
    x_proposals_used = t.proposals_used;
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
  Hashtbl.reset t.extension_origin;
  List.iter (fun (k, v) -> Hashtbl.replace t.extension_origin k v) x.x_origin;
  t.proposals_used <- x.x_proposals_used;
  t.last_marginals <- x.x_last_marginals;
  t.kernel <- x.x_kernel;
  t.kernel_compiles <- x.x_kernel_compiles;
  t.commits <- x.x_commits;
  t.log <- x.x_log

(* A fresh baseline and the PRNG draws it took: nothing replay redoes. *)
let rematerialize t =
  t.log <- None;
  Timer.time_s (fun () -> materialize_now t)

(* The Rerun rung's engine: built from scratch over [t]'s database and
   program, it continues [t]'s commit count and, like any new engine,
   needs a base. *)
let rebuild t =
  let fresh = create ~options:t.opts (Grounding.database t.ground) (Grounding.program t.ground) in
  fresh.commits <- t.commits;
  fresh

let rerun_grounding options db prog =
  let grounding = Grounding.ground db prog in
  let rng = Prng.create options.seed in
  let g = Grounding.graph grounding in
  Learner.train_cd
    ~options:
      {
        Learner.default_cd with
        Learner.epochs = options.initial_learning_epochs;
        learning_rate = options.initial_learning_rate;
      }
    rng g;
  let marginals =
    Par_gibbs.marginals ~burn_in:options.burn_in ~mode:options.gibbs_mode
      ~domains:options.parallel_domains rng g ~sweeps:options.inference_chain
  in
  (grounding, marginals)

let rerun ?(options = default_options) db prog =
  let timer = Timer.start () in
  let _, marginals = rerun_grounding options db prog in
  (marginals, Timer.elapsed_s timer)

