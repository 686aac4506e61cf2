module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Prng = Dd_util.Prng
module Budget = Dd_util.Budget

type gibbs_mode = Color_sync | Async

let gibbs_mode_to_string = function Color_sync -> "color-sync" | Async -> "async"

type parallel = {
  rngs : Prng.t array;  (** stream [d] is consumed only by domain [d] *)
  plan : Graph.var array array array;  (** color -> domain -> variables *)
  pool : Pool.t;
  owns_pool : bool;
  num_colors : int;
}

type async = {
  a_rngs : Prng.t array;  (** one independent stream per logical worker *)
  a_spans : Range.span array;  (** worker -> contiguous span of the packed query array *)
  a_pool : Pool.t;
  a_owns_pool : bool;
  a_slots : int;  (** hardware slots actually woken: min(workers, pool size) *)
  mutable a_counters_stale : bool;
}

type mode =
  | Sequential of Prng.t  (** [domains = 1]: byte-for-byte [Compiled.sweep] *)
  | Parallel of parallel
  | Async_mode of async

type t = {
  state : Compiled.state;
  vars : Graph.var array;  (** the packed variables one sweep visits, ascending *)
  mode : mode;
  domains : int;
}

(* [sweep_set] picks the packed variables a sweep visits: every query
   variable for {!create}, the coupled ones for {!marginals}.  On a graph
   with no isolated query variable the two are the same array, so the
   plan, the spans and every draw are too. *)
let build ?init ?pool ~mode ?kernel ~sweep_set ~domains rng g =
  if domains < 1 then invalid_arg "Par_gibbs.create: domains must be >= 1";
  let kernel =
    match kernel with
    | Some k ->
      if not (Compiled.matches_structure k g) then
        invalid_arg "Par_gibbs.create: compiled kernel does not match the graph";
      k
    | None -> Compiled.compile g
  in
  let state = Compiled.make_state ?init rng kernel in
  let vars = sweep_set kernel in
  match mode with
  | Color_sync when domains = 1 -> { state; vars; mode = Sequential rng; domains }
  | Color_sync ->
    let partition = Partition.color g in
    (* The coloring covers every query variable; a sweep over a subset
       keeps each class's order, drops the rest, and then splits what is
       left across the domains.  Every color keeps its phase. *)
    let classes =
      if Array.length vars = Compiled.num_query kernel then partition.Partition.classes
      else begin
        let keep = Bytes.make (Graph.num_vars g) '\000' in
        Array.iter (fun v -> Bytes.set keep v '\001') vars;
        Array.map
          (fun cls ->
            Array.of_list (List.filter (fun v -> Bytes.get keep v <> '\000') (Array.to_list cls)))
          partition.Partition.classes
      end
    in
    let plan = Partition.slices { partition with Partition.classes } ~domains in
    (* Splitting after [Compiled.make_state] keeps the initial assignment
       identical to the sequential sampler's for the same seed. *)
    let rngs = Array.init domains (fun _ -> Prng.split rng) in
    let pool, owns_pool =
      match pool with
      | Some p ->
        if Pool.size p < domains then
          invalid_arg "Par_gibbs.create: pool smaller than requested domains";
        (p, false)
      | None -> (Pool.create domains, true)
    in
    {
      state;
      vars;
      mode = Parallel { rngs; plan; pool; owns_pool; num_colors = partition.Partition.num_colors };
      domains;
    }
  | Async ->
    (* [domains] logical workers, each owning one contiguous cost-balanced
       span of [vars].  The pool is sized to the hardware (never
       oversubscribed): when fewer slots than workers are available, each
       slot runs a deterministic block of workers back-to-back — worker
       [w] still consumes only its own stream and range, so shrinking the
       slot count changes scheduling, not work assignment. *)
    let spans =
      Range.spans ~cost:(fun i -> Compiled.async_cost kernel vars.(i)) ~workers:domains
        (Array.length vars)
    in
    (* A single worker keeps the caller's stream: its trajectory is then
       bit-identical to the sequential sampler's (the async conditional
       equals the counter-based one when unraced). *)
    let rngs =
      if domains = 1 then [| rng |] else Array.init domains (fun _ -> Prng.split rng)
    in
    let pool, owns_pool =
      match pool with
      | Some p -> (p, false)
      | None -> (Pool.create (min domains (Pool.recommended ())), true)
    in
    let slots = min domains (Pool.size pool) in
    {
      state;
      vars;
      mode = Async_mode { a_rngs = rngs; a_spans = spans; a_pool = pool; a_owns_pool = owns_pool; a_slots = slots; a_counters_stale = false };
      domains;
    }

let create ?init ?pool ?(mode = Color_sync) ?kernel ~domains rng g =
  build ?init ?pool ~mode ?kernel ~sweep_set:Compiled.query_vars ~domains rng g

let assignment t = Compiled.snapshot t.state

let domains t = t.domains

let mode t =
  match t.mode with Sequential _ | Parallel _ -> Color_sync | Async_mode _ -> Async

let phases t = match t.mode with Sequential _ | Async_mode _ -> 1 | Parallel p -> p.num_colors

let run_phase_with sweep p phase =
  (* Count the slices that actually hold work: a class smaller than the
     domain count (or a singleton class, the degenerate voting case)
     needs no barrier — run its one busy slice inline with that slice's
     own stream, exactly as the assigned worker would have. *)
  let busy = ref 0 and last = ref (-1) in
  Array.iteri
    (fun d slice ->
      if Array.length slice > 0 then begin
        incr busy;
        last := d
      end)
    phase;
  if !busy = 1 then
    let d = !last in
    sweep p.rngs.(d) phase.(d)
  else if !busy > 1 then
    (* [limit] keeps the parked tail of an oversized shared pool asleep:
       only the [Array.length phase] indexes the plan addresses run. *)
    Pool.run ~limit:(Array.length phase) p.pool (fun d ->
        if d < Array.length phase then sweep p.rngs.(d) phase.(d))

let run_phase state p phase =
  run_phase_with (fun rng slice -> Compiled.sweep_slice rng state slice) p phase

(* One async epoch: every worker free-runs [sweeps] passes over its own
   span of [vars] with no intermediate synchronization; the single
   [Pool.run] join at the end is the epoch barrier that publishes the
   bytes (and the per-worker [totals] shards) to the coordinator.  Logical
   workers are multiplexed onto the pool's hardware slots in deterministic
   blocks. *)
let run_async_epoch st vars a ~budget ~sweeps ~totals =
  a.a_counters_stale <- true;
  let workers = Array.length a.a_spans in
  let slots = a.a_slots in
  Pool.run ~limit:slots a.a_pool (fun s ->
      for w = s * workers / slots to ((s + 1) * workers / slots) - 1 do
        let rng = a.a_rngs.(w) and span = a.a_spans.(w) in
        if Range.length span > 0 then
          for _ = 1 to sweeps do
            Compiled.sweep_span_async_budgeted ~budget ~site:"par_gibbs.async_range" rng st vars
              ~lo:span.Range.lo ~hi:span.Range.hi;
            match totals with
            | Some tot ->
              (* Spans are disjoint: each worker owns its cells of [tot]. *)
              Compiled.accumulate_span_true st vars ~lo:span.Range.lo ~hi:span.Range.hi tot
            | None -> ()
          done
      done)

(* [Compiled.sweep_slice] over the packed query array draws exactly as
   [Compiled.sweep]. *)
let sweep t =
  match t.mode with
  | Sequential rng -> Compiled.sweep_slice rng t.state t.vars
  | Parallel p -> Array.iter (run_phase t.state p) p.plan
  | Async_mode a -> run_async_epoch t.state t.vars a ~budget:Budget.unlimited ~sweeps:1 ~totals:None

let sweep_epoch ?(budget = Budget.unlimited) ?totals t ~sweeps =
  if sweeps < 0 then invalid_arg "Par_gibbs.sweep_epoch: sweeps must be >= 0";
  match t.mode with
  | Async_mode a ->
    Budget.check budget "par_gibbs.epoch";
    run_async_epoch t.state t.vars a ~budget ~sweeps ~totals
  | Sequential rng ->
    for _ = 1 to sweeps do
      Budget.check budget "par_gibbs.sweep";
      Compiled.sweep_slice rng t.state t.vars;
      match totals with
      | Some tot -> Compiled.accumulate_span_true t.state t.vars ~lo:0 ~hi:(Array.length t.vars) tot
      | None -> ()
    done
  | Parallel _ ->
    invalid_arg "Par_gibbs.sweep_epoch: color-sync multi-domain sampler has no epoch loop"

let resync t =
  match t.mode with
  | Async_mode a when a.a_counters_stale ->
    Compiled.rebuild_counters t.state;
    a.a_counters_stale <- false
  | _ -> ()

(* The budget is polled both on the coordinator between color phases and
   inside every worker slice (chunked, see [Compiled.sweep_slice_budgeted])
   — one oversized color cannot stretch a deadline past its budget.  A
   worker-side [Exceeded] is re-raised by [Pool.run] after the barrier:
   the other workers complete their (disjoint) slices first, so the shared
   state is never torn when the exception escapes.  In async mode the
   poll sits inside every worker's chunked range sweep; an abort leaves
   only whole assignment bytes behind (the counters were already treated
   as stale), so the shared state stays untorn there too. *)
let sweep_budgeted budget t =
  match t.mode with
  | Sequential rng ->
    Budget.check budget "par_gibbs.sweep";
    Compiled.sweep_slice rng t.state t.vars
  | Parallel p ->
    Array.iter
      (fun phase ->
        Budget.check budget "par_gibbs.color_phase";
        run_phase_with
          (fun rng slice ->
            Compiled.sweep_slice_budgeted ~budget ~site:"par_gibbs.slice" rng t.state slice)
          p phase)
      p.plan
  | Async_mode a ->
    Budget.check budget "par_gibbs.epoch";
    run_async_epoch t.state t.vars a ~budget ~sweeps:1 ~totals:None

let shutdown t =
  match t.mode with
  | Sequential _ -> ()
  | Parallel p -> if p.owns_pool then Pool.shutdown p.pool
  | Async_mode a -> if a.a_owns_pool then Pool.shutdown a.a_pool

(* The chain sweeps the coupled variables only; evidence and isolated
   query variables are read in closed form before the first sweep. *)
let marginals ?(burn_in = 10) ?(budget = Budget.unlimited) ?kernel ?(mode = Color_sync)
    ?(epoch_sweeps = 8) ~domains rng g ~sweeps =
  if epoch_sweeps < 1 then invalid_arg "Par_gibbs.marginals: epoch_sweeps must be >= 1";
  let t = build ?kernel ~mode ~sweep_set:Compiled.coupled_vars ~domains rng g in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      let m = Compiled.closed_form_marginals t.state in
      let totals = Array.make (Graph.num_vars g) 0 in
      (match t.mode with
      | Async_mode _ ->
        let run_epochs total totals =
          let remaining = ref total in
          while !remaining > 0 do
            let chunk = min epoch_sweeps !remaining in
            sweep_epoch ~budget ?totals t ~sweeps:chunk;
            remaining := !remaining - chunk
          done
        in
        run_epochs burn_in None;
        run_epochs sweeps (Some totals)
      | Sequential _ | Parallel _ ->
        for _ = 1 to burn_in do
          sweep_budgeted budget t
        done;
        for _ = 1 to sweeps do
          sweep_budgeted budget t;
          Compiled.accumulate_span_true t.state t.vars ~lo:0 ~hi:(Array.length t.vars) totals
        done);
      let denom = float_of_int (max 1 sweeps) in
      Array.iter (fun v -> m.(v) <- float_of_int totals.(v) /. denom) t.vars;
      m)

(* Deterministic near-equal split of [n] across [chains]. *)
let share n chains c = (n * (c + 1) / chains) - (n * c / chains)

let with_chain_pool domains f =
  let pool = Pool.create domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Multi-chain entry points compile the graph once in the caller: the
   kernel is only read while sampling, so every chain shares it and owns
   just its state and PRNG stream. *)
let sample_worlds ?(burn_in = 10) ?(spacing = 1) ~domains rng g ~n =
  if domains < 1 then invalid_arg "Par_gibbs.sample_worlds: domains must be >= 1";
  let kernel = Compiled.compile g in
  if domains = 1 then Compiled.sample_worlds ~burn_in ~spacing rng kernel ~n
  else begin
    let rngs = Array.init domains (fun _ -> Prng.split rng) in
    let results = Array.make domains [||] in
    with_chain_pool domains (fun pool ->
        Pool.run pool (fun d ->
            if d < domains then begin
              let quota = share n domains d in
              if quota > 0 then
                results.(d) <- Compiled.sample_worlds ~burn_in ~spacing rngs.(d) kernel ~n:quota
            end));
    Array.concat (Array.to_list results)
  end

let chain_marginals ?(burn_in = 10) ~domains rng g ~sweeps =
  if domains < 1 then invalid_arg "Par_gibbs.chain_marginals: domains must be >= 1";
  let kernel = Compiled.compile g in
  if domains = 1 then Compiled.marginals ~burn_in rng kernel ~sweeps
  else begin
    let rngs = Array.init domains (fun _ -> Prng.split rng) in
    let per_chain = Array.make domains [||] in
    with_chain_pool domains (fun pool ->
        Pool.run pool (fun d ->
            if d < domains then per_chain.(d) <- Compiled.marginals ~burn_in rngs.(d) kernel ~sweeps));
    Array.init (Graph.num_vars g) (fun v ->
        Array.fold_left (fun acc m -> acc +. m.(v)) 0.0 per_chain /. float_of_int domains)
  end
