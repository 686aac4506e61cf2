module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Prng = Dd_util.Prng
module Budget = Dd_util.Budget

type parallel = {
  rngs : Prng.t array;  (** stream [d] is consumed only by domain [d] *)
  plan : Graph.var array array array;  (** color -> domain -> variables *)
  pool : Pool.t;
}

type mode =
  | Sequential of Prng.t  (** [domains = 1]: byte-for-byte [Compiled.sweep] *)
  | Parallel of parallel

type t = {
  state : Compiled.state;
  vars : Graph.var array;  (** the packed query variables, ascending *)
  mode : mode;
}

let check_domains domains =
  if domains < 1 then invalid_arg "Par_gibbs: domains must be >= 1"

(* The color plan over [vars], the packed variables a sweep visits:
   every query variable for {!create}, the coupled ones for
   {!marginals}.  On a graph with no isolated query variable the two are
   the same array, so the plan and every draw are too.  Called after
   [Compiled.make_state], so the initial assignment is the sequential
   sampler's for the same seed. *)
let parallel_plan ~kernel ~vars ~domains rng =
  let g = Compiled.graph kernel in
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
  let rngs = Array.init domains (fun _ -> Prng.split rng) in
  { rngs; plan; pool = Pool.create domains }

let create ~kernel ~domains rng =
  check_domains domains;
  let state = Compiled.make_state rng kernel in
  let vars = Compiled.query_vars kernel in
  let mode =
    if domains = 1 then Sequential rng else Parallel (parallel_plan ~kernel ~vars ~domains rng)
  in
  { state; vars; mode }

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
  else if !busy > 1 then Pool.run p.pool (fun d -> sweep p.rngs.(d) phase.(d))

let run_phase state p phase =
  run_phase_with (fun rng slice -> Compiled.sweep_slice rng state slice) p phase

(* [Compiled.sweep_slice] over the packed query array draws exactly as
   [Compiled.sweep]. *)
let sweep t =
  match t.mode with
  | Sequential rng -> Compiled.sweep_slice rng t.state t.vars
  | Parallel p -> Array.iter (run_phase t.state p) p.plan

(* The budget is polled both on the coordinator between color phases and
   inside every worker slice (chunked, see [Compiled.sweep_slice_budgeted])
   — one oversized color cannot stretch a deadline past its budget.  A
   worker-side [Exceeded] is re-raised by [Pool.run] after the barrier:
   the other workers complete their (disjoint) slices first, so the shared
   state is never torn when the exception escapes. *)
let sweep_budgeted budget state p =
  Array.iter
    (fun phase ->
      Budget.check budget "par_gibbs.color_phase";
      run_phase_with
        (fun rng slice ->
          Compiled.sweep_slice_budgeted ~budget ~site:"par_gibbs.slice" rng state slice)
        p phase)
    p.plan

let shutdown t =
  match t.mode with
  | Sequential _ -> ()
  | Parallel p -> Pool.shutdown p.pool

(* One domain, nothing coupled, or every component small: there is no
   chain to split, and [Compiled.marginals] answers (enumeration, closed
   forms, or the sequential chain) with no partition and no pool.
   Otherwise the color-synchronous chain sweeps the coupled variables
   only; evidence and isolated query variables are read in closed form
   before the first sweep. *)
let marginals ?(burn_in = 10) ?(budget = Budget.unlimited) ~kernel ~domains rng ~sweeps =
  check_domains domains;
  if domains = 1 || Compiled.enumerable kernel ~steps:(burn_in + sweeps) then
    Compiled.marginals ~burn_in ~budget rng kernel ~sweeps
  else begin
    let state = Compiled.make_state rng kernel in
    let vars = Compiled.coupled_vars kernel in
    let p = parallel_plan ~kernel ~vars ~domains rng in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p.pool)
      (fun () ->
        let m = Compiled.closed_form_marginals state in
        let totals = Array.make (Compiled.num_vars kernel) 0 in
        for _ = 1 to burn_in do
          sweep_budgeted budget state p
        done;
        for _ = 1 to sweeps do
          sweep_budgeted budget state p;
          Compiled.accumulate_span_true state vars totals
        done;
        let denom = float_of_int (max 1 sweeps) in
        Array.iter (fun v -> m.(v) <- float_of_int totals.(v) /. denom) vars;
        m)
  end

(* Deterministic near-equal split of [n] across [chains]. *)
let share n chains c = (n * (c + 1) / chains) - (n * c / chains)

(* The kernel is only read while sampling, so every chain shares the
   caller's and owns just its state and PRNG stream. *)
let sample_worlds ?(burn_in = 10) ~kernel ~domains rng ~n =
  check_domains domains;
  if domains = 1 then Compiled.sample_worlds ~burn_in rng kernel ~n
  else begin
    let rngs = Array.init domains (fun _ -> Prng.split rng) in
    let results = Array.make domains [||] in
    let pool = Pool.create domains in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.run pool (fun d ->
            let quota = share n domains d in
            if quota > 0 then
              results.(d) <- Compiled.sample_worlds ~burn_in rngs.(d) kernel ~n:quota));
    Array.concat (Array.to_list results)
  end
