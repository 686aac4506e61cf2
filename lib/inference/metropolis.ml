module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

type change = {
  graph : Graph.t;
  new_factor_ids : int list;
  extended_factors : (int * int) list;
  changed_weights : (Graph.weight_id * float) list;
  new_vars : Graph.var list;
  evidence_changes : (Graph.var * Graph.evidence) list;
}

let unchanged graph =
  {
    graph;
    new_factor_ids = [];
    extended_factors = [];
    changed_weights = [];
    new_vars = [];
    evidence_changes = [];
  }

let clamped g v =
  match Graph.evidence_of g v with Graph.Evidence b -> Some (v, b) | Graph.Query -> None

(* What a chain reads of the change, prepared once: the factors whose
   energy moved (new ones; extended ones, then the others whose weight
   moved, descending id, each with its old body count and old weight),
   the variables to clamp (re-labelled ones, then new ones, that are
   evidence now), and each new query variable with the ids of its
   factors.  A new variable appears only in new or extended factors; its
   list is newest (highest id) first, the order of
   {!Graph.factors_of_var}. *)
type prepared = {
  pgraph : Graph.t;
  fresh : Graph.factor array;
  extended : (Graph.factor * int * float) array;
  reweighted : (Graph.factor * int * float) array;
  required : (Graph.var * bool) array;
  clamp_new : (Graph.var * bool) array;
  resample : (Graph.var * int list) array;
}

let prepare change =
  let g = change.graph in
  let old_weights = Hashtbl.create 16 in
  List.iter (fun (w, old_value) -> Hashtbl.replace old_weights w old_value) change.changed_weights;
  let moved fid bodies =
    let f = Graph.factor g fid in
    let w = f.Graph.weight_id in
    (f, bodies, Option.value (Hashtbl.find_opt old_weights w) ~default:(Graph.weight_value g w))
  in
  let touched = change.new_factor_ids @ List.map fst change.extended_factors in
  let reweighted = ref [] in
  if change.changed_weights <> [] then begin
    let excluded = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace excluded i ()) touched;
    Graph.iter_factors
      (fun i f ->
        if Hashtbl.mem old_weights f.Graph.weight_id && not (Hashtbl.mem excluded i) then
          reweighted := moved i (Array.length f.Graph.bodies) :: !reweighted)
      g
  end;
  (* new query variable -> (last factor id listed, its factor ids) *)
  let lists = Hashtbl.create 16 in
  List.iter
    (fun v -> if Graph.evidence_of g v = Graph.Query then Hashtbl.replace lists v (-1, []))
    change.new_vars;
  let note fid v =
    match Hashtbl.find_opt lists v with
    | Some (last, fids) when last <> fid -> Hashtbl.replace lists v (fid, fid :: fids)
    | Some _ | None -> ()
  in
  List.iter
    (fun fid ->
      let f = Graph.factor g fid in
      Option.iter (note fid) f.Graph.head;
      Array.iter (Array.iter (fun (l : Graph.literal) -> note fid l.Graph.var)) f.Graph.bodies)
    (List.sort_uniq Int.compare touched);
  let factors v = Option.map (fun (_, fids) -> (v, fids)) (Hashtbl.find_opt lists v) in
  {
    pgraph = g;
    fresh = Array.of_list (List.map (Graph.factor g) change.new_factor_ids);
    extended = Array.of_list (List.map (fun (i, bodies) -> moved i bodies) change.extended_factors);
    reweighted = Array.of_list !reweighted;
    required = Array.of_list (List.filter_map (fun (v, _) -> clamped g v) change.evidence_changes);
    clamp_new = Array.of_list (List.filter_map (clamped g) change.new_vars);
    resample = Array.of_list (List.filter_map factors change.new_vars);
  }

let eval_delta p assignment =
  let g = p.pgraph in
  let lookup v = assignment.(v) in
  let moved acc (f, bodies, weight) =
    acc +. Graph.factor_energy g f lookup -. Graph.factor_energy_prefix f ~weight lookup bodies
  in
  if Array.exists (fun (v, b) -> assignment.(v) <> b) p.required then neg_infinity
  else
    Array.fold_left (fun acc f -> acc +. Graph.factor_energy g f lookup) 0.0 p.fresh
    +. Array.fold_left moved 0.0 p.extended
    +. Array.fold_left moved 0.0 p.reweighted

let delta_log_weight change assignment = eval_delta (prepare change) assignment

type result = {
  marginals : float array;
  acceptance_rate : float;
  proposals : int;
  accepted : int;
}

(* Extend a stored world to the updated graph: copy it, draw every new
   variable uniformly, clamp what the change made evidence, then run two
   restricted Gibbs sweeps over the new query variables.  Stored worlds
   already hold the original evidence. *)
let extend_sample rng change p stored_sample =
  let g = change.graph in
  let n = Graph.num_vars g in
  let a = Array.make n false in
  Array.blit stored_sample 0 a 0 (min (Array.length stored_sample) n);
  List.iter (fun v -> if v < n then a.(v) <- Prng.bool rng) change.new_vars;
  Array.iter (fun (v, b) -> a.(v) <- b) p.required;
  Array.iter (fun (v, b) -> a.(v) <- b) p.clamp_new;
  for _ = 1 to 2 do
    Array.iter
      (fun (v, fids) -> a.(v) <- Prng.bernoulli rng (Stats.sigmoid (Graph.flip_energy g fids a v)))
      p.resample
  done;
  a

(* The chain's state lives in the closure: the world it holds and its
   delta, how many steps held each variable true, and the next stored
   world to propose. *)
let infer rng change ~stored ~first =
  if first < 0 || first >= Array.length stored then
    invalid_arg "Metropolis.infer: no stored world left";
  let p = prepare change in
  let current = ref (extend_sample rng change p stored.(first)) in
  let current_delta = ref (eval_delta p !current) in
  let totals = Array.make (Graph.num_vars change.graph) 0 in
  let next = ref (first + 1) and accepted = ref 0 in
  fun ~proposals ->
    let last = max !next (min (Array.length stored) (!next + proposals)) in
    for i = !next to last - 1 do
      let proposal = extend_sample rng change p stored.(i) in
      let proposal_delta = eval_delta p proposal in
      let log_alpha = proposal_delta -. !current_delta in
      if log_alpha >= 0.0 || Prng.float_unit rng < exp log_alpha then begin
        current := proposal;
        current_delta := proposal_delta;
        incr accepted
      end;
      let a = !current in
      for v = 0 to Array.length totals - 1 do
        if a.(v) then totals.(v) <- totals.(v) + 1
      done
    done;
    next := last;
    let steps = !next - first - 1 in
    let per_step x = float_of_int x /. float_of_int (max 1 steps) in
    {
      marginals = Array.map per_step totals;
      acceptance_rate = per_step !accepted;
      proposals = steps;
      accepted = !accepted;
    }
