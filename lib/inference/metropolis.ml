module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng

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

(* Old weight values by id. *)
let old_weight_table change =
  let table = Hashtbl.create 16 in
  List.iter (fun (w, old_value) -> Hashtbl.replace table w old_value) change.changed_weights;
  table

(* Factors affected by a weight change, excluding brand-new factors (their
   full energy is already counted) and extended factors (handled together
   with their body extension). *)
let weight_affected_factors change =
  match change.changed_weights with
  | [] -> []
  | changed ->
    let excluded =
      let set = Hashtbl.create 16 in
      List.iter (fun i -> Hashtbl.replace set i ()) change.new_factor_ids;
      List.iter (fun (i, _) -> Hashtbl.replace set i ()) change.extended_factors;
      fun i -> Hashtbl.mem set i
    in
    let table = Hashtbl.create 16 in
    List.iter (fun (w, old_value) -> Hashtbl.replace table w old_value) changed;
    let out = ref [] in
    Graph.iter_factors
      (fun i f ->
        if not (excluded i) then
          match Hashtbl.find_opt table f.Graph.weight_id with
          | Some old_value -> out := (i, old_value) :: !out
          | None -> ())
      change.graph;
    !out

(* Energy of a factor under an explicit weight value: factor energies are
   linear in the weight, with a unit probe when the current weight is 0. *)
let energy_under_weight g f lookup target_weight =
  let current = Graph.weight_value g f.Graph.weight_id in
  if current <> 0.0 then Graph.factor_energy g f lookup /. current *. target_weight
  else begin
    Graph.set_weight g f.Graph.weight_id 1.0;
    let unit_energy = Graph.factor_energy g f lookup in
    Graph.set_weight g f.Graph.weight_id current;
    unit_energy *. target_weight
  end

let prefix_energy_under_weight g f lookup old_bodies target_weight =
  let current = Graph.weight_value g f.Graph.weight_id in
  if current <> 0.0 then
    Graph.factor_energy_prefix g f lookup old_bodies /. current *. target_weight
  else begin
    Graph.set_weight g f.Graph.weight_id 1.0;
    let unit_energy = Graph.factor_energy_prefix g f lookup old_bodies in
    Graph.set_weight g f.Graph.weight_id current;
    unit_energy *. target_weight
  end

let delta_log_weight change assignment =
  let g = change.graph in
  let lookup v = assignment.(v) in
  let violates_evidence =
    List.exists
      (fun (v, _old) ->
        match Graph.evidence_of g v with
        | Graph.Evidence b -> assignment.(v) <> b
        | Graph.Query -> false)
      change.evidence_changes
  in
  if violates_evidence then neg_infinity
  else begin
    let old_weights = old_weight_table change in
    let old_weight f =
      match Hashtbl.find_opt old_weights f.Graph.weight_id with
      | Some w -> w
      | None -> Graph.weight_value g f.Graph.weight_id
    in
    let from_new_factors =
      List.fold_left
        (fun acc i -> acc +. Graph.factor_energy g (Graph.factor g i) lookup)
        0.0 change.new_factor_ids
    in
    (* An extended factor had only its first [old_bodies] groundings and the
       old weight before the update. *)
    let from_extensions =
      List.fold_left
        (fun acc (i, old_bodies) ->
          let f = Graph.factor g i in
          let now = Graph.factor_energy g f lookup in
          let before = prefix_energy_under_weight g f lookup old_bodies (old_weight f) in
          acc +. now -. before)
        0.0 change.extended_factors
    in
    let from_weight_changes =
      List.fold_left
        (fun acc (i, old_value) ->
          let f = Graph.factor g i in
          let now = Graph.factor_energy g f lookup in
          let before = energy_under_weight g f lookup old_value in
          acc +. now -. before)
        0.0 (weight_affected_factors change)
    in
    from_new_factors +. from_extensions +. from_weight_changes
  end

type result = {
  marginals : float array;
  acceptance_rate : float;
  proposals : int;
  accepted : int;
  exhausted : bool;
}

(* Extend a stored sample to the updated graph: copy old values, clamp all
   evidence, then run a few restricted Gibbs sweeps over the new
   variables. *)
let extend_sample rng change stored_sample ~sweeps =
  let g = change.graph in
  let n = Graph.num_vars g in
  let a = Array.make n false in
  let old_n = Array.length stored_sample in
  Array.blit stored_sample 0 a 0 (min old_n n);
  List.iter (fun v -> if v < n then a.(v) <- Prng.bool rng) change.new_vars;
  (* Clamp evidence under the updated graph. *)
  for v = 0 to n - 1 do
    match Graph.evidence_of g v with
    | Graph.Evidence b -> a.(v) <- b
    | Graph.Query -> ()
  done;
  for _ = 1 to sweeps do
    List.iter
      (fun v ->
        match Graph.evidence_of g v with
        | Graph.Query -> Gibbs.resample_var rng g a v
        | Graph.Evidence _ -> ())
      change.new_vars
  done;
  a

let infer rng change ~stored ~chain_length =
  let new_var_sweeps = 2 in
  let g = change.graph in
  let nstored = Array.length stored in
  if nstored = 0 then invalid_arg "Metropolis.infer: no stored samples";
  let n = Graph.num_vars g in
  let current = ref (extend_sample rng change stored.(0) ~sweeps:new_var_sweeps) in
  let current_delta = ref (delta_log_weight change !current) in
  let totals = Array.make n 0 in
  let accepted = ref 0 in
  for step = 0 to chain_length - 1 do
    let proposal =
      extend_sample rng change stored.((step + 1) mod nstored) ~sweeps:new_var_sweeps
    in
    let proposal_delta = delta_log_weight change proposal in
    let log_alpha = proposal_delta -. !current_delta in
    if log_alpha >= 0.0 || Prng.float_unit rng < exp log_alpha then begin
      current := proposal;
      current_delta := proposal_delta;
      incr accepted
    end;
    let a = !current in
    for v = 0 to n - 1 do
      if a.(v) then totals.(v) <- totals.(v) + 1
    done
  done;
  {
    marginals = Array.map (fun c -> float_of_int c /. float_of_int (max 1 chain_length)) totals;
    acceptance_rate = float_of_int !accepted /. float_of_int (max 1 chain_length);
    proposals = chain_length;
    accepted = !accepted;
    exhausted = chain_length > nstored;
  }

let acceptance_probe rng change ~stored ~probes =
  let n = min probes (Array.length stored) in
  if n = 0 then 1.0
  else begin
    let result = infer rng change ~stored ~chain_length:n in
    result.acceptance_rate
  end
