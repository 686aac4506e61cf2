module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Stats = Dd_util.Stats

let feature_counts g assignment =
  let lookup v = assignment.(v) in
  let acc : (Graph.weight_id, float) Hashtbl.t = Hashtbl.create 16 in
  Graph.iter_factors
    (fun _ f ->
      if Graph.weight_learnable g f.Graph.weight_id then begin
        let w = Graph.weight_value g f.Graph.weight_id in
        (* factor_energy = w * sign * g(n); divide the weight back out to
           get the per-weight gradient, handling w = 0 by a unit probe. *)
        let unit =
          if w <> 0.0 then Graph.factor_energy g f lookup /. w
          else begin
            Graph.set_weight g f.Graph.weight_id 1.0;
            let e = Graph.factor_energy g f lookup in
            Graph.set_weight g f.Graph.weight_id 0.0;
            e
          end
        in
        let prev = try Hashtbl.find acc f.Graph.weight_id with Not_found -> 0.0 in
        Hashtbl.replace acc f.Graph.weight_id (prev +. unit)
      end)
    g;
  Hashtbl.fold (fun w v out -> (w, v) :: out) acc []

let pseudo_log_likelihood ?(worlds = 5) rng g =
  let evidence = Graph.evidence_vars g in
  if evidence = [] then 0.0
  else begin
    let total = ref 0.0 and count = ref 0 in
    let st = Compiled.make_state rng (Compiled.compile g) in
    for _ = 1 to worlds do
      Compiled.sweep rng st;
      List.iter
        (fun (v, label) ->
          let p = Compiled.conditional_true_prob st v in
          let p = Stats.clamp 1e-9 (1.0 -. 1e-9) (if label then p else 1.0 -. p) in
          total := !total +. log p;
          incr count)
        evidence
    done;
    !total /. float_of_int (max 1 !count)
  end
