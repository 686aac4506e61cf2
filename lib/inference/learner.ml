module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng
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

type cd_options = { epochs : int; learning_rate : float }

let default_cd = { epochs = 50; learning_rate = 0.1 }

(* Step-size decay, L2 penalty and Gibbs sweeps per phase per epoch. *)
let cd_decay = 0.05
let cd_l2 = 0.0001
let cd_chain_sweeps = 2

let train_cd ?(options = default_cd) ?(on_epoch = fun _ _ -> ()) ~kernel rng =
  (* Persistent chains over one compiled kernel: the positive chain keeps
     evidence clamped (the default sweep), the negative chain floats every
     variable.  Gradients come straight off the kernel's live
     satisfied-body counters into a dense per-weight-slot array, and each
     weight step re-syncs the kernel with [Compiled.refresh_weights]
     instead of regrounding or rebuilding any structure. *)
  let g = Compiled.graph kernel in
  let positive = Compiled.make_state rng kernel in
  let negative = Compiled.make_state rng kernel in
  let learnable = Compiled.learnable_active kernel in
  let gradient = Array.make (Graph.num_weights g) 0.0 in
  for epoch = 0 to options.epochs - 1 do
    (* Crash mid-training = weights partially stepped; recovery discards
       them with the rest of the in-memory state. *)
    Dd_util.Fault.hit "learner.train_cd.epoch";
    for _ = 1 to cd_chain_sweeps do
      Compiled.sweep rng positive;
      Compiled.sweep_all rng negative
    done;
    let lr = options.learning_rate /. (1.0 +. (cd_decay *. float_of_int epoch)) in
    Array.fill gradient 0 (Array.length gradient) 0.0;
    Compiled.add_feature_counts positive ~scale:1.0 gradient;
    Compiled.add_feature_counts negative ~scale:(-1.0) gradient;
    Array.iter
      (fun w ->
        let current = Graph.weight_value g w in
        Graph.set_weight g w (current +. (lr *. (gradient.(w) -. (cd_l2 *. current)))))
      learnable;
    on_epoch epoch g;
    (* After both the step and the callback (which may also touch
       weights): the kernel's dense slots track the graph again before
       the next epoch samples. *)
    Compiled.refresh_weights kernel
  done

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

type lr_data = {
  nfeatures : int;
  rows : (int array * bool) array;
}

let score weights features =
  Array.fold_left (fun acc f -> acc +. weights.(f)) 0.0 features

let lr_predict weights features = Stats.sigmoid (score weights features)

let lr_loss data weights =
  let n = Array.length data.rows in
  if n = 0 then 0.0
  else begin
    let total = ref 0.0 in
    Array.iter
      (fun (features, label) ->
        let p = lr_predict weights features in
        let p = Stats.clamp 1e-12 (1.0 -. 1e-12) (if label then p else 1.0 -. p) in
        total := !total -. log p)
      data.rows;
    !total /. float_of_int n
  end

type lr_method =
  | Sgd
  | Gd

let train_lr ~method_ ?warm ?(epochs = 50) ?(learning_rate = 0.1) ?(on_epoch = fun _ _ -> ())
    rng data =
  let l2 = 0.0001 in
  let weights =
    match warm with
    | Some w ->
      assert (Array.length w = data.nfeatures);
      Array.copy w
    | None -> Array.make data.nfeatures 0.0
  in
  let n = Array.length data.rows in
  let order = Array.init n (fun i -> i) in
  for epoch = 0 to epochs - 1 do
    let lr = learning_rate /. (1.0 +. (0.05 *. float_of_int epoch)) in
    (match method_ with
    | Sgd ->
      Prng.shuffle_in_place rng order;
      Array.iter
        (fun i ->
          let features, label = data.rows.(i) in
          let p = lr_predict weights features in
          let err = (if label then 1.0 else 0.0) -. p in
          Array.iter
            (fun f -> weights.(f) <- weights.(f) +. (lr *. (err -. (l2 *. weights.(f)))))
            features)
        order
    | Gd ->
      let gradient = Array.make data.nfeatures 0.0 in
      Array.iter
        (fun (features, label) ->
          let p = lr_predict weights features in
          let err = (if label then 1.0 else 0.0) -. p in
          Array.iter (fun f -> gradient.(f) <- gradient.(f) +. err) features)
        data.rows;
      let inv_n = 1.0 /. float_of_int (max 1 n) in
      Array.iteri
        (fun f grad ->
          weights.(f) <- weights.(f) +. (lr *. ((grad *. inv_n) -. (l2 *. weights.(f)))))
        gradient);
    on_epoch epoch weights
  done;
  weights
