module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

type cd_options = { epochs : int; learning_rate : float }

let default_cd = { epochs = 50; learning_rate = 0.1 }

(* Step-size decay, L2 penalty and Gibbs sweeps per phase per epoch. *)
let cd_decay = 0.05
let cd_l2 = 0.0001
let cd_chain_sweeps = 2

let train_cd ?(options = default_cd) ~kernel rng =
  (* Persistent chains over one compiled kernel, for the shared variables
     only: the positive chain keeps evidence clamped, the negative chain
     floats every shared variable.  Their gradients come straight off
     the kernel's live satisfied-body counters into a dense per-slot
     array; the factors over one lone variable add their exact terms
     instead, and with nothing shared no chain is built and nothing is
     drawn.  Each weight step re-syncs the kernel with
     [Compiled.refresh_weights] instead of regrounding or rebuilding any
     structure. *)
  let g = Compiled.graph kernel in
  let chains =
    if Compiled.num_shared kernel = 0 then None
    else begin
      let positive = Compiled.make_state rng kernel in
      Some (positive, Compiled.make_state rng kernel)
    end
  in
  let learnable = Compiled.learnable_active kernel in
  let gradient = Array.make (Graph.num_weights g) 0.0 in
  for epoch = 0 to options.epochs - 1 do
    (* Crash mid-training = weights partially stepped; recovery discards
       them with the rest of the in-memory state. *)
    Dd_util.Fault.hit "learner.train_cd.epoch";
    let lr = options.learning_rate /. (1.0 +. (cd_decay *. float_of_int epoch)) in
    Array.fill gradient 0 (Array.length gradient) 0.0;
    Option.iter
      (fun (positive, negative) ->
        for _ = 1 to cd_chain_sweeps do
          Compiled.sweep_shared_query rng positive;
          Compiled.sweep_shared rng negative
        done;
        Compiled.add_feature_counts positive ~scale:1.0 gradient;
        Compiled.add_feature_counts negative ~scale:(-1.0) gradient)
      chains;
    Compiled.add_lone_terms kernel gradient;
    Array.iter
      (fun w ->
        let current = Graph.weight_value g w in
        Graph.set_weight g w (current +. (lr *. (gradient.(w) -. (cd_l2 *. current)))))
      learnable;
    (* The kernel's dense slots track the graph again before the next
       epoch samples. *)
    Compiled.refresh_weights kernel
  done

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
