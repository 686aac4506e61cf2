module Graph = Dd_fgraph.Graph

let max_enumerable = 25

let check_size g =
  let nq = List.length (Graph.query_vars g) in
  if nq > max_enumerable then
    invalid_arg
      (Printf.sprintf "Exact: %d query variables exceed the enumeration limit (%d)" nq
         max_enumerable)

let world_log_weight g assignment = Graph.total_energy g (fun v -> assignment.(v))

(* Iterate all assignments of the query variables. *)
let iter_worlds g f =
  check_size g;
  let qvars = Array.of_list (Graph.query_vars g) in
  let assignment = Graph.freeze_assignment g in
  let n = Array.length qvars in
  let total = 1 lsl n in
  for code = 0 to total - 1 do
    for i = 0 to n - 1 do
      assignment.(qvars.(i)) <- (code lsr i) land 1 = 1
    done;
    f assignment
  done

let log_partition g =
  let logs = ref [] in
  iter_worlds g (fun a -> logs := world_log_weight g a :: !logs);
  Dd_util.Stats.log_sum_exp (Array.of_list !logs)

let world_probability g assignment =
  exp (world_log_weight g assignment -. log_partition g)

let marginals g =
  let log_z = log_partition g in
  let n = Graph.num_vars g in
  let probs = Array.make n 0.0 in
  iter_worlds g (fun a ->
      let p = exp (world_log_weight g a -. log_z) in
      for v = 0 to n - 1 do
        if a.(v) then probs.(v) <- probs.(v) +. p
      done);
  probs

let enumerate g =
  let log_z = log_partition g in
  let out = ref [] in
  iter_worlds g (fun a -> out := (Array.copy a, exp (world_log_weight g a -. log_z)) :: !out);
  List.rev !out
