module Graph = Dd_fgraph.Graph
module Matrix = Dd_linalg.Matrix

(* Each pair is coded as [i * n + j], so one int sort orders and
   deduplicates them. *)
let nonzero_pairs g =
  let n = Graph.num_vars g in
  let codes = ref [] in
  Graph.iter_factors
    (fun _ f ->
      let vars = Graph.vars_of_factor f in
      List.iter
        (fun i -> List.iter (fun j -> if i < j then codes := ((i * n) + j) :: !codes) vars)
        vars)
    g;
  List.map (fun c -> (c / n, c mod n)) (List.sort_uniq Int.compare !codes)

let means samples nvars =
  let n = Array.length samples in
  let totals = Array.make nvars 0 in
  Array.iter
    (fun world ->
      for v = 0 to nvars - 1 do
        if world.(v) then totals.(v) <- totals.(v) + 1
      done)
    samples;
  Array.map (fun c -> float_of_int c /. float_of_int (max 1 n)) totals

let estimate ~samples ~mu ~vars ~pairs =
  let n = Array.length samples in
  let k = Array.length vars in
  let m = Matrix.create k in
  (* Diagonal: Bernoulli variance. *)
  for a = 0 to k - 1 do
    let v = vars.(a) in
    Matrix.set m a a (mu.(v) *. (1.0 -. mu.(v)))
  done;
  let inv_n = 1.0 /. float_of_int (max 1 n) in
  List.iter
    (fun (a, b) ->
      let i = vars.(a) and j = vars.(b) in
      let both = ref 0 in
      Array.iter (fun world -> if world.(i) && world.(j) then incr both) samples;
      let cov = (float_of_int !both *. inv_n) -. (mu.(i) *. mu.(j)) in
      Matrix.set m a b cov;
      Matrix.set m b a cov)
    pairs;
  m
