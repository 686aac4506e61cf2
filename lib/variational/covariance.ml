module Graph = Dd_fgraph.Graph
module Matrix = Dd_linalg.Matrix

(* A stable counting sort of [codes] by [digit c], a value in [0, n). *)
let counting_sort codes n digit =
  let count = Array.make (n + 1) 0 in
  Array.iter (fun c -> count.(digit c + 1) <- count.(digit c + 1) + 1) codes;
  for d = 0 to n - 1 do
    count.(d + 1) <- count.(d + 1) + count.(d)
  done;
  let sorted = Array.make (Array.length codes) 0 in
  Array.iter
    (fun c ->
      let d = digit c in
      sorted.(count.(d)) <- c;
      count.(d) <- count.(d) + 1)
    codes;
  sorted

(* Each pair is coded as [i * n + j] into one int array, which a
   counting sort on [j] and then one on [i] orders in linear time,
   putting the repeats side by side for the dedupe on the way out: a
   factor's pairs recur in other factors, about six times over on
   News. *)
let nonzero_pairs g =
  let n = Graph.num_vars g in
  let codes = ref (Array.make 64 0) and len = ref 0 in
  let push c =
    if !len = Array.length !codes then begin
      let grown = Array.make (2 * !len) 0 in
      Array.blit !codes 0 grown 0 !len;
      codes := grown
    end;
    !codes.(!len) <- c;
    incr len
  in
  Graph.iter_factors
    (fun _ f ->
      let vars = Graph.vars_of_factor f in
      List.iter (fun i -> List.iter (fun j -> if i < j then push ((i * n) + j)) vars) vars)
    g;
  let codes = Array.sub !codes 0 !len in
  let codes = counting_sort (counting_sort codes n (fun c -> c mod n)) n (fun c -> c / n) in
  let pairs = ref [] in
  for k = Array.length codes - 1 downto 0 do
    let c = codes.(k) in
    if k = Array.length codes - 1 || c <> codes.(k + 1) then pairs := (c / n, c mod n) :: !pairs
  done;
  !pairs

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
