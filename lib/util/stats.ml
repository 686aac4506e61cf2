let fsum xs =
  let total = ref 0.0 and comp = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else fsum xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.map (fun x -> (x -. m) *. (x -. m)) xs in
    fsum acc /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let percentile xs p =
  assert (Array.length xs > 0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let sigmoid x =
  if x >= 0.0 then 1.0 /. (1.0 +. exp (-.x))
  else begin
    let e = exp x in
    e /. (1.0 +. e)
  end

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let logit p =
  let eps = 1e-12 in
  let p = clamp eps (1.0 -. eps) p in
  log (p /. (1.0 -. p))

let log_sum_exp xs =
  if Array.length xs = 0 then neg_infinity
  else begin
    let m = Array.fold_left max neg_infinity xs in
    if m = neg_infinity then neg_infinity
    else m +. log (fsum (Array.map (fun x -> exp (x -. m)) xs))
  end

let kl_bernoulli p q =
  let eps = 1e-9 in
  let p = clamp eps (1.0 -. eps) p and q = clamp eps (1.0 -. eps) q in
  (p *. log (p /. q)) +. ((1.0 -. p) *. log ((1.0 -. p) /. (1.0 -. q)))

let max_abs_diff xs ys =
  assert (Array.length xs = Array.length ys);
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := max !acc (abs_float (x -. ys.(i)))) xs;
  !acc
