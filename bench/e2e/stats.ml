(* Fixed-capacity sample recorder and the percentile rule.

   A recorder preallocates its float array once; [add] never allocates,
   so recording 10^7 reads does not grow the heap the benchmark is
   measuring (a per-sample list would make [peak_rss_mib] measure the
   bench).  Past capacity it keeps a uniform reservoir sample
   (Algorithm R, seeded), and [seen] and [mean] stay exact over every
   sample. *)

type t = {
  data : float array;
  mutable kept : int;
  mutable seen : int;
  mutable sum : float;
  rng : Random.State.t;
}

let create ?(capacity = 65_536) () =
  if capacity < 1 then invalid_arg "Stats.create: capacity must be >= 1";
  { data = Array.make capacity 0.0; kept = 0; seen = 0; sum = 0.0; rng = Random.State.make [| capacity |] }

let add t x =
  t.seen <- t.seen + 1;
  t.sum <- t.sum +. x;
  let cap = Array.length t.data in
  if t.kept < cap then begin
    t.data.(t.kept) <- x;
    t.kept <- t.kept + 1
  end
  else
    let j = Random.State.int t.rng (min t.seen 0x3FFFFFFF) in
    if j < cap then t.data.(j) <- x

let count t = t.kept
let seen t = t.seen
let mean t = if t.seen = 0 then 0.0 else t.sum /. float_of_int t.seen
let samples t = Array.sub t.data 0 t.kept

(* A percentile is only reported when at least [min_beyond] samples lie
   above it: p90 needs 100 samples, p99 needs 1000, the median 20. *)
let min_beyond = 10

let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let percentile_of xs p =
  let n = Array.length xs in
  if n = 0 then Error "no samples"
  else if beyond n p < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d" (100.0 *. p)
         min_beyond n (beyond n p))
  else Ok (Dd_util.Stats.percentile xs p)

let percentile t p = percentile_of (samples t) p

(* Set-up is repeated a handful of times per run, far too few for the
   percentile rule; its median is reported as a plain median. *)
let median t = if t.kept = 0 then Error "no samples" else Ok (Dd_util.Stats.percentile (samples t) 0.5)

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (the default "exclusive" method), so repeatability checks agree
   with any external reader of the records.  Needs two or more values. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let d = Array.copy xs in
  Array.sort compare d;
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)
