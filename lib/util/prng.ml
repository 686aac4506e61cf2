(* The splitmix64 state lives unboxed in the first 8 bytes.  A [mutable
   int64] record field would box a fresh [int64] on every draw: dev
   builds compile each module [-opaque], so no caller can inline the
   update and keep the value in a register.  The state is written on
   every draw, so each generator is padded to a cache line: generators
   split one after another (one per domain in [Par_gibbs]) are allocated
   side by side, and sharing a line made two domains' draws contend. *)
type t = Bytes.t

let size = 64

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.make size '\000' in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let assign dst src = Bytes.blit src 0 dst 0 size

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let bits64 t = next t

let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let split t = of_state (mix64 (next t))

let int_below t n =
  assert (n > 0);
  (* Rejection sampling over the top 62 bits avoids modulo bias. *)
  let mask = max_int in
  let rec loop () =
    let r = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
    let v = r mod n in
    if r - v > mask - n + 1 then loop () else v
  in
  loop ()

let float_unit t =
  (* 53 random bits mapped to [0,1); exact, since every 53-bit integer is
     a double. *)
  float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let float_range t lo hi = lo +. ((hi -. lo) *. float_unit t)

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float_unit t < p

let gaussian t =
  let rec nonzero () =
    let u = float_unit t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float_unit t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let exponential t rate =
  assert (rate > 0.0);
  let rec nonzero () =
    let u = float_unit t in
    if u > 0.0 then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let choice t a =
  assert (Array.length a > 0);
  a.(int_below t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
