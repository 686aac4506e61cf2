(* Tests for Dd_util: PRNG, statistics, union-find, tables. *)

module Prng = Dd_util.Prng
module Stats = Dd_util.Stats
module Union_find = Dd_util.Union_find
module Table = Dd_util.Table
module Crc32 = Dd_util.Crc32
module Crc32_bytewise = Dd_oracle.Crc32_bytewise
module Fault = Dd_util.Fault

let check_float = Alcotest.(check (float 1e-9))
let check_close epsilon = Alcotest.(check (float epsilon))

(* --- prng ------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_int_below_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int_below rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_below_covers () =
  let rng = Prng.create 8 in
  let seen = Array.make 10 false in
  for _ = 1 to 2_000 do
    seen.(Prng.int_below rng 10) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_int_below_roughly_uniform () =
  let rng = Prng.create 9 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Prng.int_below rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "within 2% of uniform" true (abs_float (frac -. 0.25) < 0.02))
    counts

let test_float_unit_range () =
  let rng = Prng.create 10 in
  for _ = 1 to 10_000 do
    let v = Prng.float_unit rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_float_range () =
  let rng = Prng.create 11 in
  for _ = 1 to 1_000 do
    let v = Prng.float_range rng (-2.0) 3.0 in
    Alcotest.(check bool) "in [-2,3)" true (v >= -2.0 && v < 3.0)
  done

let test_bernoulli_extremes () =
  let rng = Prng.create 12 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Prng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always true" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Prng.create 13 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

let test_gaussian_moments () =
  let rng = Prng.create 14 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.gaussian rng) in
  Alcotest.(check bool) "mean near 0" true (abs_float (Stats.mean xs) < 0.02);
  Alcotest.(check bool) "variance near 1" true (abs_float (Stats.variance xs -. 1.0) < 0.05)

let test_exponential_mean () =
  let rng = Prng.create 15 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.exponential rng 2.0) in
  Alcotest.(check bool) "mean near 1/rate" true (abs_float (Stats.mean xs -. 0.5) < 0.02);
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x >= 0.0)) xs

let test_split_independence () =
  let rng = Prng.create 16 in
  let child = Prng.split rng in
  let a = Array.init 32 (fun _ -> Prng.bits64 rng) in
  let b = Array.init 32 (fun _ -> Prng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_copy_independent () =
  let rng = Prng.create 17 in
  let dup = Prng.copy rng in
  let a = Prng.bits64 rng in
  let b = Prng.bits64 dup in
  Alcotest.(check int64) "copy continues same stream" a b

(* --- prng stream pin --------------------------------------------------- *)

(* The first 64 outputs of each draw from [create 42], recorded when the
   state was a boxed [int64] record field.  Every sampler's determinism
   contract rests on this stream, so a change of representation must
   reproduce it draw for draw. *)
let pinned_bits64 =
  [|
    0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0x0c4b6b24ef01890eL;
    0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L;
    0xc2bc249e28760ccdL; 0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L; 0xe2df09f8ccf26f14L;
    0xe664fb166d3dc14cL; 0x1494766cf71b64b6L; 0x09b78fbf46485568L; 0xda9e8d784db0c8f7L;
    0x1158ab517a8ca0d3L; 0x394f8bb12fc92c37L; 0x1633bb32a8a81b0aL; 0xaa1d5be576d44e89L;
    0x56f1a2422b95b9b3L; 0x3af1eb79c66a559fL; 0x8e040e54f7592ee8L; 0x6d94a674c34b9739L;
    0x771b665074d680e9L; 0xf3e574517c5eedb8L; 0x1d23fbdef237f1ccL; 0xa4b67120e03c4d22L;
    0xf39c32800a3a496aL; 0x051953672e4acbbcL; 0x11d94b400fa88703L; 0x92c6c2e1375c96acL;
    0x326a884f2f1dac39L; 0x5e67829d4e432baeL; 0x5cd221d8b9ba24b6L; 0xf4c91ae0d30534afL;
    0x81d3b5e6f3c30601L; 0x627574470bcad1e1L; 0x76ebaf2cd768671aL; 0xb611c33398fd898dL;
    0x8e2eb3392826cf15L; 0xcf59e55818ecd106L; 0x4b709a336f13ae86L; 0x9b9a3211a8dacdccL;
    0x34d3a61578c85356L; 0xda5935709ee1b6bfL; 0x75d65d6e374eee3fL; 0x653524c0e06b639cL;
    0xdd342e643df19aedL; 0x457443983f29cfbdL; 0xb4b9000cd3a9692cL; 0x0cd0813db2ca7cd9L;
    0x7604f15ce51d0d06L; 0x50d1ce4ba35f80e4L; 0xa8fd2f5c35ac4bb9L; 0xc2c45025f895b1faL;
    0xa41764c5aeefbfbdL; 0x021be35babed7ac6L; 0xb5d6af4f1ab5fb18L; 0x063ecf9f68cee4e4L;
    0x5d6df7d13bc9bffcL; 0x51fa1891bade803aL; 0xf66d0801efb25d9bL; 0x08b30baa09bf6ad6L;
  |]

let pinned_float_unit =
  Array.map float_of_string
    [|
      "0x1.31367e26140c7p-1"; "0x1.486da5f92b86cp-3"; "0x1.54c85f31d00d8p-3"; "0x1.896d649de031p-5";
      "0x1.f62d40dca5d82p-1"; "0x1.e187e2fea8348p-3"; "0x1.1e0b12d313f7cp-2"; "0x1.392025051c93p-3";
      "0x1.8578493c50ec1p-1"; "0x1.f34e1428846dcp-3"; "0x1.87656a3f8c3d9p-1"; "0x1.c5be13f199e4dp-1";
      "0x1.ccc9f62cda7b8p-1"; "0x1.494766cf71b6p-4"; "0x1.36f1f7e8c90ap-5"; "0x1.b53d1af09b619p-1";
      "0x1.158ab517a8cap-4"; "0x1.ca7c5d897e494p-3"; "0x1.633bb32a8a818p-4"; "0x1.543ab7caeda89p-1";
      "0x1.5bc68908ae56ep-2"; "0x1.d78f5bce33528p-3"; "0x1.1c081ca9eeb25p-1"; "0x1.b65299d30d2e4p-2";
      "0x1.dc6d9941d35ap-2"; "0x1.e7cae8a2f8bddp-1"; "0x1.d23fbdef237fp-4"; "0x1.496ce241c0789p-1";
      "0x1.e738650014749p-1"; "0x1.4654d9cb92b2p-6"; "0x1.1d94b400fa88p-4"; "0x1.258d85c26eb92p-1";
      "0x1.9354427978ed4p-3"; "0x1.799e0a75390cap-2"; "0x1.73488762e6e88p-2"; "0x1.e99235c1a60a6p-1";
      "0x1.03a76bcde786p-1"; "0x1.89d5d11c2f2b4p-2"; "0x1.dbaebcb35da18p-2"; "0x1.6c23866731fb1p-1";
      "0x1.1c5d6672504d9p-1"; "0x1.9eb3cab031d9ap-1"; "0x1.2dc268cdbc4eap-2"; "0x1.3734642351b59p-1";
      "0x1.a69d30abc6428p-3"; "0x1.b4b26ae13dc36p-1"; "0x1.d75975b8dd3bap-2"; "0x1.94d4930381ad8p-2";
      "0x1.ba685cc87be33p-1"; "0x1.15d10e60fca72p-2"; "0x1.69720019a752dp-1"; "0x1.9a1027b6594fp-5";
      "0x1.d813c57394742p-2"; "0x1.4347392e8d7ep-2"; "0x1.51fa5eb86b589p-1"; "0x1.8588a04bf12b6p-1";
      "0x1.482ec98b5ddf7p-1"; "0x1.0df1add5f6bcp-7"; "0x1.6bad5e9e356bfp-1"; "0x1.8fb3e7da33b8p-6";
      "0x1.75b7df44ef26ep-2"; "0x1.47e86246eb7ap-2"; "0x1.ecda1003df64bp-1"; "0x1.1661754137edp-5";
    |]

let pinned_bernoulli_03 = "0111011101000110111001000010011010000000001010000101000001010001"
let pinned_int_below_7 = "5402560235552546066124533440210203465251211202134552660643653552"

(* First outputs of [split (create 42)]. *)
let pinned_split_child =
  [|
    0x33d3b3229fe0c44dL; 0xcc0aaf5e8d84aac2L; 0xa539e214256b51ecL; 0xa57c77288d9504f0L;
    0x6a1a5b4564f0f705L; 0x9be523348b643085L; 0xd77a5e377fecdf84L; 0x3cf0ccbc39ddd1f9L;
    0x239f29827f22c528L; 0x20667245060a8eedL; 0x071fa4091bd2cfdeL; 0x6f22d2fff34fa03bL;
    0x9514a754a2877d46L; 0xa5ff7144997bb852L; 0x1214972be2231a57L; 0xc340c9b75ae19b6bL;
  |]

(* Check the four pinned draw streams, starting at output [from], on
   generators made by [fresh ()]: each must stand where [create 42]
   stands after [from] outputs. *)
let check_pinned_streams what fresh ~from =
  let n = 64 - from in
  let rng = fresh () in
  for i = from to 63 do
    Alcotest.(check int64) (Printf.sprintf "%s: bits64 #%d" what i) pinned_bits64.(i) (Prng.bits64 rng)
  done;
  let rng = fresh () in
  for i = from to 63 do
    let f = Prng.float_unit rng in
    if Int64.bits_of_float f <> Int64.bits_of_float pinned_float_unit.(i) then
      Alcotest.failf "%s: float_unit #%d is %h, pinned %h" what i f pinned_float_unit.(i)
  done;
  let rng = fresh () in
  let bern = String.init n (fun _ -> if Prng.bernoulli rng 0.3 then '1' else '0') in
  Alcotest.(check string) (what ^ ": bernoulli 0.3") (String.sub pinned_bernoulli_03 from n) bern;
  let rng = fresh () in
  let ints = String.init n (fun _ -> Char.chr (Char.code '0' + Prng.int_below rng 7)) in
  Alcotest.(check string) (what ^ ": int_below 7") (String.sub pinned_int_below_7 from n) ints

let advanced k =
  let rng = Prng.create 42 in
  for _ = 1 to k do
    ignore (Prng.bits64 rng)
  done;
  rng

let test_prng_stream_pin () =
  check_pinned_streams "create" (fun () -> Prng.create 42) ~from:0;
  (* [int_below 7] drew one output per value above (no rejection), so
     every stream can be re-entered at any output index. *)
  List.iter
    (fun k ->
      check_pinned_streams "copy" (fun () -> Prng.copy (advanced k)) ~from:k;
      check_pinned_streams "assign"
        (fun () ->
          let dst = Prng.create 7 in
          Prng.assign dst (advanced k);
          dst)
        ~from:k;
      check_pinned_streams "marshal"
        (fun () -> (Marshal.from_string (Marshal.to_string (advanced k) []) 0 : Prng.t))
        ~from:k)
    [ 0; 1; 17; 63 ];
  (* [split] consumes one output of the parent and starts a pinned child. *)
  check_pinned_streams "split parent"
    (fun () ->
      let rng = Prng.create 42 in
      ignore (Prng.split rng);
      rng)
    ~from:1;
  let child = Prng.split (Prng.create 42) in
  Array.iteri
    (fun i x -> Alcotest.(check int64) (Printf.sprintf "split child #%d" i) x (Prng.bits64 child))
    pinned_split_child

let test_bits53_is_top_bits () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 1000 do
    let top = Int64.to_int (Int64.shift_right_logical (Prng.bits64 a) 11) in
    Alcotest.(check int) "bits53 = bits64 lsr 11" top (Prng.bits53 b)
  done

let test_shuffle_permutation () =
  let rng = Prng.create 18 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_choice_member () =
  let rng = Prng.create 19 in
  let a = [| 3; 5; 9 |] in
  for _ = 1 to 100 do
    let v = Prng.choice rng a in
    Alcotest.(check bool) "member" true (Array.mem v a)
  done

(* --- stats ------------------------------------------------------------ *)

let test_mean_known () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_mean_empty () = check_float "empty mean" 0.0 (Stats.mean [||])

let test_variance_known () =
  check_float "variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_variance_constant () = check_float "constant" 0.0 (Stats.variance [| 5.0; 5.0; 5.0 |])

let test_stddev () = check_float "stddev" 2.0 (Stats.stddev [| 0.0; 4.0; 0.0; 4.0 |])

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "min" 10.0 (Stats.percentile xs 0.0);
  check_float "max" 40.0 (Stats.percentile xs 1.0);
  check_float "median" 25.0 (Stats.percentile xs 0.5)

let test_sigmoid () =
  check_float "sigmoid 0" 0.5 (Stats.sigmoid 0.0);
  check_close 1e-6 "sigmoid large" 1.0 (Stats.sigmoid 50.0);
  check_close 1e-6 "sigmoid -large" 0.0 (Stats.sigmoid (-50.0));
  (* No overflow at extremes. *)
  Alcotest.(check bool) "finite" true (Float.is_finite (Stats.sigmoid (-1000.0)))

let test_logit_inverse () =
  List.iter
    (fun p -> check_close 1e-9 "logit inverse" p (Stats.sigmoid (Stats.logit p)))
    [ 0.01; 0.3; 0.5; 0.77; 0.99 ]

let test_log_sum_exp () =
  check_close 1e-9 "pair" (log (exp 1.0 +. exp 2.0)) (Stats.log_sum_exp [| 1.0; 2.0 |]);
  check_float "empty" neg_infinity (Stats.log_sum_exp [||]);
  (* Stability: would overflow naively. *)
  check_close 1e-6 "huge" (1000.0 +. log 2.0) (Stats.log_sum_exp [| 1000.0; 1000.0 |])

let test_kl_bernoulli () =
  check_close 1e-9 "identical" 0.0 (Stats.kl_bernoulli 0.3 0.3);
  Alcotest.(check bool) "positive" true (Stats.kl_bernoulli 0.2 0.8 > 0.0)

let test_clamp () =
  check_float "below" 0.0 (Stats.clamp 0.0 1.0 (-5.0));
  check_float "above" 1.0 (Stats.clamp 0.0 1.0 7.0);
  check_float "inside" 0.5 (Stats.clamp 0.0 1.0 0.5)

let test_fsum_precision () =
  (* Adding many tiny values to a large one: naive summation loses them. *)
  let xs = Array.make 10_001 1e-8 in
  xs.(0) <- 1.0;
  (* [mean] sums with Kahan compensation. *)
  check_close 1e-12 "kahan" (1.0 +. 1e-4) (Stats.mean xs *. float_of_int (Array.length xs))

let test_max_abs_diff () =
  check_float "max diff" 3.0 (Stats.max_abs_diff [| 1.0; 5.0 |] [| 2.0; 2.0 |])

(* --- union-find --------------------------------------------------------- *)

let test_uf_singletons () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "five sets" 5 (Union_find.count uf);
  Alcotest.(check bool) "disjoint" true (Union_find.find uf 0 <> Union_find.find uf 1)

let test_uf_union () =
  let uf = Union_find.create 5 in
  Union_find.union uf 0 1;
  Union_find.union uf 1 2;
  Alcotest.(check bool) "transitive" true (Union_find.find uf 0 = Union_find.find uf 2);
  Alcotest.(check bool) "separate" true (Union_find.find uf 0 <> Union_find.find uf 3);
  Alcotest.(check int) "three sets" 3 (Union_find.count uf)

let test_uf_idempotent_union () =
  let uf = Union_find.create 3 in
  Union_find.union uf 0 1;
  Union_find.union uf 0 1;
  Alcotest.(check int) "count stable" 2 (Union_find.count uf)

let test_uf_add_grows () =
  let uf = Union_find.create 0 in
  Alcotest.(check int) "starts empty" 0 (Union_find.length uf);
  Alcotest.(check int) "first label" 0 (Union_find.add uf);
  Alcotest.(check int) "second label" 1 (Union_find.add uf);
  Alcotest.(check int) "length" 2 (Union_find.length uf);
  Alcotest.(check int) "singletons" 2 (Union_find.count uf);
  (* Grow far past the initial capacity to exercise the array doubling. *)
  for i = 2 to 100 do
    Alcotest.(check int) "dense labels" i (Union_find.add uf)
  done;
  Alcotest.(check int) "grown" 101 (Union_find.length uf)

let test_uf_union_across_added () =
  let uf = Union_find.create 2 in
  let a = Union_find.add uf in
  let b = Union_find.add uf in
  Union_find.union uf 0 a;
  Union_find.union uf a b;
  Alcotest.(check bool) "initial joins added" true (Union_find.find uf 0 = Union_find.find uf b);
  Alcotest.(check bool) "untouched stays apart" true (Union_find.find uf 1 <> Union_find.find uf b);
  Alcotest.(check int) "two sets" 2 (Union_find.count uf)

let test_uf_bounds_checked () =
  let uf = Union_find.create 2 in
  (try
     ignore (Union_find.find uf 2);
     Alcotest.fail "out-of-range find must raise"
   with Invalid_argument _ -> ());
  ignore (Union_find.add uf);
  Alcotest.(check int) "added label valid" 2 (Union_find.find uf 2)

(* --- bitvec --------------------------------------------------------------- *)

module Bitvec = Dd_util.Bitvec

let test_bitvec_get_set () =
  let v = Bitvec.create 20 in
  Alcotest.(check bool) "starts false" false (Bitvec.get v 13);
  Bitvec.set v 13 true;
  Alcotest.(check bool) "set" true (Bitvec.get v 13);
  Alcotest.(check bool) "neighbors untouched" false (Bitvec.get v 12 || Bitvec.get v 14);
  Bitvec.set v 13 false;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 13)

let test_bitvec_roundtrip () =
  let a = Array.init 37 (fun i -> i mod 3 = 0) in
  Alcotest.(check bool) "roundtrip" true (Bitvec.to_bool_array (Bitvec.of_bool_array a) = a)

let test_bitvec_byte_size () =
  Alcotest.(check int) "8 bits, 1 byte" 1 (Bitvec.byte_size (Bitvec.create 8));
  Alcotest.(check int) "9 bits, 2 bytes" 2 (Bitvec.byte_size (Bitvec.create 9));
  Alcotest.(check int) "0 bits" 0 (Bitvec.byte_size (Bitvec.create 0))

let test_bitvec_pop_count_equal_copy () =
  let v = Bitvec.of_bool_array [| true; false; true; true |] in
  Alcotest.(check int) "popcount" 3 (Bitvec.pop_count v);
  let c = Bitvec.copy v in
  Alcotest.(check bool) "equal" true (Bitvec.equal v c);
  Bitvec.set c 1 true;
  Alcotest.(check bool) "independent" false (Bitvec.equal v c)

let test_bitvec_bounds () =
  let v = Bitvec.create 4 in
  Alcotest.(check bool) "oob rejected" true
    (match Bitvec.get v 4 with _ -> false | exception Invalid_argument _ -> true)

(* --- table -------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "four lines" 4 (List.length lines);
  (* All lines equal width after trimming trailing spaces differences. *)
  Alcotest.(check bool) "header first" true
    (String.length (List.nth lines 0) > 0 && String.get (List.nth lines 1) 0 = '-')

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_cell_formats () =
  Alcotest.(check string) "zero" "0" (Table.cell_f 0.0);
  Alcotest.(check string) "speedup" "2.5x" (Table.cell_x 2.5);
  Alcotest.(check bool) "tiny scientific" true
    (String.contains (Table.cell_f 1e-6) 'e')

(* --- crc32 ----------------------------------------------------------------- *)

let test_crc32_known_vectors () =
  (* Standard CRC-32 (IEEE) check values. *)
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""));
  Alcotest.(check string) "123456789" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "hello" "3610a686" (Crc32.to_hex (Crc32.string "hello"))

let test_crc32_streaming_matches_whole () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let streamed =
    Crc32.finish
      (Crc32.update_string
         (Crc32.update_string Crc32.init (String.sub s 0 split))
         (String.sub s split (String.length s - split)))
  in
  Alcotest.(check string) "streamed = whole" (Crc32.to_hex (Crc32.string s))
    (Crc32.to_hex streamed)

(* [s] fed to [update_string] in pieces ending at the sorted [cuts]. *)
let crc32_streamed s cuts =
  let crc, last =
    List.fold_left
      (fun (crc, from) cut -> (Crc32.update_string crc (String.sub s from (cut - from)), cut))
      (Crc32.init, 0) cuts
  in
  Crc32.finish (Crc32.update_string crc (String.sub s last (String.length s - last)))

(* Slicing-by-8 vs the bytewise reference on every length 0-24 (each
   8-byte fold plus every tail length) and every streaming split. *)
let test_crc32_short_lengths_match_oracle () =
  let rng = Prng.create 18 in
  for len = 0 to 24 do
    let s = String.init len (fun _ -> Char.chr (Prng.int_below rng 256)) in
    let expected = Crc32_bytewise.string s in
    for split = 0 to len do
      let streamed = crc32_streamed s [ split ] in
      if streamed <> expected then
        Alcotest.failf "length %d split %d: %08lx, oracle %08lx" len split streamed expected
    done
  done

(* The register lives in a native int: a 1 MiB digest allocates only the
   boxed [int32] results, where the bytewise loop boxes per byte. *)
let test_crc32_allocation_free () =
  let s = String.init (1 lsl 20) (fun i -> Char.chr ((i * 131) land 0xff)) in
  ignore (Crc32.string s);
  let before = Gc.minor_words () in
  let digest = Crc32.string s in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity digest);
  if words > 16.0 then Alcotest.failf "a 1 MiB Crc32.string allocates %.0f minor words" words

let test_crc32_detects_flip () =
  let s = Bytes.of_string "some serialized payload" in
  let original = Crc32.string (Bytes.to_string s) in
  Bytes.set s 5 (Char.chr (Char.code (Bytes.get s 5) lxor 1));
  Alcotest.(check bool) "single bit flip detected" true
    (Crc32.string (Bytes.to_string s) <> original)

(* --- fault injection ------------------------------------------------------- *)

let test_fault_unarmed_never_fires () =
  Fault.reset ();
  for _ = 1 to 100 do
    Fault.hit "test.unarmed.site"
  done;
  Alcotest.(check int) "hits counted" 100 (Fault.hits "test.unarmed.site");
  Alcotest.(check int) "never fired" 0 (Fault.fired "test.unarmed.site");
  Fault.reset ()

let test_fault_nth_fires_exactly () =
  Fault.reset ();
  Fault.arm "test.nth.site" (Fault.Nth 3);
  Fault.hit "test.nth.site";
  Fault.hit "test.nth.site";
  (match Fault.hit "test.nth.site" with
  | () -> Alcotest.fail "third hit should raise"
  | exception Fault.Injected name ->
    Alcotest.(check string) "carries point name" "test.nth.site" name);
  (* Later hits do not re-fire: the process is assumed dead after one. *)
  Fault.hit "test.nth.site";
  Alcotest.(check int) "fired once" 1 (Fault.fired "test.nth.site");
  Fault.reset ()

let test_fault_probability_deterministic () =
  let count_fires seed =
    Fault.reset ();
    Fault.seed seed;
    Fault.arm "test.prob.site" (Fault.Probability 0.5);
    let fires = ref 0 in
    for _ = 1 to 200 do
      (try Fault.hit "test.prob.site" with Fault.Injected _ -> incr fires);
      Fault.arm "test.prob.site" (Fault.Probability 0.5)
    done;
    !fires
  in
  let a = count_fires 11 and b = count_fires 11 and c = count_fires 12 in
  Alcotest.(check int) "same seed, same schedule" a b;
  Alcotest.(check bool) "roughly half fire" true (a > 50 && a < 150);
  Alcotest.(check bool) "different seed diverges" true (a <> c);
  Fault.reset ()

let test_fault_registry_and_is_injected () =
  Fault.reset ();
  Fault.declare "test.registry.b";
  Fault.declare "test.registry.a";
  let names = Fault.registered () in
  Alcotest.(check bool) "declared names listed" true
    (List.mem "test.registry.a" names && List.mem "test.registry.b" names);
  Alcotest.(check bool) "sorted" true (List.sort compare names = names);
  Alcotest.(check bool) "is_injected yes" true (Fault.is_injected (Fault.Injected "x"));
  Alcotest.(check bool) "is_injected no" false (Fault.is_injected Exit);
  Fault.reset ()

(* --- qcheck properties ---------------------------------------------------- *)

(* Random bytes of 0-64 KiB (or 0-24, around the 8-byte fold), cut at
   up to three random points and streamed piece by piece. *)
let crc32_case =
  let open QCheck.Gen in
  let bytes len = string_size ~gen:(map Char.chr (int_bound 255)) (return len) in
  let case =
    frequency [ (1, int_bound 24); (3, int_bound 65536) ] >>= fun len ->
    bytes len >>= fun s ->
    list_size (int_bound 3) (int_bound len) >|= fun cuts -> (s, List.sort compare cuts)
  in
  QCheck.make case ~print:(fun (s, cuts) ->
      Printf.sprintf "length %d, cuts [%s]" (String.length s)
        (String.concat "; " (List.map string_of_int cuts)))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"crc32 slicing-by-8 = bytewise oracle" ~count:200 crc32_case
      (fun (s, cuts) -> crc32_streamed s cuts = Crc32_bytewise.string s);
    Test.make ~name:"sigmoid in (0,1)" ~count:500 (float_bound_inclusive 700.0) (fun x ->
        let s = Stats.sigmoid x in
        s >= 0.0 && s <= 1.0);
    Test.make ~name:"logit-sigmoid roundtrip" ~count:500 (float_range 0.001 0.999) (fun p ->
        abs_float (Stats.sigmoid (Stats.logit p) -. p) < 1e-9);
    Test.make ~name:"log_sum_exp shift invariant" ~count:200
      (pair (list_of_size Gen.(1 -- 10) (float_range (-10.0) 10.0)) (float_range (-5.0) 5.0))
      (fun (xs, shift) ->
        let xs = Array.of_list xs in
        let shifted = Array.map (fun x -> x +. shift) xs in
        abs_float (Stats.log_sum_exp shifted -. (Stats.log_sum_exp xs +. shift)) < 1e-9);
    Test.make ~name:"percentile within range" ~count:200
      (pair (list_of_size Gen.(1 -- 20) (float_range (-100.0) 100.0)) (float_range 0.0 1.0))
      (fun (xs, p) ->
        let xs = Array.of_list xs in
        let v = Stats.percentile xs p in
        let lo = Array.fold_left min infinity xs and hi = Array.fold_left max neg_infinity xs in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"clamp idempotent" ~count:200
      (triple (float_range (-10.0) 0.0) (float_range 0.0 10.0) (float_range (-20.0) 20.0))
      (fun (lo, hi, x) ->
        let once = Stats.clamp lo hi x in
        Stats.clamp lo hi once = once);
    Test.make ~name:"prng int_below always in range" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let v = Prng.int_below rng n in
        v >= 0 && v < n);
  ]

let () =
  Alcotest.run "dd_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int_below bounds" `Quick test_int_below_bounds;
          Alcotest.test_case "int_below covers" `Quick test_int_below_covers;
          Alcotest.test_case "int_below uniform" `Quick test_int_below_roughly_uniform;
          Alcotest.test_case "float_unit range" `Quick test_float_unit_range;
          Alcotest.test_case "float_range" `Quick test_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "stream pin" `Quick test_prng_stream_pin;
          Alcotest.test_case "bits53 top bits" `Quick test_bits53_is_top_bits;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "choice member" `Quick test_choice_member;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean_known;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "variance" `Quick test_variance_known;
          Alcotest.test_case "variance constant" `Quick test_variance_constant;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "sigmoid" `Quick test_sigmoid;
          Alcotest.test_case "logit inverse" `Quick test_logit_inverse;
          Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
          Alcotest.test_case "kl bernoulli" `Quick test_kl_bernoulli;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "fsum precision" `Quick test_fsum_precision;
          Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "singletons" `Quick test_uf_singletons;
          Alcotest.test_case "union" `Quick test_uf_union;
          Alcotest.test_case "idempotent" `Quick test_uf_idempotent_union;
          Alcotest.test_case "add grows" `Quick test_uf_add_grows;
          Alcotest.test_case "union across added" `Quick test_uf_union_across_added;
          Alcotest.test_case "bounds checked" `Quick test_uf_bounds_checked;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "get/set" `Quick test_bitvec_get_set;
          Alcotest.test_case "roundtrip" `Quick test_bitvec_roundtrip;
          Alcotest.test_case "byte size" `Quick test_bitvec_byte_size;
          Alcotest.test_case "popcount/equal/copy" `Quick test_bitvec_pop_count_equal_copy;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "cell formats" `Quick test_cell_formats;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known_vectors;
          Alcotest.test_case "streaming" `Quick test_crc32_streaming_matches_whole;
          Alcotest.test_case "short lengths = oracle" `Quick test_crc32_short_lengths_match_oracle;
          Alcotest.test_case "allocates nothing" `Quick test_crc32_allocation_free;
          Alcotest.test_case "detects bit flip" `Quick test_crc32_detects_flip;
        ] );
      ( "fault",
        [
          Alcotest.test_case "unarmed never fires" `Quick test_fault_unarmed_never_fires;
          Alcotest.test_case "nth fires exactly" `Quick test_fault_nth_fires_exactly;
          Alcotest.test_case "probability deterministic" `Quick
            test_fault_probability_deterministic;
          Alcotest.test_case "registry + is_injected" `Quick
            test_fault_registry_and_is_injected;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
