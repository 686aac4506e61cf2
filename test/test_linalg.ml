(* Tests for Dd_linalg.Matrix: the dense SPD kernel under Algorithm 1. *)

module Matrix = Dd_linalg.Matrix

let check_close epsilon = Alcotest.(check (float epsilon))

let matrix_equal ?(epsilon = 1e-9) a b = Matrix.frobenius_distance a b < epsilon

let of_rows rows =
  let m = Matrix.create (Array.length rows) in
  Array.iteri (fun i row -> Array.iteri (fun j v -> Matrix.set m i j v) row) rows;
  m

let identity n = of_rows (Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)))

(* Fixture arithmetic the library no longer carries: a b and a^T. *)
let mul a b =
  let n = Matrix.dim a in
  let out = Matrix.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        Matrix.set out i j (Matrix.get out i j +. (Matrix.get a i k *. Matrix.get b k j))
      done
    done
  done;
  out

let transpose a =
  let n = Matrix.dim a in
  of_rows (Array.init n (fun i -> Array.init n (fun j -> Matrix.get a j i)))

(* A well-conditioned random SPD matrix: B^T B + I. *)
let random_spd rng n =
  let b = Matrix.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set b i j (Dd_util.Prng.float_range rng (-1.0) 1.0)
    done
  done;
  Matrix.add (mul (transpose b) b) (identity n)

let test_create_zero () =
  let m = Matrix.create 3 in
  Alcotest.(check int) "dim" 3 (Matrix.dim m);
  for i = 0 to 2 do
    for j = 0 to 2 do
      check_close 0.0 "zero" 0.0 (Matrix.get m i j)
    done
  done

let test_set_update () =
  let m = Matrix.create 2 in
  Matrix.set m 0 1 5.0;
  Matrix.set m 0 1 (Matrix.get m 0 1 +. 1.0);
  check_close 0.0 "update" 6.0 (Matrix.get m 0 1);
  check_close 0.0 "only that entry" 0.0 (Matrix.get m 1 0)

let test_add_sub_scale () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  check_close 0.0 "add" 8.0 (Matrix.get (Matrix.add a b) 0 1);
  check_close 0.0 "sub" (-4.0) (Matrix.get (Matrix.add a (Matrix.scale (-1.0) b)) 1 0);
  check_close 0.0 "scale" 8.0 (Matrix.get (Matrix.scale 2.0 b) 1 1 /. 2.0);
  (* Both return fresh matrices. *)
  check_close 0.0 "inputs untouched" 5.0 (Matrix.get b 0 0)

let test_copy () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let c = Matrix.copy a in
  Matrix.set a 0 0 99.0;
  check_close 0.0 "copied" 1.0 (Matrix.get c 0 0)

let test_cholesky_rejects_non_spd () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "not SPD" Matrix.Not_positive_definite (fun () ->
      ignore (Matrix.spd_inverse a))

let test_spd_inverse () =
  let rng = Dd_util.Prng.create 5 in
  let a = random_spd rng 5 in
  let inv = Matrix.spd_inverse a in
  Alcotest.(check bool) "a a^-1 = i" true (matrix_equal ~epsilon:1e-7 (identity 5) (mul a inv));
  (* Inverse of SPD is symmetric. *)
  Alcotest.(check bool) "symmetric" true (matrix_equal inv (transpose inv))

let test_spd_inverse_known () =
  (* [[4,2],[2,3]]^-1 = [[3,-2],[-2,4]] / 8. *)
  let inv = Matrix.spd_inverse (of_rows [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |]) in
  check_close 1e-12 "00" (3.0 /. 8.0) (Matrix.get inv 0 0);
  check_close 1e-12 "01" (-2.0 /. 8.0) (Matrix.get inv 0 1);
  check_close 1e-12 "11" (4.0 /. 8.0) (Matrix.get inv 1 1)

let test_is_spd () =
  Alcotest.(check bool) "identity SPD" true (Matrix.is_spd (identity 3));
  let bad = of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "indefinite" false (Matrix.is_spd bad)

let test_frobenius_and_max_abs () =
  let a = of_rows [| [| 0.0; 3.0 |]; [| 4.0; 0.0 |] |] in
  check_close 1e-12 "frobenius" 5.0 (Matrix.frobenius_distance a (Matrix.create 2));
  check_close 0.0 "to itself" 0.0 (Matrix.frobenius_distance a (Matrix.copy a))

let qcheck_tests =
  let open QCheck in
  let spd_gen = Gen.map (fun seed -> random_spd (Dd_util.Prng.create seed) 4) Gen.small_int in
  let show m =
    let n = Matrix.dim m in
    String.concat "; "
      (List.init n (fun i ->
           String.concat " " (List.init n (fun j -> Printf.sprintf "%.4f" (Matrix.get m i j)))))
  in
  let arbitrary_spd = make ~print:show spd_gen in
  [
    Test.make ~name:"inverse involutive" ~count:30 arbitrary_spd (fun a ->
        let back = Matrix.spd_inverse (Matrix.spd_inverse a) in
        Matrix.frobenius_distance a back < 1e-5);
    Test.make ~name:"random SPD is SPD" ~count:50 arbitrary_spd Matrix.is_spd;
  ]

let () =
  Alcotest.run "dd_linalg"
    [
      ( "matrix",
        [
          Alcotest.test_case "create zero" `Quick test_create_zero;
          Alcotest.test_case "set/update" `Quick test_set_update;
          Alcotest.test_case "add/sub/scale" `Quick test_add_sub_scale;
          Alcotest.test_case "copy" `Quick test_copy;
        ] );
      ( "spd",
        [
          Alcotest.test_case "cholesky rejects" `Quick test_cholesky_rejects_non_spd;
          Alcotest.test_case "inverse" `Quick test_spd_inverse;
          Alcotest.test_case "inverse known" `Quick test_spd_inverse_known;
          Alcotest.test_case "is_spd" `Quick test_is_spd;
          Alcotest.test_case "frobenius/max_abs" `Quick test_frobenius_and_max_abs;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
