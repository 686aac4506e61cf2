(* Tests for Dd_linalg.Matrix: the dense SPD kernel under Algorithm 1. *)

module Matrix = Dd_linalg.Matrix

let check_close epsilon = Alcotest.(check (float epsilon))

let matrix_equal ?(epsilon = 1e-9) a b = Matrix.frobenius_distance a b < epsilon

(* A well-conditioned random SPD matrix: B^T B + I. *)
let random_spd rng n =
  let b = Matrix.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set b i j (Dd_util.Prng.float_range rng (-1.0) 1.0)
    done
  done;
  Matrix.add_ridge (Matrix.mul (Matrix.transpose b) b) 1.0

let test_create_zero () =
  let m = Matrix.create 3 in
  Alcotest.(check int) "dim" 3 (Matrix.dim m);
  for i = 0 to 2 do
    for j = 0 to 2 do
      check_close 0.0 "zero" 0.0 (Matrix.get m i j)
    done
  done

let test_identity () =
  let m = Matrix.identity 3 in
  check_close 0.0 "diag" 1.0 (Matrix.get m 1 1);
  check_close 0.0 "off" 0.0 (Matrix.get m 0 2)

let test_of_to_arrays () =
  let rows = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let m = Matrix.of_arrays rows in
  Alcotest.(check bool) "roundtrip" true (Matrix.to_arrays m = rows);
  (* Mutating the source must not affect the matrix (copied). *)
  rows.(0).(0) <- 99.0;
  check_close 0.0 "copied" 1.0 (Matrix.get m 0 0)

let test_set_update () =
  let m = Matrix.create 2 in
  Matrix.set m 0 1 5.0;
  Matrix.update m 0 1 (fun v -> v +. 1.0);
  check_close 0.0 "update" 6.0 (Matrix.get m 0 1)

let test_add_sub_scale () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  check_close 0.0 "add" 8.0 (Matrix.get (Matrix.add a b) 0 1);
  check_close 0.0 "sub" (-4.0) (Matrix.get (Matrix.sub a b) 1 0);
  check_close 0.0 "scale" 8.0 (Matrix.get (Matrix.scale 2.0 b) 1 1 /. 2.0)

let test_mul_known () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_close 0.0 "c00" 19.0 (Matrix.get c 0 0);
  check_close 0.0 "c01" 22.0 (Matrix.get c 0 1);
  check_close 0.0 "c10" 43.0 (Matrix.get c 1 0);
  check_close 0.0 "c11" 50.0 (Matrix.get c 1 1)

let test_mul_identity () =
  let rng = Dd_util.Prng.create 3 in
  let a = random_spd rng 4 in
  Alcotest.(check bool) "a*i = a" true (matrix_equal a (Matrix.mul a (Matrix.identity 4)))

let test_mat_vec () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Matrix.mat_vec a [| 1.0; 1.0 |] in
  Alcotest.(check (array (float 1e-12))) "mat_vec" [| 3.0; 7.0 |] y

let test_transpose () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_close 0.0 "transposed" 3.0 (Matrix.get (Matrix.transpose a) 0 1)

let test_symmetrize () =
  let a = Matrix.of_arrays [| [| 1.0; 4.0 |]; [| 0.0; 1.0 |] |] in
  let s = Matrix.symmetrize a in
  check_close 0.0 "sym 01" 2.0 (Matrix.get s 0 1);
  check_close 0.0 "sym 10" 2.0 (Matrix.get s 1 0)

let test_cholesky_known () =
  (* [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt 2]]. *)
  let a = Matrix.of_arrays [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  let l = Matrix.cholesky a in
  check_close 1e-12 "l00" 2.0 (Matrix.get l 0 0);
  check_close 1e-12 "l10" 1.0 (Matrix.get l 1 0);
  check_close 1e-12 "l11" (sqrt 2.0) (Matrix.get l 1 1);
  check_close 0.0 "upper zero" 0.0 (Matrix.get l 0 1)

let test_cholesky_rejects_non_spd () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "not SPD" Matrix.Not_positive_definite (fun () ->
      ignore (Matrix.cholesky a))

let test_cholesky_reconstruction () =
  let rng = Dd_util.Prng.create 4 in
  let a = random_spd rng 6 in
  let l = Matrix.cholesky a in
  Alcotest.(check bool) "l l^T = a" true
    (matrix_equal ~epsilon:1e-8 a (Matrix.mul l (Matrix.transpose l)))

let test_spd_solve () =
  let a = Matrix.of_arrays [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  let x = Matrix.spd_solve a [| 8.0; 7.0 |] in
  let b = Matrix.mat_vec a x in
  check_close 1e-9 "b0" 8.0 b.(0);
  check_close 1e-9 "b1" 7.0 b.(1)

let test_spd_inverse () =
  let rng = Dd_util.Prng.create 5 in
  let a = random_spd rng 5 in
  let inv = Matrix.spd_inverse a in
  Alcotest.(check bool) "a a^-1 = i" true
    (matrix_equal ~epsilon:1e-7 (Matrix.identity 5) (Matrix.mul a inv));
  (* Inverse of SPD is symmetric. *)
  Alcotest.(check bool) "symmetric" true (matrix_equal inv (Matrix.transpose inv))

let test_log_det_2x2 () =
  let a = Matrix.of_arrays [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  (* det = 12 - 4 = 8. *)
  check_close 1e-9 "logdet" (log 8.0) (Matrix.log_det_spd a)

let test_log_det_identity () =
  check_close 1e-12 "logdet I = 0" 0.0 (Matrix.log_det_spd (Matrix.identity 7))

let test_is_spd () =
  Alcotest.(check bool) "identity SPD" true (Matrix.is_spd (Matrix.identity 3));
  let bad = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "indefinite" false (Matrix.is_spd bad)

let test_add_ridge () =
  let a = Matrix.create 2 in
  let r = Matrix.add_ridge a 0.5 in
  check_close 0.0 "diag" 0.5 (Matrix.get r 0 0);
  check_close 0.0 "off" 0.0 (Matrix.get r 0 1);
  (* Original untouched. *)
  check_close 0.0 "original" 0.0 (Matrix.get a 0 0)

let test_frobenius_and_max_abs () =
  let a = Matrix.of_arrays [| [| 0.0; 3.0 |]; [| 4.0; 0.0 |] |] in
  check_close 1e-12 "frobenius" 5.0 (Matrix.frobenius_distance a (Matrix.create 2));
  check_close 0.0 "max_abs" 4.0 (Matrix.max_abs a)

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
    Test.make ~name:"spd_solve satisfies system" ~count:50 arbitrary_spd (fun a ->
        let b = [| 1.0; -2.0; 0.5; 3.0 |] in
        let x = Matrix.spd_solve a b in
        Dd_util.Stats.max_abs_diff (Matrix.mat_vec a x) b < 1e-6);
    Test.make ~name:"logdet matches cholesky diagonal" ~count:50 arbitrary_spd (fun a ->
        let l = Matrix.cholesky a in
        let s = ref 0.0 in
        for i = 0 to Matrix.dim a - 1 do
          s := !s +. log (Matrix.get l i i)
        done;
        abs_float (Matrix.log_det_spd a -. (2.0 *. !s)) < 1e-9);
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
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "of/to arrays" `Quick test_of_to_arrays;
          Alcotest.test_case "set/update" `Quick test_set_update;
          Alcotest.test_case "add/sub/scale" `Quick test_add_sub_scale;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "mul identity" `Quick test_mul_identity;
          Alcotest.test_case "mat_vec" `Quick test_mat_vec;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "symmetrize" `Quick test_symmetrize;
        ] );
      ( "spd",
        [
          Alcotest.test_case "cholesky known" `Quick test_cholesky_known;
          Alcotest.test_case "cholesky rejects" `Quick test_cholesky_rejects_non_spd;
          Alcotest.test_case "cholesky reconstruction" `Quick test_cholesky_reconstruction;
          Alcotest.test_case "solve" `Quick test_spd_solve;
          Alcotest.test_case "inverse" `Quick test_spd_inverse;
          Alcotest.test_case "logdet 2x2" `Quick test_log_det_2x2;
          Alcotest.test_case "logdet identity" `Quick test_log_det_identity;
          Alcotest.test_case "is_spd" `Quick test_is_spd;
          Alcotest.test_case "ridge" `Quick test_add_ridge;
          Alcotest.test_case "frobenius/max_abs" `Quick test_frobenius_and_max_abs;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
