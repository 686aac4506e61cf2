type t = { n : int; data : float array }

exception Not_positive_definite

let create n = { n; data = Array.make (n * n) 0.0 }

let dim t = t.n

let get t i j = t.data.((i * t.n) + j)

let set t i j v = t.data.((i * t.n) + j) <- v

let update t i j f = t.data.((i * t.n) + j) <- f t.data.((i * t.n) + j)

let identity n =
  let t = create n in
  for i = 0 to n - 1 do
    set t i i 1.0
  done;
  t

let of_arrays rows =
  let n = Array.length rows in
  Array.iter (fun r -> assert (Array.length r = n)) rows;
  let t = create n in
  Array.iteri (fun i row -> Array.iteri (fun j v -> set t i j v) row) rows;
  t

let to_arrays t = Array.init t.n (fun i -> Array.init t.n (fun j -> get t i j))

let copy t = { n = t.n; data = Array.copy t.data }

let map f t = { n = t.n; data = Array.map f t.data }

let elementwise op a b =
  assert (a.n = b.n);
  { n = a.n; data = Array.init (a.n * a.n) (fun k -> op a.data.(k) b.data.(k)) }

let add a b = elementwise ( +. ) a b

let sub a b = elementwise ( -. ) a b

let scale c t = map (fun v -> c *. v) t

let mul a b =
  assert (a.n = b.n);
  let n = a.n in
  let out = create n in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to n - 1 do
          set out i j (get out i j +. (aik *. get b k j))
        done
    done
  done;
  out

let mat_vec t x =
  assert (Array.length x = t.n);
  Array.init t.n (fun i ->
      let acc = ref 0.0 in
      for j = 0 to t.n - 1 do
        acc := !acc +. (get t i j *. x.(j))
      done;
      !acc)

let transpose t =
  let out = create t.n in
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      set out j i (get t i j)
    done
  done;
  out

let symmetrize t = scale 0.5 (add t (transpose t))

let frobenius_distance a b =
  assert (a.n = b.n);
  let acc = ref 0.0 in
  Array.iteri
    (fun k v ->
      let d = v -. b.data.(k) in
      acc := !acc +. (d *. d))
    a.data;
  sqrt !acc

let max_abs t = Array.fold_left (fun acc v -> max acc (abs_float v)) 0.0 t.data

let cholesky a =
  let n = a.n in
  let l = create n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !acc <= 0.0 then raise Not_positive_definite;
        set l i j (sqrt !acc)
      end
      else set l i j (!acc /. get l j j)
    done
  done;
  l

let cholesky_solve l b =
  let n = l.n in
  assert (Array.length b = n);
  (* Forward substitution: l y = b. *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (get l i k *. y.(k))
    done;
    y.(i) <- !acc /. get l i i
  done;
  (* Back substitution: l^T x = y. *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (get l k i *. x.(k))
    done;
    x.(i) <- !acc /. get l i i
  done;
  x

let spd_solve a b = cholesky_solve (cholesky a) b

let spd_inverse a =
  let n = a.n in
  let l = cholesky a in
  let out = create n in
  for j = 0 to n - 1 do
    let e = Array.make n 0.0 in
    e.(j) <- 1.0;
    let col = cholesky_solve l e in
    for i = 0 to n - 1 do
      set out i j col.(i)
    done
  done;
  (* Round off asymmetry introduced by the column solves. *)
  symmetrize out

let log_det_spd a =
  let l = cholesky a in
  let acc = ref 0.0 in
  for i = 0 to a.n - 1 do
    acc := !acc +. log (get l i i)
  done;
  2.0 *. !acc

let is_spd a =
  match cholesky a with
  | (_ : t) -> true
  | exception Not_positive_definite -> false

let add_ridge a eps =
  let out = copy a in
  for i = 0 to a.n - 1 do
    update out i i (fun v -> v +. eps)
  done;
  out
