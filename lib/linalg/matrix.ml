type t = { n : int; data : float array }

exception Not_positive_definite

let create n = { n; data = Array.make (n * n) 0.0 }

let dim t = t.n

let get t i j = t.data.((i * t.n) + j)

let set t i j v = t.data.((i * t.n) + j) <- v

let copy t = { n = t.n; data = Array.copy t.data }

let add a b =
  assert (a.n = b.n);
  { n = a.n; data = Array.init (a.n * a.n) (fun k -> a.data.(k) +. b.data.(k)) }

let scale c t = { n = t.n; data = Array.map (fun v -> c *. v) t.data }

let frobenius_distance a b =
  assert (a.n = b.n);
  let acc = ref 0.0 in
  Array.iteri
    (fun k v ->
      let d = v -. b.data.(k) in
      acc := !acc +. (d *. d))
    a.data;
  sqrt !acc

(* Lower-triangular [l] with [l * l^T = a]. *)
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
  (* Round off asymmetry introduced by the column solves: (a + a^T) / 2. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = 0.5 *. (get out i j +. get out j i) in
      set out i j v;
      set out j i v
    done
  done;
  out

let is_spd a =
  match cholesky a with
  | (_ : t) -> true
  | exception Not_positive_definite -> false
