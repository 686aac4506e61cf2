module Matrix = Dd_linalg.Matrix

type options = {
  max_iterations : int;
  step : float;
  tolerance : float;
  prune_below : float;
}

let default =
  { max_iterations = 12; step = 0.05; tolerance = 1e-5; prune_below = 1e-3 }

let project ~m ~nz_set ~lambda x =
  let n = Matrix.dim x in
  let out = Matrix.create n in
  for i = 0 to n - 1 do
    Matrix.set out i i (Matrix.get m i i +. (1.0 /. 3.0))
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Hashtbl.mem nz_set (i, j) then begin
        let target = Matrix.get m i j in
        let v = 0.5 *. (Matrix.get x i j +. Matrix.get x j i) in
        let clamped = Dd_util.Stats.clamp (target -. lambda) (target +. lambda) v in
        Matrix.set out i j clamped;
        Matrix.set out j i clamped
      end
    done
  done;
  out

let solve ?(options = default) ~nz ~lambda m =
  let n = Matrix.dim m in
  let nz_set = Hashtbl.create (max 16 (List.length nz)) in
  List.iter (fun (i, j) -> Hashtbl.replace nz_set (min i j, max i j) ()) nz;
  (* Start from the (feasible, SPD) projected diagonal. *)
  let x = ref (project ~m ~nz_set ~lambda (Matrix.create n)) in
  (* The diagonal start is SPD only if off-diagonal clamping kept it so;
     with a zero matrix input, all off-diagonals project to the closest
     point to 0 in [M_kj - lambda, M_kj + lambda]. Diagonally dominant-ish
     but not guaranteed SPD; fall back to pure diagonal if needed. *)
  if not (Matrix.is_spd !x) then begin
    let d = Matrix.create n in
    for i = 0 to n - 1 do
      Matrix.set d i i (Matrix.get m i i +. (1.0 /. 3.0))
    done;
    (* Blend towards the diagonal until SPD. *)
    let rec blend t =
      let candidate = Matrix.add (Matrix.scale (1.0 -. t) !x) (Matrix.scale t d) in
      if Matrix.is_spd candidate || t >= 1.0 then candidate else blend (min 1.0 (t +. 0.25))
    in
    x := blend 0.25
  end;
  let iteration = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iteration < options.max_iterations do
    incr iteration;
    let gradient = Matrix.spd_inverse !x in
    (* Backtracking projected ascent step. *)
    let rec try_step step =
      if step < 1e-6 then None
      else begin
        let candidate =
          project ~m ~nz_set ~lambda (Matrix.add !x (Matrix.scale step gradient))
        in
        if Matrix.is_spd candidate then Some candidate else try_step (step /. 2.0)
      end
    in
    match try_step options.step with
    | None -> continue_ := false
    | Some next ->
      let moved = Matrix.frobenius_distance next !x in
      x := next;
      if moved < options.tolerance then continue_ := false
  done;
  (* Prune tiny off-diagonals: they would become near-zero factors that
     cost inference time without informing it. *)
  let result = Matrix.copy !x in
  let n = Matrix.dim result in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && abs_float (Matrix.get result i j) < options.prune_below then
        Matrix.set result i j 0.0
    done
  done;
  result
