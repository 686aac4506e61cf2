type var = int

type weight_id = int

type literal = { var : var; negated : bool }

type factor = {
  head : var option;
  bodies : literal array array;
  weight_id : weight_id;
  semantics : Semantics.t;
}

type evidence =
  | Query
  | Evidence of bool

(* Growable arrays keep appends cheap; incremental grounding extends a live
   graph with new variables and factors. *)
type 'a vec = { mutable data : 'a array; mutable len : int; dummy : 'a }

let vec_create dummy = { data = Array.make 16 dummy; len = 0; dummy }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let grown = Array.make (2 * v.len) v.dummy in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let vec_get v i =
  if i < 0 || i >= v.len then invalid_arg "Graph: index out of bounds";
  v.data.(i)

let vec_set v i x =
  if i < 0 || i >= v.len then invalid_arg "Graph: index out of bounds";
  v.data.(i) <- x

let vec_copy v = { v with data = Array.copy v.data }

(* Inverse operations over pre-transaction slots.  Appends need no entry:
   rollback truncates the growable arrays back to the recorded base
   lengths, so only in-place mutations of pre-existing slots are logged. *)
type undo =
  | U_evidence of var * evidence
  | U_weight of weight_id * float
  | U_factor of int * factor

type journal = {
  base_vars : int;
  base_weights : int;
  base_factors : int;
  mutable entries : undo list;  (* newest first *)
}

type t = {
  evidence : evidence vec;
  weights : float vec;
  learnable : bool vec;
  factors : factor vec;
  mutable journal : journal option;
}

let create () =
  {
    evidence = vec_create Query;
    weights = vec_create 0.0;
    learnable = vec_create false;
    factors =
      vec_create { head = None; bodies = [||]; weight_id = 0; semantics = Semantics.Linear };
    journal = None;
  }

let num_vars t = t.evidence.len

let num_factors t = t.factors.len

let num_weights t = t.weights.len

let add_var ?(evidence = Query) t =
  vec_push t.evidence evidence;
  t.evidence.len - 1

let add_vars ?evidence t n = Array.init n (fun _ -> add_var ?evidence t)

let add_weight ?(learnable = false) t value =
  vec_push t.weights value;
  vec_push t.learnable learnable;
  t.weights.len - 1

let vars_of_factor f =
  let vars =
    Array.to_list (Array.concat (Array.to_list f.bodies))
    |> List.map (fun l -> l.var)
  in
  let vars = match f.head with Some h -> h :: vars | None -> vars in
  List.sort_uniq compare vars

let add_factor t f =
  let check_var v =
    if v < 0 || v >= num_vars t then invalid_arg "Graph.add_factor: unknown variable"
  in
  (match f.head with Some h -> check_var h | None -> ());
  Array.iter (fun body -> Array.iter (fun l -> check_var l.var) body) f.bodies;
  if f.weight_id < 0 || f.weight_id >= num_weights t then
    invalid_arg "Graph.add_factor: unknown weight";
  vec_push t.factors f;
  t.factors.len - 1

let pairwise t ~weight a b =
  add_factor t
    {
      head = None;
      bodies = [| [| { var = a; negated = false }; { var = b; negated = false } |] |];
      weight_id = weight;
      semantics = Semantics.Logical;
    }

let unary t ~weight v =
  add_factor t
    {
      head = None;
      bodies = [| [| { var = v; negated = false } |] |];
      weight_id = weight;
      semantics = Semantics.Logical;
    }

let extend_factor t i bodies =
  if Array.length bodies > 0 then begin
    let f = vec_get t.factors i in
    (match t.journal with
    | Some j when i < j.base_factors -> j.entries <- U_factor (i, f) :: j.entries
    | _ -> ());
    vec_set t.factors i { f with bodies = Array.append f.bodies bodies }
  end

let factor t i = vec_get t.factors i

let weight_value t w = vec_get t.weights w

let set_weight t w v =
  (match t.journal with
  | Some j when w < j.base_weights -> j.entries <- U_weight (w, vec_get t.weights w) :: j.entries
  | _ -> ());
  vec_set t.weights w v

let weight_learnable t w = vec_get t.learnable w

let evidence_of t v = vec_get t.evidence v

let set_evidence t v e =
  (match t.journal with
  | Some j when v < j.base_vars -> j.entries <- U_evidence (v, vec_get t.evidence v) :: j.entries
  | _ -> ());
  vec_set t.evidence v e

(* One pass over the factors, ascending, prepending each factor to the
   list of every distinct variable it mentions, so each list ends newest
   first.  [last.(v)] is the last factor that listed [v]. *)
let factors_of_var t =
  let n = num_vars t in
  let lists = Array.make n [] and last = Array.make n (-1) in
  let note fid v =
    if last.(v) <> fid then begin
      last.(v) <- fid;
      lists.(v) <- fid :: lists.(v)
    end
  in
  for fid = 0 to t.factors.len - 1 do
    let f = t.factors.data.(fid) in
    Option.iter (note fid) f.head;
    Array.iter (Array.iter (fun l -> note fid l.var)) f.bodies
  done;
  lists

let iter_factors f t =
  for i = 0 to t.factors.len - 1 do
    f i t.factors.data.(i)
  done

let query_vars t =
  let out = ref [] in
  for v = num_vars t - 1 downto 0 do
    match vec_get t.evidence v with
    | Query -> out := v :: !out
    | Evidence _ -> ()
  done;
  !out

let evidence_vars t =
  let out = ref [] in
  for v = num_vars t - 1 downto 0 do
    match vec_get t.evidence v with
    | Query -> ()
    | Evidence b -> out := (v, b) :: !out
  done;
  !out

let body_satisfied assignment body =
  Array.for_all (fun l -> assignment l.var <> l.negated) body

let factor_energy_prefix f ~weight assignment k =
  let n = ref 0 in
  for b = 0 to min k (Array.length f.bodies) - 1 do
    if body_satisfied assignment f.bodies.(b) then incr n
  done;
  let sign =
    match f.head with
    | None -> 1.0
    | Some h -> if assignment h then 1.0 else -1.0
  in
  weight *. sign *. Semantics.g f.semantics !n

let factor_energy t f assignment =
  factor_energy_prefix f ~weight:(weight_value t f.weight_id) assignment (Array.length f.bodies)

let flip_energy t fids assignment v =
  let lookup v' = assignment.(v') in
  let energy_with value =
    assignment.(v) <- value;
    List.fold_left (fun acc fid -> acc +. factor_energy t (vec_get t.factors fid) lookup) 0.0 fids
  in
  let saved = assignment.(v) in
  let on = energy_with true in
  let off = energy_with false in
  assignment.(v) <- saved;
  on -. off

let total_energy t assignment =
  let acc = ref 0.0 in
  iter_factors (fun _ f -> acc := !acc +. factor_energy t f assignment) t;
  !acc

let copy t =
  {
    evidence = vec_copy t.evidence;
    weights = vec_copy t.weights;
    learnable = vec_copy t.learnable;
    factors = vec_copy t.factors;
    journal = None;
  }

(* --- transactional journal ------------------------------------------------ *)

let journal_begin t =
  let j =
    {
      base_vars = num_vars t;
      base_weights = num_weights t;
      base_factors = num_factors t;
      entries = [];
    }
  in
  t.journal <- Some j;
  j

let journal_end t = t.journal <- None

let vec_truncate v n =
  if n < v.len then begin
    for i = n to v.len - 1 do
      v.data.(i) <- v.dummy
    done;
    v.len <- n
  end

(* Idempotent: entries carry absolute pre-transaction values and are
   applied newest-to-oldest, so the oldest (original) value wins for a
   slot touched several times, and re-running a partially completed
   rollback converges to the same state. *)
let rollback t j =
  t.journal <- None;
  List.iter
    (function
      | U_evidence (v, e) -> if v < j.base_vars then vec_set t.evidence v e
      | U_weight (w, x) -> if w < j.base_weights then vec_set t.weights w x
      | U_factor (i, f) -> if i < j.base_factors then vec_set t.factors i f)
    j.entries;
  vec_truncate t.evidence j.base_vars;
  vec_truncate t.weights j.base_weights;
  vec_truncate t.learnable j.base_weights;
  vec_truncate t.factors j.base_factors

let freeze_assignment ?(query = fun () -> false) t =
  Array.init (num_vars t) (fun v ->
      match vec_get t.evidence v with
      | Evidence b -> b
      | Query -> query ())

(* Structural integrity check for graphs restored from disk (and a cheap
   invariant audit elsewhere).  Everything [add_factor] enforces on entry
   is re-checked, because a deserialized or unmarshalled graph bypassed
   those constructors' guarantees. *)
let validate t =
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let nvars = num_vars t and nweights = num_weights t in
  let check_weights () =
    let bad = ref None in
    for w = 0 to nweights - 1 do
      if !bad = None then begin
        let value = vec_get t.weights w in
        if not (Float.is_finite value) then bad := Some (w, value)
      end
    done;
    match !bad with
    | Some (w, value) -> error "weight %d is not finite (%h)" w value
    | None -> Ok ()
  in
  let check_factor i f =
    let check_var what v =
      if v < 0 || v >= nvars then
        error "factor %d: %s variable %d out of range [0,%d)" i what v nvars
      else Ok ()
    in
    let ( let* ) = Result.bind in
    let* () = match f.head with Some h -> check_var "head" h | None -> Ok () in
    let* () =
      Array.fold_left
        (fun acc body ->
          Array.fold_left
            (fun acc l ->
              let* () = acc in
              check_var "literal" l.var)
            acc body)
        (Ok ()) f.bodies
    in
    if f.weight_id < 0 || f.weight_id >= nweights then
      error "factor %d: weight id %d out of range [0,%d)" i f.weight_id nweights
    else Ok ()
  in
  let rec check_factors i =
    if i >= num_factors t then Ok ()
    else
      match check_factor i (vec_get t.factors i) with
      | Ok () -> check_factors (i + 1)
      | Error _ as e -> e
  in
  Result.bind (check_weights ()) (fun () -> check_factors 0)
