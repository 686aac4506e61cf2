module Value = Dd_relational.Value
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Column_store = Dd_relational.Column_store
module StringSet = Set.Make (String)

(* --- relation views ------------------------------------------------------ *)

type view =
  | Whole of Relation.t
  | Patched of {
      base : Relation.t;
      minus : unit Tuple.Hashtbl.t;
      plus : unit Tuple.Hashtbl.t;
    }

type lookup = string -> view

let whole r = Whole r

let patched ~base ~minus ~plus = Patched { base; minus; plus }

let view_of_lookup f pred = Whole (f pred)

let view_mem v tuple =
  match v with
  | Whole r -> Relation.mem r tuple
  | Patched { base; minus; plus } ->
    (Relation.mem base tuple && not (Tuple.Hashtbl.mem minus tuple))
    || Tuple.Hashtbl.mem plus tuple

(* --- compiled form -------------------------------------------------------- *)

(* A term source resolved at compile time: a constant, or an integer slot in
   the binding array.  Slots referenced by [S] in probe keys, rejects, tests
   and the head are always bound by an earlier step (or the step raises an
   unbound-variable error on [Value.Null]). *)
type src = K of Value.t | S of int

type probe = {
  pos : int;  (* original body position: staging (new/old/delta) keys off it *)
  pred : string;
  arity : int;
  key_pos : int array;  (* argument positions bound at this step; [] = scan *)
  key_src : src array;  (* parallel to [key_pos] *)
  dup : (int * int) array;  (* repeated fresh variable: tuple.(i) = tuple.(j) *)
  binds : (int * int) array;  (* fresh variables: slot <- tuple.(i) *)
}

type cmp = Ceq | Cneq | Clt | Cle

type step =
  | Match of probe  (* positive literal (or the delta literal, any polarity) *)
  | Reject of { pos : int; pred : string; args : src array }  (* anti-join *)
  | Test of { op : cmp; a : src; b : src }  (* guard *)

type t = {
  rule : Ast.rule;
  nslots : int;
  slots : (string, int) Hashtbl.t;
  head : src array;
  steps : step array;
  delta_pos : int;  (* -1 for full plans *)
  order : int list;  (* original positions of Match steps, execution order *)
}

let rule t = t.rule

let delta_pos t = t.delta_pos

let literal_order t = t.order

(* --- compiler ------------------------------------------------------------- *)

let compile_probe slots bound pos (atom : Ast.atom) =
  let args = Array.of_list atom.Ast.args in
  let key_pos = ref [] and key_src = ref [] in
  let dup = ref [] and binds = ref [] in
  let first_here : (string, int) Hashtbl.t = Hashtbl.create 4 in
  Array.iteri
    (fun i arg ->
      match arg with
      | Ast.Const c ->
        key_pos := i :: !key_pos;
        key_src := K c :: !key_src
      | Ast.Var v ->
        if StringSet.mem v bound then begin
          key_pos := i :: !key_pos;
          key_src := S (Hashtbl.find slots v) :: !key_src
        end
        else begin
          match Hashtbl.find_opt first_here v with
          | Some j -> dup := (i, j) :: !dup
          | None ->
            Hashtbl.replace first_here v i;
            binds := (i, Hashtbl.find slots v) :: !binds
        end)
    args;
  {
    pos;
    pred = atom.Ast.pred;
    arity = Array.length args;
    key_pos = Array.of_list (List.rev !key_pos);
    key_src = Array.of_list (List.rev !key_src);
    dup = Array.of_list (List.rev !dup);
    binds = Array.of_list (List.rev !binds);
  }

let compile_internal (rule : Ast.rule) ~delta_pos =
  let slots = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace slots v i) (Ast.rule_vars rule);
  let nslots = Hashtbl.length slots in
  let literals = Array.of_list rule.Ast.body in
  let n = Array.length literals in
  if delta_pos >= n then invalid_arg "Plan.compile_delta: delta position out of range";
  let vars_of i = Ast.atom_vars (Ast.atom_of_literal literals.(i)) in
  let positions = List.init n (fun i -> i) in
  (* The delta literal is consumed as a positive match whatever its polarity
     (signs live in the delta counts); other negated literals run as
     anti-join filters once their variables are bound. *)
  let match_positions =
    List.filter (fun i -> Ast.is_positive literals.(i) || i = delta_pos) positions
  in
  let reject_positions =
    List.filter (fun i -> (not (Ast.is_positive literals.(i))) && i <> delta_pos) positions
  in
  (* Greedy join order: most already-bound argument positions first
     (constants count as bound — this is the selectivity heuristic of the
     paper's rule-based optimizer), tie-broken toward fewer fresh variables,
     then source order.  Delta plans seed the order with the delta literal
     so the (usually tiny) delta drives the probes. *)
  let bound = ref (if delta_pos >= 0 then StringSet.of_list (vars_of delta_pos) else StringSet.empty) in
  let order = ref (if delta_pos >= 0 then [ delta_pos ] else []) in
  let remaining = ref (List.filter (fun i -> i <> delta_pos) match_positions) in
  let score i =
    let atom = Ast.atom_of_literal literals.(i) in
    let bound_args =
      List.length
        (List.filter
           (function Ast.Const _ -> true | Ast.Var v -> StringSet.mem v !bound)
           atom.Ast.args)
    in
    let fresh =
      List.length
        (List.sort_uniq String.compare
           (List.filter (fun v -> not (StringSet.mem v !bound)) (Ast.atom_vars atom)))
    in
    (bound_args, -fresh, -i)
  in
  while !remaining <> [] do
    let best =
      List.fold_left
        (fun acc i ->
          match acc with
          | None -> Some i
          | Some j -> if score i > score j then Some i else acc)
        None !remaining
    in
    match best with
    | None -> remaining := []
    | Some i ->
      order := i :: !order;
      remaining := List.filter (fun j -> j <> i) !remaining;
      bound := List.fold_left (fun s v -> StringSet.add v s) !bound (vars_of i)
  done;
  let order = List.rev !order in
  (* Emit steps, scheduling each negation and guard at the earliest point
     where its variables are bound.  Leftovers (unsafe rules) are emitted at
     the end and raise at run time if any rows reach them. *)
  let steps = ref [] in
  let pending_rejects = ref reject_positions in
  let pending_guards = ref rule.Ast.guards in
  let bound = ref StringSet.empty in
  let term_src = function Ast.Const c -> K c | Ast.Var v -> S (Hashtbl.find slots v) in
  let flush ~force =
    let is_ready vs = force || List.for_all (fun v -> StringSet.mem v !bound) vs in
    let ready_r, rest_r = List.partition (fun i -> is_ready (vars_of i)) !pending_rejects in
    pending_rejects := rest_r;
    List.iter
      (fun i ->
        let atom = Ast.atom_of_literal literals.(i) in
        let args = Array.of_list (List.map term_src atom.Ast.args) in
        steps := Reject { pos = i; pred = atom.Ast.pred; args } :: !steps)
      ready_r;
    let ready_g, rest_g =
      List.partition (fun g -> is_ready (Ast.guard_vars g)) !pending_guards
    in
    pending_guards := rest_g;
    List.iter
      (fun g ->
        let op, a, b =
          match g with
          | Ast.Eq (a, b) -> (Ceq, a, b)
          | Ast.Neq (a, b) -> (Cneq, a, b)
          | Ast.Lt (a, b) -> (Clt, a, b)
          | Ast.Le (a, b) -> (Cle, a, b)
        in
        steps := Test { op; a = term_src a; b = term_src b } :: !steps)
      ready_g
  in
  flush ~force:false;
  List.iter
    (fun i ->
      let atom = Ast.atom_of_literal literals.(i) in
      let probe = compile_probe slots !bound i atom in
      bound := List.fold_left (fun s v -> StringSet.add v s) !bound (vars_of i);
      steps := Match probe :: !steps;
      flush ~force:false)
    order;
  flush ~force:true;
  let head = Array.of_list (List.map term_src rule.Ast.head.Ast.args) in
  { rule; nslots; slots; head; steps = Array.of_list (List.rev !steps); delta_pos; order }

let compile rule = compile_internal rule ~delta_pos:(-1)

let compile_delta rule ~delta_pos =
  if delta_pos < 0 then invalid_arg "Plan.compile_delta: negative delta position";
  compile_internal rule ~delta_pos

(* --- execution ------------------------------------------------------------ *)

(* The frontier of partial bindings, as growable parallel arrays.  Binding
   arrays are never mutated after being pushed (each Match step copies
   before writing fresh slots), so steps that bind nothing may share the
   parent array across rows. *)
type frontier = {
  mutable bindings : Value.t array array;
  mutable counts : int array;
  mutable len : int;
}

let frontier_create () = { bindings = Array.make 16 [||]; counts = Array.make 16 0; len = 0 }

let frontier_push f b c =
  if f.len = Array.length f.bindings then begin
    let cap = 2 * Array.length f.bindings in
    let nb = Array.make cap [||] and nc = Array.make cap 0 in
    Array.blit f.bindings 0 nb 0 f.len;
    Array.blit f.counts 0 nc 0 f.len;
    f.bindings <- nb;
    f.counts <- nc
  end;
  f.bindings.(f.len) <- b;
  f.counts.(f.len) <- c;
  f.len <- f.len + 1

let filter_frontier f keep =
  let j = ref 0 in
  for i = 0 to f.len - 1 do
    if keep f.bindings.(i) then begin
      f.bindings.(!j) <- f.bindings.(i);
      f.counts.(!j) <- f.counts.(i);
      incr j
    end
  done;
  f.len <- !j

let src_value binding = function K c -> c | S s -> binding.(s)

let keys_match p binding tuple =
  let m = Array.length p.key_pos in
  let rec go k =
    k >= m
    || (Value.equal tuple.(p.key_pos.(k)) (src_value binding p.key_src.(k)) && go (k + 1))
  in
  go 0

let dups_match p tuple =
  let m = Array.length p.dup in
  let rec go k =
    k >= m
    ||
    let i, j = p.dup.(k) in
    Value.equal tuple.(i) tuple.(j) && go (k + 1)
  in
  go 0

(* Failures are detected before any allocation; the parent binding is only
   copied once a candidate is admitted (and shared outright when the step
   binds nothing). *)
let extend p binding tuple =
  if Array.length p.binds = 0 then binding
  else begin
    let fresh = Array.copy binding in
    Array.iter (fun (i, s) -> fresh.(s) <- tuple.(i)) p.binds;
    fresh
  end

let probe_key p binding =
  Array.init (Array.length p.key_src) (fun k -> src_value binding p.key_src.(k))

let rec length_at_least n l =
  n <= 0 || (match l with [] -> false | _ :: tl -> length_at_least (n - 1) tl)

type resolved = R_view of view | R_delta of (Tuple.t * int) list

(* Repeated-fresh-variable check on an encoded row: dictionary ids are
   per-column, but [dup] pairs only arise from one variable occurring twice,
   and equal values have equal ids within a column — across columns two
   occurrences of the same value may carry different ids, so decode. *)
let dups_match_ids p cs ids =
  let m = Array.length p.dup in
  let rec go k =
    k >= m
    ||
    let i, j = p.dup.(k) in
    Value.equal (Column_store.dict_value cs i ids.(i)) (Column_store.dict_value cs j ids.(j))
    && go (k + 1)
  in
  go 0

(* Columnar match: probe the store's sorted runs on encoded keys, decode
   only the slots this step binds.  [minus] (a Patched view's pending
   retractions, keyed by decoded tuples) forces a decode per candidate only
   while non-empty — the common steady state is an empty patch. *)
let col_match out cur p cs minus =
  if Column_store.arity cs = p.arity then begin
    let minus =
      match minus with
      | Some m when Tuple.Hashtbl.length m > 0 -> Some m
      | _ -> None
    in
    let admit_ids b c ids =
      if
        dups_match_ids p cs ids
        && (match minus with
           | None -> true
           | Some m -> not (Tuple.Hashtbl.mem m (Column_store.decode cs ids)))
      then begin
        let fresh =
          if Array.length p.binds = 0 then b
          else begin
            let fresh = Array.copy b in
            Array.iter
              (fun (i, s) -> fresh.(s) <- Column_store.dict_value cs i ids.(i))
              p.binds;
            fresh
          end
        in
        frontier_push out fresh c
      end
    in
    let nkeys = Array.length p.key_pos in
    if nkeys > 0 then begin
      let key_ids = Array.make nkeys 0 in
      for i = 0 to cur.len - 1 do
        let b = cur.bindings.(i) and c = cur.counts.(i) in
        let ok = ref true in
        for k = 0 to nkeys - 1 do
          if !ok then
            match Column_store.encode_value cs p.key_pos.(k) (src_value b p.key_src.(k)) with
            | Some id -> key_ids.(k) <- id
            | None -> ok := false
        done;
        if !ok then Column_store.iter_key cs p.key_pos key_ids (fun ids _ -> admit_ids b c ids)
      done
    end
    else if cur.len = 1 then begin
      let b = cur.bindings.(0) and c = cur.counts.(0) in
      Column_store.iter_ids cs (fun ids _ -> admit_ids b c ids)
    end
    else begin
      let rows = ref [] in
      (* the yielded ids buffer is reused across rows: copy to retain *)
      Column_store.iter_ids cs (fun ids _ -> rows := Array.copy ids :: !rows);
      let rows = List.rev !rows in
      for i = 0 to cur.len - 1 do
        let b = cur.bindings.(i) and c = cur.counts.(i) in
        List.iter (fun ids -> admit_ids b c ids) rows
      done
    end
  end

let step_match cur p source =
  let out = frontier_create () in
  let admit binding count tuple tcount ~check_keys =
    if
      Array.length tuple = p.arity
      && ((not check_keys) || keys_match p binding tuple)
      && dups_match p tuple
    then frontier_push out (extend p binding tuple) (count * tcount)
  in
  (match source with
  | R_view (Whole r) -> col_match out cur p (Relation.store r) None
  | R_view (Patched { base; minus; plus }) ->
    col_match out cur p (Relation.store base) (Some minus);
    if Tuple.Hashtbl.length plus > 0 then begin
      let plus_tuples = Tuple.Hashtbl.fold (fun tup () acc -> tup :: acc) plus [] in
      for i = 0 to cur.len - 1 do
        let b = cur.bindings.(i) and c = cur.counts.(i) in
        List.iter (fun tup -> admit b c tup 1 ~check_keys:true) plus_tuples
      done
    end
  | R_delta entries ->
    if Array.length p.key_pos > 0 && cur.len >= 8 && length_at_least 8 entries then begin
      (* One-shot index over the delta, amortized across a large frontier. *)
      let idx = Hashtbl.create 32 in
      List.iter
        (fun ((tup, _) as entry) ->
          if Array.length tup = p.arity then begin
            let key = Tuple.project tup p.key_pos in
            let existing = try Hashtbl.find idx key with Not_found -> [] in
            Hashtbl.replace idx key (entry :: existing)
          end)
        entries;
      for i = 0 to cur.len - 1 do
        let b = cur.bindings.(i) and c = cur.counts.(i) in
        match Hashtbl.find_opt idx (probe_key p b) with
        | None -> ()
        | Some matched ->
          List.iter (fun (tup, tc) -> admit b c tup tc ~check_keys:false) matched
      done
    end
    else
      for i = 0 to cur.len - 1 do
        let b = cur.bindings.(i) and c = cur.counts.(i) in
        List.iter (fun (tup, tc) -> admit b c tup tc ~check_keys:true) entries
      done);
  out

let reject_tuple args binding =
  Array.map
    (fun s ->
      match s with
      | K c -> c
      | S i ->
        let v = binding.(i) in
        if Value.equal v Value.Null then
          invalid_arg "Plan: negation on unbound variable"
        else v)
    args

let guard_value binding s =
  match s with
  | K c -> c
  | S i ->
    let v = binding.(i) in
    if Value.equal v Value.Null then invalid_arg "Plan: guard on unbound variable" else v

let exec t ~resolve ~delta =
  let cur = ref (frontier_create ()) in
  frontier_push !cur (Array.make t.nslots Value.Null) 1;
  Array.iter
    (fun step ->
      if !cur.len > 0 then
        match step with
        | Match p ->
          let source = if p.pos = t.delta_pos then R_delta delta else R_view (resolve p.pos p.pred) in
          cur := step_match !cur p source
        | Reject { pos; pred; args } ->
          let v = resolve pos pred in
          filter_frontier !cur (fun binding -> not (view_mem v (reject_tuple args binding)))
        | Test { op; a; b } ->
          filter_frontier !cur (fun binding ->
              let va = guard_value binding a and vb = guard_value binding b in
              match op with
              | Ceq -> Value.equal va vb
              | Cneq -> not (Value.equal va vb)
              | Clt -> Value.compare va vb < 0
              | Cle -> Value.compare va vb <= 0))
    t.steps;
  !cur

let head_tuple t binding =
  Array.map
    (fun s ->
      match s with
      | K c -> c
      | S i ->
        let v = binding.(i) in
        if Value.equal v Value.Null then
          invalid_arg "Plan: unbound head variable (unsafe rule?)"
        else v)
    t.head

let collect_counted t cur =
  let acc = Tuple.Hashtbl.create (max 16 cur.len) in
  for i = 0 to cur.len - 1 do
    let tup = head_tuple t cur.bindings.(i) in
    let current = try Tuple.Hashtbl.find acc tup with Not_found -> 0 in
    Tuple.Hashtbl.replace acc tup (current + cur.counts.(i))
  done;
  Tuple.Hashtbl.fold (fun tup c out -> if c = 0 then out else (tup, c) :: out) acc []

let run t ~lookup =
  if t.delta_pos >= 0 then invalid_arg "Plan.run: delta plan (use run_staged)";
  collect_counted t (exec t ~resolve:(fun _ pred -> lookup pred) ~delta:[])

let run_iter t ~lookup ~f =
  if t.delta_pos >= 0 then invalid_arg "Plan.run_iter: delta plan (use run_staged)";
  let cur = exec t ~resolve:(fun _ pred -> lookup pred) ~delta:[] in
  for i = 0 to cur.len - 1 do
    f (head_tuple t cur.bindings.(i)) cur.counts.(i)
  done

let staged_resolve t ~before ~after pos pred =
  if pos < t.delta_pos then before pred else after pred

let run_staged t ~before ~after ~delta =
  if t.delta_pos < 0 then invalid_arg "Plan.run_staged: full plan (use run)";
  collect_counted t (exec t ~resolve:(staged_resolve t ~before ~after) ~delta)

let env_of t binding v =
  match Hashtbl.find_opt t.slots v with
  | None -> None
  | Some s ->
    let value = binding.(s) in
    if Value.equal value Value.Null then None else Some value

let run_bindings t ~lookup =
  if t.delta_pos >= 0 then invalid_arg "Plan.run_bindings: delta plan (use run_bindings_staged)";
  let cur = exec t ~resolve:(fun _ pred -> lookup pred) ~delta:[] in
  List.init cur.len (fun i -> env_of t cur.bindings.(i))

let run_bindings_staged t ~before ~after ~delta =
  if t.delta_pos < 0 then invalid_arg "Plan.run_bindings_staged: full plan (use run_bindings)";
  let cur = exec t ~resolve:(staged_resolve t ~before ~after) ~delta in
  List.init cur.len (fun i -> (env_of t cur.bindings.(i), cur.counts.(i)))

(* --- plan cache ----------------------------------------------------------- *)

module Cache = struct
  type plan = t

  type t = {
    table : (string * int, plan) Hashtbl.t;  (* (printed rule, delta pos) *)
    mutable compiles : int;
  }

  let create () = { table = Hashtbl.create 32; compiles = 0 }

  let get c rule dp =
    let key = (Ast.rule_to_string rule, dp) in
    match Hashtbl.find_opt c.table key with
    | Some p -> p
    | None ->
      let p = if dp < 0 then compile rule else compile_delta rule ~delta_pos:dp in
      c.compiles <- c.compiles + 1;
      Hashtbl.replace c.table key p;
      p

  let full c rule = get c rule (-1)

  let delta c rule ~delta_pos = get c rule delta_pos

  let size c = Hashtbl.length c.table

  let compiles c = c.compiles
end
