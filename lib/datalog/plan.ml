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
  nslots : int;
  slots : (string, int) Hashtbl.t;
  head : src array;
  steps : step array;
  delta_pos : int;  (* -1 for full plans *)
  order : int list;  (* original positions of Match steps, execution order *)
}

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
  { nslots; slots; head; steps = Array.of_list (List.rev !steps); delta_pos; order }

let compile rule = compile_internal rule ~delta_pos:(-1)

let compile_delta rule ~delta_pos =
  if delta_pos < 0 then invalid_arg "Plan.compile_delta: negative delta position";
  compile_internal rule ~delta_pos

(* --- execution ------------------------------------------------------------ *)

(* The frontier of partial bindings: one flat row-major [Value.t array] with
   stride [width] (the plan's slot count) and a count per row.  A row costs
   no block of its own: its values are owned by the stores' dictionaries,
   the plan's constants or the delta's tuples.  Slots a row has not bound
   yet hold [Value.Null]. *)
type frontier = {
  width : int;
  mutable vals : Value.t array;
  mutable counts : int array;
  mutable len : int;
}

let frontier_create width =
  { width; vals = Array.make (16 * width) Value.Null; counts = Array.make 16 0; len = 0 }

(* Append a copy of row [i] of [src] with count [c]; returns the new row's
   offset in [f.vals], where the caller writes the slots it binds. *)
let push_row f src i c =
  let w = f.width in
  if f.len = Array.length f.counts then begin
    let cap = 2 * f.len in
    let vals = Array.make (cap * w) Value.Null and counts = Array.make cap 0 in
    Array.blit f.vals 0 vals 0 (f.len * w);
    Array.blit f.counts 0 counts 0 f.len;
    f.vals <- vals;
    f.counts <- counts
  end;
  let off = f.len * w and from = i * w in
  for s = 0 to w - 1 do
    f.vals.(off + s) <- src.vals.(from + s)
  done;
  f.counts.(f.len) <- c;
  f.len <- f.len + 1;
  off

(* Keep the rows whose offset satisfies [keep], in order. *)
let filter_frontier f keep =
  let w = f.width in
  let j = ref 0 in
  for i = 0 to f.len - 1 do
    if keep (i * w) then begin
      if !j <> i then begin
        Array.blit f.vals (i * w) f.vals (!j * w) w;
        f.counts.(!j) <- f.counts.(i)
      end;
      incr j
    end
  done;
  f.len <- !j

let src_value vals off = function K c -> c | S s -> vals.(off + s)

let keys_match p vals off tuple =
  let m = Array.length p.key_pos in
  let k = ref 0 in
  while !k < m && Value.equal tuple.(p.key_pos.(!k)) (src_value vals off p.key_src.(!k)) do
    incr k
  done;
  !k = m

let dups_match p tuple =
  let m = Array.length p.dup in
  let k = ref 0 in
  while
    !k < m
    &&
    let i, j = p.dup.(!k) in
    Value.equal tuple.(i) tuple.(j)
  do
    incr k
  done;
  !k = m

let probe_key p vals off =
  Array.init (Array.length p.key_src) (fun k -> src_value vals off p.key_src.(k))

let rec length_at_least n l =
  n <= 0 || (match l with [] -> false | _ :: tl -> length_at_least (n - 1) tl)

type resolved = R_view of view | R_delta of (Tuple.t * int) list

(* Repeated-fresh-variable check on an encoded row: dictionary ids are
   per-column, but [dup] pairs only arise from one variable occurring twice,
   and equal values have equal ids within a column — across columns two
   occurrences of the same value may carry different ids, so decode. *)
let dups_match_ids p cs ids =
  let m = Array.length p.dup in
  let k = ref 0 in
  while
    !k < m
    &&
    let i, j = p.dup.(!k) in
    Value.equal (Column_store.dict_value cs i ids.(i)) (Column_store.dict_value cs j ids.(j))
  do
    incr k
  done;
  !k = m

(* Admit a tuple-shaped candidate (a Patched view's re-inclusion or a delta
   entry) for row [i] of [cur]. *)
let admit_tuple out cur p i tuple tcount ~check_keys =
  let w = cur.width in
  if
    Array.length tuple = p.arity
    && ((not check_keys) || keys_match p cur.vals (i * w) tuple)
    && dups_match p tuple
  then begin
    let off = push_row out cur i (cur.counts.(i) * tcount) in
    for b = 0 to Array.length p.binds - 1 do
      let ti, s = p.binds.(b) in
      out.vals.(off + s) <- tuple.(ti)
    done
  end

(* Columnar match: probe the store's sorted run on encoded keys and decode
   only the slots this step binds.  The store's index is resolved once per
   step (on the first row whose key encodes), constant key columns are
   encoded once, and the per-row loop allocates nothing: one key buffer,
   one [admit] closure reading the current parent row from [parent].
   [minus] (a Patched view's pending retractions, keyed by decoded tuples)
   forces a decode per candidate only while non-empty — the common steady
   state is an empty patch. *)
let col_match out cur p cs minus =
  if Column_store.arity cs = p.arity then begin
    let minus =
      match minus with
      | Some m when Tuple.Hashtbl.length m > 0 -> Some m
      | _ -> None
    in
    let parent = ref 0 in
    let admit ids _ =
      if
        dups_match_ids p cs ids
        && (match minus with
           | None -> true
           | Some m -> not (Tuple.Hashtbl.mem m (Column_store.decode cs ids)))
      then begin
        let off = push_row out cur !parent cur.counts.(!parent) in
        for b = 0 to Array.length p.binds - 1 do
          let i, s = p.binds.(b) in
          out.vals.(off + s) <- Column_store.dict_value cs i ids.(i)
        done
      end
    in
    let w = cur.width in
    let nkeys = Array.length p.key_pos in
    if nkeys > 0 then begin
      let key_ids = Array.make nkeys 0 in
      let consts_known = ref true in
      Array.iteri
        (fun k src ->
          match src with
          | K c ->
            let id = Column_store.find_id cs p.key_pos.(k) c in
            if id < 0 then consts_known := false else key_ids.(k) <- id
          | S _ -> ())
        p.key_src;
      let probe = ref None in
      (* Sibling frontier rows share their parent's values physically, so
         a key value identical to the last one encoded reuses its id. *)
      let last = Array.make nkeys Value.Null and last_id = Array.make nkeys (-2) in
      if !consts_known then
        for i = 0 to cur.len - 1 do
          let ok = ref true and k = ref 0 in
          while !ok && !k < nkeys do
            (match p.key_src.(!k) with
            | K _ -> ()
            | S s ->
              let v = cur.vals.((i * w) + s) in
              let id =
                if v == last.(!k) && last_id.(!k) > -2 then last_id.(!k)
                else begin
                  let id = Column_store.find_id cs p.key_pos.(!k) v in
                  last.(!k) <- v;
                  last_id.(!k) <- id;
                  id
                end
              in
              if id < 0 then ok := false else key_ids.(!k) <- id);
            incr k
          done;
          if !ok then begin
            let pr =
              match !probe with
              | Some pr -> pr
              | None ->
                let pr = Column_store.prepare cs p.key_pos in
                probe := Some pr;
                pr
            in
            parent := i;
            Column_store.iter_probe pr key_ids admit
          end
        done
    end
    else if cur.len = 1 then Column_store.iter_ids cs admit
    else begin
      (* the yielded ids buffer is reused across rows: copy out the scan *)
      let arity = p.arity in
      let rows = ref [||] and n = ref 0 in
      Column_store.iter_ids cs (fun ids _ ->
          if (!n + 1) * arity > Array.length !rows then begin
            let fresh = Array.make (max 64 (2 * Array.length !rows)) 0 in
            Array.blit !rows 0 fresh 0 (!n * arity);
            rows := fresh
          end;
          Array.blit ids 0 !rows (!n * arity) arity;
          incr n);
      let ids = Array.make arity 0 in
      for i = 0 to cur.len - 1 do
        parent := i;
        for r = 0 to !n - 1 do
          Array.blit !rows (r * arity) ids 0 arity;
          admit ids 0
        done
      done
    end
  end

let step_match cur out p source =
  match source with
  | R_view (Whole r) -> col_match out cur p (Relation.store r) None
  | R_view (Patched { base; minus; plus }) ->
    col_match out cur p (Relation.store base) (Some minus);
    if Tuple.Hashtbl.length plus > 0 then begin
      let plus_tuples = Tuple.Hashtbl.fold (fun tup () acc -> tup :: acc) plus [] in
      for i = 0 to cur.len - 1 do
        List.iter (fun tup -> admit_tuple out cur p i tup 1 ~check_keys:true) plus_tuples
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
        match Hashtbl.find_opt idx (probe_key p cur.vals (i * cur.width)) with
        | None -> ()
        | Some matched ->
          List.iter (fun (tup, tc) -> admit_tuple out cur p i tup tc ~check_keys:false) matched
      done
    end
    else
      for i = 0 to cur.len - 1 do
        List.iter (fun (tup, tc) -> admit_tuple out cur p i tup tc ~check_keys:true) entries
      done

let bound_value vals off what s =
  match s with
  | K c -> c
  | S i ->
    let v = vals.(off + i) in
    if Value.equal v Value.Null then invalid_arg ("Plan: " ^ what ^ " on unbound variable")
    else v

let exec t ~resolve ~delta =
  let cur = ref (frontier_create t.nslots) and spare = ref (frontier_create t.nslots) in
  !cur.counts.(0) <- 1;
  !cur.len <- 1;
  Array.iter
    (fun step ->
      if !cur.len > 0 then
        match step with
        | Match p ->
          let source = if p.pos = t.delta_pos then R_delta delta else R_view (resolve p.pos p.pred) in
          let out = !spare in
          out.len <- 0;
          step_match !cur out p source;
          spare := !cur;
          cur := out
        | Reject { pos; pred; args } ->
          let v = resolve pos pred in
          let vals = !cur.vals in
          filter_frontier !cur (fun off ->
              not (view_mem v (Array.map (bound_value vals off "negation") args)))
        | Test { op; a; b } ->
          let vals = !cur.vals in
          filter_frontier !cur (fun off ->
              let va = bound_value vals off "guard" a and vb = bound_value vals off "guard" b in
              match op with
              | Ceq -> Value.equal va vb
              | Cneq -> not (Value.equal va vb)
              | Clt -> Value.compare va vb < 0
              | Cle -> Value.compare va vb <= 0))
    t.steps;
  !cur

(* Head values of row [i] into [buf]. *)
let fill_head t cur i buf =
  let off = i * cur.width in
  Array.iteri
    (fun k s ->
      buf.(k) <-
        (match s with
        | K c -> c
        | S j ->
          let v = cur.vals.(off + j) in
          if Value.equal v Value.Null then
            invalid_arg "Plan: unbound head variable (unsafe rule?)"
          else v))
    t.head

let collect_counted t cur =
  let acc = Tuple.Hashtbl.create (max 16 cur.len) in
  for i = 0 to cur.len - 1 do
    let tup = Array.make (Array.length t.head) Value.Null in
    fill_head t cur i tup;
    let current = try Tuple.Hashtbl.find acc tup with Not_found -> 0 in
    Tuple.Hashtbl.replace acc tup (current + cur.counts.(i))
  done;
  Tuple.Hashtbl.fold (fun tup c out -> if c = 0 then out else (tup, c) :: out) acc []

let full_resolve lookup _ pred = lookup pred

let staged_resolve t ~before ~after pos pred =
  if pos < t.delta_pos then before pred else after pred

let check_full t what =
  if t.delta_pos >= 0 then invalid_arg ("Plan." ^ what ^ ": delta plan (use run_staged)")

let check_staged t what =
  if t.delta_pos < 0 then invalid_arg ("Plan." ^ what ^ ": full plan (use run)")

let run t ~lookup =
  check_full t "run";
  collect_counted t (exec t ~resolve:(full_resolve lookup) ~delta:[])

let iter_heads t ~lookup ~f =
  check_full t "iter_heads";
  let cur = exec t ~resolve:(full_resolve lookup) ~delta:[] in
  let buf = Array.make (Array.length t.head) Value.Null in
  for i = 0 to cur.len - 1 do
    fill_head t cur i buf;
    f buf cur.counts.(i)
  done

let run_staged t ~before ~after ~delta =
  check_staged t "run_staged";
  collect_counted t (exec t ~resolve:(staged_resolve t ~before ~after) ~delta)

let slot t v = Hashtbl.find_opt t.slots v

let yield_rows cur f =
  let w = cur.width in
  let row = Array.make w Value.Null in
  for i = 0 to cur.len - 1 do
    Array.blit cur.vals (i * w) row 0 w;
    f row cur.counts.(i)
  done

let iter_rows t ~lookup ~f =
  check_full t "iter_rows";
  yield_rows (exec t ~resolve:(full_resolve lookup) ~delta:[]) f

let iter_rows_staged t ~before ~after ~delta ~f =
  check_staged t "iter_rows_staged";
  yield_rows (exec t ~resolve:(staged_resolve t ~before ~after) ~delta) f

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
