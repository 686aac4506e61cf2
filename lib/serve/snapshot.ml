(* Immutable published snapshot: everything the read side serves, built
   on the writer's domain and then shared read-only.  All indexes are
   precomputed here so reader queries are hash/array lookups with no
   locking; the marginals CRC gives tests a way to prove a concurrent
   read was not torn (a correctly published snapshot can never fail it —
   the value is computed over the same immutable arrays readers see).

   The work splits in two.  The layout holds what depends only on which
   variables exist and what they name; it carries from one snapshot to
   the next while the grounding only grows, and an extension copies
   every array it changes.  The per-epoch part reads every marginal and
   evidence flag, makes each fact (sharing those that did not move),
   orders on unboxed floats and ints, and fills the per-relation orders
   and entity postings as fresh int arrays. *)

module Tuple = Dd_relational.Tuple
module Value = Dd_relational.Value
module Graph = Dd_fgraph.Graph
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Calibration = Dd_kbc.Calibration
module Crc32 = Dd_util.Crc32

type fact = {
  relation : string;
  tuple : Tuple.t;
  probability : float;
  calibrated : float;
  evidence : bool;
}

(* --- layout: what carries across epochs ----------------------------------- *)

(* Per-variable arrays are indexed by variable id, [0, n); a variable's
   relation and tuple live in its fact.  Both hash tables are open
   addressing with linear probing, at most half full, [-1] marking an
   empty slot. *)
type layout = {
  last : string * Tuple.t;  (* [Grounding.origin] of var n - 1, the same pair *)
  rel : int array;  (* var -> relation id *)
  rel_names : string array;  (* relation id -> name, first seen first *)
  rel_size : int array;  (* relation id -> its variable count *)
  hash : int array;  (* var -> [Tuple.hash] of its tuple *)
  by_name : int array;  (* vars in (relation, tuple) order *)
  slots : int array;  (* point index: var ids placed by [hash] *)
  val_off : int array;  (* var v's values: [vals.(val_off.(v)) .. vals.(val_off.(v + 1) - 1)] *)
  vals : int array;  (* the distinct string values of each var's tuple, as value ids *)
  val_names : string array;  (* value id -> string *)
  val_hash : int array;  (* value id -> [Hashtbl.hash] of its string *)
  val_slots : int array;  (* entity index: value ids placed by [val_hash] *)
  post_off : int array;  (* value id -> first of its postings; one past the end last *)
}

let empty_layout =
  {
    last = ("", [||]);
    rel = [||];
    rel_names = [||];
    rel_size = [||];
    hash = [||];
    by_name = [||];
    slots = Array.make 2 (-1);
    val_off = [| 0 |];
    vals = [||];
    val_names = [||];
    val_hash = [||];
    val_slots = Array.make 2 (-1);
    post_off = [| 0 |];
  }

let insert_slot slots hashes id =
  let mask = Array.length slots - 1 in
  let i = ref (hashes.(id) land mask) in
  while slots.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- id

(* A fresh table holding ids [0, upto), with room for [room] ids at most
   half full: a copy of [old] (which holds [0, from)) when that fits,
   else a larger one. *)
let grow_slots ?room old hashes ~from ~upto =
  let room = Option.value room ~default:upto in
  if 2 * room <= Array.length old then begin
    let slots = Array.copy old in
    for id = from to upto - 1 do
      insert_slot slots hashes id
    done;
    slots
  end
  else begin
    let cap = ref 8 in
    while !cap < 2 * room do
      cap := 2 * !cap
    done;
    let slots = Array.make !cap (-1) in
    for id = 0 to upto - 1 do
      insert_slot slots hashes id
    done;
    slots
  end

(* The id of string value [s], or -1.  Loops here and in [find_var] are
   [while] loops: a local recursive probe would allocate a closure per
   query. *)
let find_value l s =
  let h = Hashtbl.hash s in
  let slots = l.val_slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while
    let id = Array.unsafe_get slots !i in
    id >= 0 && not (l.val_hash.(id) = h && String.equal l.val_names.(id) s)
  do
    i := (!i + 1) land mask
  done;
  Array.unsafe_get slots !i

(* [l] extended by the grounding's variables [n_old, n), n > n_old: new
   arrays throughout, [l] untouched. *)
let extend l grounding n =
  let n_old = Array.length l.rel in
  let fresh = Array.init (n - n_old) (fun i -> Grounding.origin grounding (n_old + i)) in
  (* Relations: a handful, interned by name. *)
  let rel_names = ref l.rel_names in
  let rel_of name =
    let names = !rel_names in
    let rec find i =
      if i = Array.length names then begin
        rel_names := Array.append names [| name |];
        i
      end
      else if String.equal names.(i) name then i
      else find (i + 1)
    in
    find 0
  in
  let rel = Array.append l.rel (Array.map (fun (name, _) -> rel_of name) fresh) in
  let rel_names = !rel_names in
  let rel_size = Array.make (Array.length rel_names) 0 in
  Array.blit l.rel_size 0 rel_size 0 (Array.length l.rel_size);
  for v = n_old to n - 1 do
    rel_size.(rel.(v)) <- rel_size.(rel.(v)) + 1
  done;
  let hash = Array.append l.hash (Array.map (fun (_, tuple) -> Tuple.hash tuple) fresh) in
  (* Name order, the oracle's tie-break (relation, then tuple): sort the
     new variables, then merge them in, each at the first old variable
     named after it. *)
  let name v = if v >= n_old then fresh.(v - n_old) else Grounding.origin grounding v in
  let cmp a b =
    let ra, ta = name a and rb, tb = name b in
    match String.compare ra rb with 0 -> Tuple.compare ta tb | c -> c
  in
  let added = Array.init (n - n_old) (fun i -> n_old + i) in
  Array.sort cmp added;
  let by_name = Array.make n 0 in
  let j = ref 0 and w = ref 0 in
  Array.iter
    (fun v ->
      let lo = ref !j and hi = ref n_old in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp l.by_name.(mid) v < 0 then lo := mid + 1 else hi := mid
      done;
      Array.blit l.by_name !j by_name !w (!lo - !j);
      w := !w + (!lo - !j);
      j := !lo;
      by_name.(!w) <- v;
      incr w)
    added;
  Array.blit l.by_name !j by_name !w (n_old - !j);
  let slots = grow_slots l.slots hash ~from:n_old ~upto:n in
  (* String values: the distinct ones of each new tuple, interned straight
     into a copy of the entity table with room for every value the new
     tuples could add. *)
  let nvals_old = Array.length l.val_names in
  let room = Array.fold_left (fun acc (_, tuple) -> acc + Array.length tuple) nvals_old fresh in
  let val_hash = Array.make room 0 and val_names = Array.make room "" in
  Array.blit l.val_hash 0 val_hash 0 nvals_old;
  Array.blit l.val_names 0 val_names 0 nvals_old;
  let val_slots = grow_slots ~room l.val_slots val_hash ~from:nvals_old ~upto:nvals_old in
  let mask = Array.length val_slots - 1 and nvals = ref nvals_old in
  let intern s =
    let h = Hashtbl.hash s in
    let i = ref (h land mask) in
    while
      let id = val_slots.(!i) in
      id >= 0 && not (val_hash.(id) = h && String.equal val_names.(id) s)
    do
      i := (!i + 1) land mask
    done;
    if val_slots.(!i) >= 0 then val_slots.(!i)
    else begin
      let id = !nvals in
      incr nvals;
      val_hash.(id) <- h;
      val_names.(id) <- s;
      val_slots.(!i) <- id;
      id
    end
  in
  let val_off = Array.make (n + 1) 0 in
  Array.blit l.val_off 0 val_off 0 (n_old + 1);
  let new_vals = Array.make (room - nvals_old) 0 and k = ref 0 in
  Array.iteri
    (fun i (_, tuple) ->
      let start = !k in
      Array.iter
        (function
          | Value.Str s ->
            let id = intern s in
            let j = ref start in
            while !j < !k && new_vals.(!j) <> id do
              incr j
            done;
            if !j = !k then begin
              new_vals.(!k) <- id;
              incr k
            end
          | _ -> ())
        tuple;
      val_off.(n_old + i + 1) <- val_off.(n_old + i) + (!k - start))
    fresh;
  let new_vals = Array.sub new_vals 0 !k in
  let vals = Array.append l.vals new_vals in
  let nvals = !nvals in
  let val_names = Array.sub val_names 0 nvals and val_hash = Array.sub val_hash 0 nvals in
  (* Postings per value, counted: old counts plus the new mentions. *)
  let post_off = Array.make (nvals + 1) 0 in
  for id = 0 to nvals_old - 1 do
    post_off.(id + 1) <- l.post_off.(id + 1) - l.post_off.(id)
  done;
  Array.iter (fun id -> post_off.(id + 1) <- post_off.(id + 1) + 1) new_vals;
  for id = 1 to nvals do
    post_off.(id) <- post_off.(id) + post_off.(id - 1)
  done;
  {
    last = fresh.(n - n_old - 1);
    rel;
    rel_names;
    rel_size;
    hash;
    by_name;
    slots;
    val_off;
    vals;
    val_names;
    val_hash;
    val_slots;
    post_off;
  }

(* Whether [grounding] is [l]'s grounding grown.  Origin pairs are
   allocated when a variable is created, so a new grounding (a new
   engine, the Rerun rung's rebuild, a reground after [needs_rebuild], a
   recovered engine) shares none of [l]'s.  Within one grounding,
   [Grounding.rollback] removes a suffix of variable ids and a later
   update may re-create them with other tuples, as new pairs: so the last
   variable of [l] still holding its pair proves every earlier one does. *)
let extends l grounding =
  let n_old = Array.length l.rel in
  n_old = 0
  || n_old <= Graph.num_vars (Grounding.graph grounding)
     &&
     match Grounding.origin grounding (n_old - 1) with
     | pair -> pair == l.last
     | exception Not_found -> false

(* [l], which [grounding] extends, covering all of its variables. *)
let grow l grounding =
  let n = Graph.num_vars (Grounding.graph grounding) in
  if n = Array.length l.rel then l else extend l grounding n

(* --- per epoch ------------------------------------------------------------- *)

type t = {
  epoch : int;
  txn_seq : int;
  published_s : float;
  layout : layout;
  by_var : fact array;  (* var -> its fact *)
  order : int array;  (* vars by probability desc, then (relation, tuple) asc *)
  by_relation : int array array;  (* relation id -> its vars, same order *)
  postings : int array;  (* per value id (from [post_off]), its facts' vars, best first *)
  calibration : Calibration.report option;
  buckets : Calibration.bucket array;  (* [||] without truth *)
  marginals : float array;
  marginals_crc : Crc32.t;
}

(* Total deterministic order: ties in probability break on name so two
   builds of the same engine state produce identical arrays.  Only
   [verify] runs it; a build orders on the layout's name order. *)
let order a b =
  match compare b.probability a.probability with
  | 0 -> (
    match compare a.relation b.relation with
    | 0 -> Tuple.compare a.tuple b.tuple
    | c -> c)
  | c -> c

(* [x] strictly before [y] in descending [Float.compare] order (that is
   polymorphic compare on floats, NaN lowest), in inline float tests. *)
let[@inline] before (x : float) y = x > y || (y <> y && x = x)

(* Stable sort of the var ids [src] by descending [p], so equal
   probabilities keep [src]'s order.  Insertion-sorted runs of 16, then
   bottom-up merges that copy a pair of runs already in order. *)
let sort_by_probability p src =
  let n = Array.length src in
  let a = Array.copy src in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + 16) in
    for i = !lo + 1 to hi - 1 do
      let v = a.(i) in
      let pv = p.(v) in
      let j = ref (i - 1) in
      while !j >= !lo && before pv p.(a.(!j)) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done;
    lo := hi
  done;
  let src = ref a and dst = ref (Array.make n 0) and width = ref 16 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      if mid = hi || not (before p.(s.(mid)) p.(s.(mid - 1))) then Array.blit s !lo d !lo (hi - !lo)
      else begin
        let i = ref !lo and j = ref mid and k = ref !lo in
        while !i < mid && !j < hi do
          if before p.(s.(!j)) p.(s.(!i)) then begin
            d.(!k) <- s.(!j);
            incr j
          end
          else begin
            d.(!k) <- s.(!i);
            incr i
          end;
          incr k
        done;
        if !i < mid then Array.blit s !i d !k (mid - !i) else Array.blit s !j d !k (hi - !j)
      end;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

let marginals_digest marginals = Crc32.string (Marshal.to_string (marginals : float array) [])

let[@inline] same_bits (a : float) b = Int64.bits_of_float a = Int64.bits_of_float b

(* [reuse] is the previous snapshot's [by_var] over a prefix of the same
   layout: a fact whose fields come out bit for bit the same is shared
   (facts are immutable), which spares the allocation, and a new fact
   takes its name from the old one.  Only variables the previous
   snapshot did not serve are looked up in the grounding. *)
let publish ~bins ?truth ?(reuse = [||]) ~epoch ~txn_seq l engine =
  let grounding = Engine.grounding engine in
  let g = Grounding.graph grounding in
  let marginals = Array.copy (Engine.marginals engine) in
  let calibration =
    Option.map (fun truth -> Calibration.evaluate ~bins grounding marginals ~truth) truth
  in
  let buckets =
    match calibration with
    | Some report -> Array.of_list report.Calibration.buckets
    | None -> [||]
  in
  let nb = Array.length buckets in
  let n = Array.length l.rel in
  let kept = Array.length reuse in
  let fact v =
    let probability = marginals.(v) in
    let calibrated =
      if nb = 0 then probability
      else
        let bucket = buckets.(min (nb - 1) (max 0 (int_of_float (probability *. float_of_int nb)))) in
        if bucket.Calibration.count = 0 then probability else bucket.Calibration.empirical_precision
    in
    let evidence = match Graph.evidence_of g v with Graph.Query -> false | Graph.Evidence _ -> true in
    if
      v < kept
      &&
      let f = reuse.(v) in
      same_bits f.probability probability && same_bits f.calibrated calibrated && f.evidence = evidence
    then reuse.(v)
    else
      let relation, tuple =
        if v < kept then (reuse.(v).relation, reuse.(v).tuple) else Grounding.origin grounding v
      in
      { relation; tuple; probability; calibrated; evidence }
  in
  let by_var = Array.init n fact in
  let order = sort_by_probability marginals l.by_name in
  let by_relation = Array.map (fun size -> Array.make size 0) l.rel_size in
  let fill = Array.make (Array.length l.rel_size) 0 in
  let nvals = Array.length l.val_names in
  let cursor = Array.sub l.post_off 0 nvals in
  let postings = Array.make l.post_off.(nvals) 0 in
  Array.iter
    (fun v ->
      let r = l.rel.(v) in
      by_relation.(r).(fill.(r)) <- v;
      fill.(r) <- fill.(r) + 1;
      for j = l.val_off.(v) to l.val_off.(v + 1) - 1 do
        let id = l.vals.(j) in
        postings.(cursor.(id)) <- v;
        cursor.(id) <- cursor.(id) + 1
      done)
    order;
  {
    epoch;
    txn_seq;
    published_s = Unix.gettimeofday ();
    layout = l;
    by_var;
    order;
    by_relation;
    postings;
    calibration;
    buckets;
    marginals;
    marginals_crc = marginals_digest marginals;
  }

let build ?(bins = 10) ?truth ~epoch ~txn_seq engine =
  publish ~bins ?truth ~epoch ~txn_seq (grow empty_layout (Engine.grounding engine)) engine

let next ?(bins = 10) ?truth prev ~epoch ~txn_seq engine =
  let grounding = Engine.grounding engine in
  if extends prev.layout grounding then
    publish ~bins ?truth ~reuse:prev.by_var ~epoch ~txn_seq (grow prev.layout grounding) engine
  else build ~bins ?truth ~epoch ~txn_seq engine

let epoch t = t.epoch

let txn_seq t = t.txn_seq

let published_s t = t.published_s

let num_facts t = Array.length t.order

let relations t = List.sort String.compare (Array.to_list t.layout.rel_names)

let marginals t = Array.copy t.marginals

let relation_id t relation =
  let names = t.layout.rel_names in
  let r = ref 0 in
  while !r < Array.length names && not (String.equal names.(!r) relation) do
    incr r
  done;
  if !r < Array.length names then !r else -1

(* One hash of the probe tuple, then the slots from its home on: the
   var of the fact at (relation, tuple), or -1. *)
let find_var t ~relation tuple =
  let l = t.layout in
  let h = Tuple.hash tuple in
  let slots = l.slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while
    let v = Array.unsafe_get slots !i in
    v >= 0
    &&
    let f = t.by_var.(v) in
    not (l.hash.(v) = h && String.equal f.relation relation && Tuple.equal f.tuple tuple)
  do
    i := (!i + 1) land mask
  done;
  Array.unsafe_get slots !i

let lookup t ~relation tuple =
  match find_var t ~relation tuple with -1 -> None | v -> Some t.by_var.(v)

(* The vars of one relation, or of all, most probable first. *)
let pool t = function
  | Some relation -> (
    match relation_id t relation with -1 -> [||] | r -> t.by_relation.(r))
  | None -> t.order

let relation_facts t relation = Array.map (fun v -> t.by_var.(v)) (pool t (Some relation))

let prefix t vars n =
  let n = min n (Array.length vars) in
  List.init n (fun i -> t.by_var.(vars.(i)))

let top_k t ?relation k = prefix t (pool t relation) (max 0 k)

(* First index whose probability drops below [threshold] in a
   descending-sorted array — the count of facts at or above it. *)
let cut t vars threshold =
  let lo = ref 0 and hi = ref (Array.length vars) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.by_var.(vars.(mid)).probability >= threshold then lo := mid + 1 else hi := mid
  done;
  !lo

let count_above t ?relation threshold = cut t (pool t relation) threshold

let entity_facts t value =
  let l = t.layout in
  match find_value l value with
  | -1 -> []
  | id ->
    let acc = ref [] in
    for i = l.post_off.(id + 1) - 1 downto l.post_off.(id) do
      acc := t.by_var.(t.postings.(i)) :: !acc
    done;
    !acc

let calibration t = t.calibration

let calibrated_bucket t p =
  let n = Array.length t.buckets in
  if n = 0 then None else Some t.buckets.(min (n - 1) (max 0 (int_of_float (p *. float_of_int n))))

(* --- integrity audit -------------------------------------------------------- *)

let verify t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  let first_error n check =
    let rec go i = if i = n then Ok () else match check i with Ok () -> go (i + 1) | e -> e in
    go 0
  in
  let l = t.layout in
  let n = Array.length t.order in
  let nvals = Array.length l.val_names in
  let* () = if t.epoch >= 1 then Ok () else fail "epoch %d < 1" t.epoch in
  let* () = if t.txn_seq >= 0 then Ok () else fail "txn_seq %d < 0" t.txn_seq in
  let* () =
    if
      Array.length t.by_var = n
      && Array.for_all (fun v -> v >= 0 && v < n) t.order
      && Array.length l.rel = n
      && Array.length l.hash = n
      && Array.length l.by_name = n
      && Array.length l.val_off = n + 1
      && Array.length l.post_off = nvals + 1
      && Array.length l.val_hash = nvals
      && Array.length t.postings = l.post_off.(nvals)
      && Array.length t.by_relation = Array.length l.rel_names
    then Ok ()
    else fail "index arrays do not match %d facts" n
  in
  let facts = Array.map (fun v -> t.by_var.(v)) t.order in
  (* Global sort order and value ranges. *)
  let* () =
    first_error n (fun i ->
        let f = facts.(i) in
        if not (Float.is_finite f.probability && f.probability >= 0.0 && f.probability <= 1.0) then
          fail "fact %d probability %g out of range" i f.probability
        else if not (Float.is_finite f.calibrated && f.calibrated >= 0.0 && f.calibrated <= 1.0)
        then fail "fact %d calibrated %g out of range" i f.calibrated
        else if i > 0 && order facts.(i - 1) f > 0 then fail "facts unsorted at %d" i
        else Ok ())
  in
  (* Per-relation arrays partition the fact list and stay sorted. *)
  let* () =
    let total = Array.fold_left (fun acc arr -> acc + Array.length arr) 0 t.by_relation in
    if total <> n then fail "per-relation arrays hold %d facts, snapshot has %d" total n else Ok ()
  in
  let* () =
    first_error (Array.length t.by_relation) (fun r ->
        let relation = l.rel_names.(r) and arr = Array.map (fun v -> t.by_var.(v)) t.by_relation.(r) in
        first_error (Array.length arr) (fun i ->
            let f = arr.(i) in
            if f.relation <> relation then fail "%s holds a %s fact" relation f.relation
            else if i > 0 && order arr.(i - 1) f > 0 then fail "%s unsorted at %d" relation i
            else Ok ()))
  in
  (* Point lookups and the inverted index find every fact, each fact
     under its own variable. *)
  let pos = Array.make n (-1) in
  let* () =
    first_error n (fun i ->
        let f = facts.(i) in
        match find_var t ~relation:f.relation f.tuple with
        | -1 -> fail "lookup missed %s" (Tuple.to_string f.tuple)
        | v when v <> t.order.(i) -> fail "lookup returned a different fact for %s" (Tuple.to_string f.tuple)
        | v when pos.(v) >= 0 -> fail "facts %d and %d share a variable" pos.(v) i
        | v ->
          pos.(v) <- i;
          first_error (Array.length f.tuple) (fun k ->
              match f.tuple.(k) with
              | Value.Str s when not (List.memq f (entity_facts t s)) -> fail "entity index missed %s" s
              | _ -> Ok ()))
  in
  (* The reverse direction: every point-index entry and every posting
     names a fact of this snapshot, and their counts are what the facts
     imply — one entry per fact, one posting per distinct string value
     of each fact. *)
  let* () =
    let entries = Array.fold_left (fun acc v -> if v >= 0 then acc + 1 else acc) 0 l.slots in
    if entries <> n then fail "point index holds %d entries for %d facts" entries n
    else
      first_error (Array.length l.slots) (fun i ->
          let v = l.slots.(i) in
          if v >= n then fail "point index names variable %d of %d" v n
          else if v >= 0 && pos.(v) < 0 then fail "point index names a fact not served"
          else Ok ())
  in
  let* () =
    let implied =
      Array.fold_left
        (fun acc f ->
          let seen = ref [] in
          Array.iter
            (function
              | Value.Str s when not (List.mem s !seen) -> seen := s :: !seen
              | _ -> ())
            f.tuple;
          acc + List.length !seen)
        0 facts
    in
    let values = Array.fold_left (fun acc id -> if id >= 0 then acc + 1 else acc) 0 l.val_slots in
    if Array.length t.postings <> implied then
      fail "entity index holds %d postings, facts imply %d" (Array.length t.postings) implied
    else if values <> nvals then fail "entity index holds %d values, %d named" values nvals
    else
      first_error nvals (fun id ->
          let s = l.val_names.(id) in
          if find_value l s <> id then fail "entity index misplaces %s" s
          else if l.post_off.(id + 1) <= l.post_off.(id) then fail "entity %s has no posting" s
          else
            first_error (l.post_off.(id + 1) - l.post_off.(id)) (fun k ->
                let i = l.post_off.(id) + k in
                let v = t.postings.(i) in
                if v < 0 || v >= n || pos.(v) < 0 then fail "entity %s names a fact not served" s
                else if not (Array.exists (Value.equal (Value.Str s)) t.by_var.(v).tuple) then
                  fail "entity %s lists a fact without it" s
                else if k > 0 && pos.(t.postings.(i - 1)) >= pos.(v) then
                  fail "entity %s postings out of order" s
                else Ok ()))
  in
  (* Calibration arithmetic. *)
  let* () =
    match t.calibration with
    | None -> if t.buckets = [||] then Ok () else fail "buckets without a calibration report"
    | Some report ->
      let counted =
        List.fold_left (fun acc b -> acc + b.Calibration.count) 0 report.Calibration.buckets
      in
      if counted <> report.Calibration.total then
        fail "calibration buckets count %d, report total %d" counted report.Calibration.total
      else if Array.length t.buckets <> List.length report.Calibration.buckets then
        fail "bucket array does not match report"
      else Ok ()
  in
  (* Torn-read tripwire. *)
  if marginals_digest t.marginals = t.marginals_crc then Ok ()
  else fail "marginals CRC mismatch: torn snapshot"
