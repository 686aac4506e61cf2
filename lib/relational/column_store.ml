(* Columnar, dictionary-encoded storage: per-column append-only value
   dictionaries, a sorted run of flat int-id column vectors, and a mutable
   delta tail merged into the run on demand.  See column_store.mli for the
   layout contract.

   Everything here must stay marshal-safe (no closures, no custom blocks
   beyond stdlib hashtables): checkpoints snapshot whole engines with
   [Marshal], columnar relations included. *)


module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let hash_ids a =
  let h = ref 0 in
  for i = 0 to Array.length a - 1 do
    h := (!h * 486187739) + a.(i)
  done;
  !h land max_int

(* Encoded-tuple hashtable: specialized equality and a cheap multiplicative
   hash over int arrays.  The polymorphic [Hashtbl.hash] walks the array
   generically and dominates probe cost at scale; this is the hot-path
   replacement.  (Functorial hashtables are plain records underneath, so
   these stay marshal-safe.) *)
module IH = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  let hash = hash_ids
end)

(* Open-addressing int -> id map, the dictionary fast path for [Value.Int]
   keys (the dominant column type in KBC workloads: doc/mention/entity
   ids).  Dictionaries are append-only and ids are >= 0, so empty slots
   are marked with value -1, linear probing needs no tombstones, and
   every operation is allocation-free — unlike the bucket cons the
   stdlib hashtable pays per binding, which at 10^7 distinct keys both
   costs allocation and feeds the major GC. *)
module Imap = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array; (* aligned with [keys]; -1 = empty slot *)
    mutable mask : int; (* capacity - 1; capacity is a power of two *)
    mutable used : int;
  }

  let create () =
    { keys = Array.make 16 0; vals = Array.make 16 (-1); mask = 15; used = 0 }

  let length t = t.used
  let slot_hash k = (k * 0x2545F4914F6CDD1D) land max_int

  let find t k =
    let mask = t.mask in
    let i = ref (slot_hash k land mask) in
    let res = ref (-1) in
    let probing = ref true in
    while !probing do
      let v = t.vals.(!i) in
      if v < 0 then probing := false
      else if t.keys.(!i) = k then begin
        res := v;
        probing := false
      end
      else i := (!i + 1) land mask
    done;
    !res

  let place keys vals mask k v =
    let i = ref (slot_hash k land mask) in
    while vals.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    keys.(!i) <- k;
    vals.(!i) <- v

  let grow t =
    let cap = 2 * Array.length t.keys in
    let keys = Array.make cap 0 and vals = Array.make cap (-1) in
    let mask = cap - 1 in
    for i = 0 to Array.length t.keys - 1 do
      if t.vals.(i) >= 0 then place keys vals mask t.keys.(i) t.vals.(i)
    done;
    t.keys <- keys;
    t.vals <- vals;
    t.mask <- mask

  (* Keys are never re-added: callers [find] first. *)
  let add t k v =
    if 2 * (t.used + 1) > Array.length t.keys then grow t;
    place t.keys t.vals t.mask k v;
    t.used <- t.used + 1

  let copy t =
    { keys = Array.copy t.keys; vals = Array.copy t.vals; mask = t.mask; used = t.used }
end

type dict = {
  mutable dvals : Value.t array; (* id -> value; first [dlen] slots live *)
  mutable dlen : int;
  dids : int VH.t; (* value -> id, non-[Int] values only *)
  dints : Imap.t; (* Int value -> id *)
}

type tail_entry = {
  base : int; (* multiplicity in the sorted run; 0 = not a run row *)
  mutable delta : int; (* live count = base + delta; entry dropped at 0 *)
}

type index = {
  key_cols : int array;
  mutable perm : int array; (* run rows sorted by (key projection, row) *)
  mutable perm_rows : int; (* run length when [perm] was built; -1 = stale *)
  (* [offsets.(k) .. offsets.(k+1))] is the perm range whose first key
     column carries id [k], built by a counting pass over the dense
     dictionary; [[||]] until built (see [refresh_perm]). *)
  mutable offsets : int array;
  (* key ids -> tail-resident tuples with base = 0 carrying that key.  Run
     rows overridden by the tail (base > 0) are filtered during the range
     walk instead, so the two probe phases never yield the same tuple. *)
  tails : int array list ref IH.t;
}

type t = {
  cs_schema : Schema.t;
  cs_arity : int;
  dicts : dict array;
  mutable cols : int array array; (* [cs_arity] vectors of length [rlen] *)
  mutable counts : int array;
  mutable rlen : int;
  tail : tail_entry IH.t;
  (* Number of tail entries with base > 0, i.e. run rows whose multiplicity
     the tail overrides.  When 0 — the common state right after a bulk load
     or a compaction — run walks skip the per-row tail lookup entirely. *)
  mutable run_overrides : int;
  (* Two-probe Bloom bitset over the run's encoded rows (~16 bits/row, 32
     bits used per int slot), rebuilt on every compaction.  A negative
     answer proves a tuple is not in the run, so inserting a fresh tuple —
     the dominant mutation while deriving — skips the binary search; a
     false positive just falls back to it.  [[||]] iff the run is empty. *)
  mutable run_filter : int array;
  indexes : index IH.t;
  mutable card : int;
  mutable total : int;
}

let create schema =
  let arity = Schema.arity schema in
  {
    cs_schema = schema;
    cs_arity = arity;
    dicts =
      Array.init arity (fun _ ->
          { dvals = [||]; dlen = 0; dids = VH.create 64; dints = Imap.create () });
    cols = Array.make arity [||];
    counts = [||];
    rlen = 0;
    tail = IH.create 64;
    run_overrides = 0;
    run_filter = [||];
    indexes = IH.create 4;
    card = 0;
    total = 0;
  }

let arity t = t.cs_arity
let cardinality t = t.card
let total_count t = t.total
let run_rows t = t.rlen
(* --- dictionaries ------------------------------------------------------- *)

let dict_append d v =
  let id = d.dlen in
  if id >= Array.length d.dvals then begin
    let cap = max 8 (2 * Array.length d.dvals) in
    let fresh = Array.make cap Value.Null in
    Array.blit d.dvals 0 fresh 0 id;
    d.dvals <- fresh
  end;
  d.dvals.(id) <- v;
  d.dlen <- id + 1;
  id

let intern d v =
  match v with
  | Value.Int k ->
    let id = Imap.find d.dints k in
    if id >= 0 then id
    else begin
      let id = dict_append d v in
      Imap.add d.dints k id;
      id
    end
  | _ -> (
    match VH.find_opt d.dids v with
    | Some id -> id
    | None ->
      let id = dict_append d v in
      VH.replace d.dids v id;
      id)

(* Non-interning lookup: the id, or -1 when the value was never seen.
   Allocation-free: a probe pays no [Some] box per key. *)
let dict_find_raw d v =
  match v with
  | Value.Int k -> Imap.find d.dints k
  | _ -> ( try VH.find d.dids v with Not_found -> -1)

let dict_size t c = t.dicts.(c).dlen

let dict_value t c id =
  let d = t.dicts.(c) in
  if id < 0 || id >= d.dlen then
    invalid_arg (Printf.sprintf "Column_store.dict_value: id %d/%d" id d.dlen);
  d.dvals.(id)

let find_id t c v = dict_find_raw t.dicts.(c) v

let encode_tuple t tup =
  let n = Array.length tup in
  if n <> t.cs_arity then None
  else begin
    let ids = Array.make n 0 in
    let ok = ref true in
    let c = ref 0 in
    while !ok && !c < n do
      let id = dict_find_raw t.dicts.(!c) tup.(!c) in
      if id >= 0 then ids.(!c) <- id else ok := false;
      incr c
    done;
    if !ok then Some ids else None
  end

let decode t ids = Array.mapi (fun c id -> dict_value t c id) ids

(* --- run primitives ----------------------------------------------------- *)

(* The compares below are plain loops over local refs: a local recursive
   helper would allocate a closure per call, and they sit on every probe,
   insert and sort. *)
let cmp_ids (a : int array) (b : int array) =
  let n = Array.length a in
  let c = ref 0 and i = ref 0 in
  while !c = 0 && !i < n do
    let x = a.(!i) and y = b.(!i) in
    if x < y then c := -1 else if x > y then c := 1;
    incr i
  done;
  !c

(* Lexicographic compare of row [a] of id columns [cols] against row [b]
   of [cols'] (the same columns, or another set of the same width). *)
let cmp_col_rows (cols : int array array) a (cols' : int array array) b =
  let n = Array.length cols in
  let c = ref 0 and i = ref 0 in
  while !c = 0 && !i < n do
    let x = cols.(!i).(a) and y = cols'.(!i).(b) in
    if x < y then c := -1 else if x > y then c := 1;
    incr i
  done;
  !c

(* Lexicographic compare of run row [row] against an encoded tuple. *)
let cmp_row_ids t row (ids : int array) =
  let c = ref 0 and i = ref 0 in
  while !c = 0 && !i < t.cs_arity do
    let x = t.cols.(!i).(row) and y = ids.(!i) in
    if x < y then c := -1 else if x > y then c := 1;
    incr i
  done;
  !c

let cmp_rows t a b = cmp_col_rows t.cols a t.cols b

(* Stable sort of rows [0, n) of the id columns [cols] (most significant
   first), as a permutation.  Dictionary ids are dense, so an LSD counting
   sort over the column domains ([spans.(k)] = column [k]'s dictionary
   size) needs no comparisons; when the dictionaries vastly outnumber the
   rows (the counting arrays would dominate) a closure-free merge sort
   takes over.  Both are stable, so rows with equal ids keep their order. *)
let sort_perm (cols : int array array) (spans : int array) n =
  let span = Array.fold_left ( + ) 0 spans in
  let src = ref (Array.init n (fun k -> k)) in
  let dst = ref (Array.make n 0) in
  if span <= 8 * n then
    for c = Array.length cols - 1 downto 0 do
      let col = cols.(c) in
      let dlen = spans.(c) in
      let counts = Array.make (dlen + 1) 0 in
      for k = 0 to n - 1 do
        counts.(col.(k) + 1) <- counts.(col.(k) + 1) + 1
      done;
      for d = 1 to dlen do
        counts.(d) <- counts.(d) + counts.(d - 1)
      done;
      let s = !src and d = !dst in
      for k = 0 to n - 1 do
        let row = s.(k) in
        let key = col.(row) in
        d.(counts.(key)) <- row;
        counts.(key) <- counts.(key) + 1
      done;
      src := d;
      dst := s
    done
  else begin
    (* bottom-up merge sort: runs of [width] rows, doubled per pass *)
    let width = ref 1 in
    while !width < n do
      let s = !src and d = !dst in
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        let hi = min n (mid + !width) in
        let i = ref !lo and j = ref mid and o = ref !lo in
        while !o < hi do
          if !j >= hi || (!i < mid && cmp_col_rows cols s.(!i) cols s.(!j) <= 0) then begin
            d.(!o) <- s.(!i);
            incr i
          end
          else begin
            d.(!o) <- s.(!j);
            incr j
          end;
          incr o
        done;
        lo := hi
      done;
      src := d;
      dst := s;
      width := 2 * !width
    done
  end;
  !src

(* Binary search for an encoded tuple among the (unique, sorted) run rows. *)
let find_run t ids =
  let lo = ref 0 and hi = ref t.rlen and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = cmp_row_ids t mid ids in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid
  done;
  !found

let filter_add f mask h =
  let set b = f.(b lsr 5) <- f.(b lsr 5) lor (1 lsl (b land 31)) in
  set (h land mask);
  set (h * 0x9e3779b1 land mask)

let filter_mem f mask h =
  let get b = f.(b lsr 5) land (1 lsl (b land 31)) <> 0 in
  get (h land mask) && get (h * 0x9e3779b1 land mask)

let rebuild_filter t =
  if t.rlen = 0 then t.run_filter <- [||]
  else begin
    let rec pow2 n = if n >= 16 * t.rlen then n else pow2 (2 * n) in
    let nbits = pow2 1024 in
    let f = Array.make (nbits / 32) 0 in
    let mask = nbits - 1 in
    let scratch = Array.make t.cs_arity 0 in
    for row = 0 to t.rlen - 1 do
      for c = 0 to t.cs_arity - 1 do
        scratch.(c) <- t.cols.(c).(row)
      done;
      filter_add f mask (hash_ids scratch)
    done;
    t.run_filter <- f
  end

let base_of t ids =
  if t.rlen = 0 then 0
  else if
    Array.length t.run_filter > 0
    && not
         (filter_mem t.run_filter
            ((Array.length t.run_filter * 32) - 1)
            (hash_ids ids))
  then 0
  else match find_run t ids with -1 -> 0 | row -> t.counts.(row)

let decode_row t row =
  Array.init t.cs_arity (fun c -> t.dicts.(c).dvals.(t.cols.(c).(row)))

(* --- per-index tail buckets --------------------------------------------- *)

let project_ids ids key_cols = Array.map (fun c -> ids.(c)) key_cols

let index_tail_add idx ids =
  let key = project_ids ids idx.key_cols in
  match IH.find_opt idx.tails key with
  | Some l -> l := ids :: !l
  | None -> IH.replace idx.tails key (ref [ ids ])

let index_tail_remove idx ids =
  let key = project_ids ids idx.key_cols in
  match IH.find_opt idx.tails key with
  | None -> ()
  | Some l -> (
    match List.filter (fun o -> cmp_ids o ids <> 0) !l with
    | [] -> IH.remove idx.tails key
    | rest -> l := rest)

let tails_add t ids = IH.iter (fun _ idx -> index_tail_add idx ids) t.indexes

let tails_remove t ids =
  IH.iter (fun _ idx -> index_tail_remove idx ids) t.indexes

(* --- compaction --------------------------------------------------------- *)

let compact t =
  let nt = IH.length t.tail in
  if nt > 0 && t.cs_arity > 0 then begin
    (* Gather the tail into packed column vectors so sorting and merging
       touch flat int arrays, not boxed (ids, entry) pairs. *)
    let tcols = Array.init t.cs_arity (fun _ -> Array.make nt 0) in
    let tnet = Array.make nt 0 in
    let j = ref 0 in
    IH.iter
      (fun ids e ->
        for c = 0 to t.cs_arity - 1 do
          tcols.(c).(!j) <- ids.(c)
        done;
        tnet.(!j) <- e.base + e.delta;
        incr j)
      t.tail;
    let perm = sort_perm tcols (Array.map (fun d -> d.dlen) t.dicts) nt in
    (* The filter grows incrementally when it still has headroom for the
       merged run; otherwise it is rebuilt (resized) after the merge. *)
    let incr_filter =
      Array.length t.run_filter > 0
      && Array.length t.run_filter * 32 >= 16 * (t.rlen + nt)
    in
    let fmask = (Array.length t.run_filter * 32) - 1 in
    let hash_tail k =
      let h = ref 0 in
      for c = 0 to t.cs_arity - 1 do
        h := (!h * 486187739) + tcols.(c).(k)
      done;
      !h land max_int
    in
    let cap = t.rlen + nt in
    let out_cols = Array.init t.cs_arity (fun _ -> Array.make (max cap 1) 0) in
    let out_counts = Array.make (max cap 1) 0 in
    let out = ref 0 in
    let emit_run row =
      for c = 0 to t.cs_arity - 1 do
        out_cols.(c).(!out) <- t.cols.(c).(row)
      done;
      out_counts.(!out) <- t.counts.(row);
      incr out
    in
    let emit_tail k =
      if tnet.(k) > 0 then begin
        for c = 0 to t.cs_arity - 1 do
          out_cols.(c).(!out) <- tcols.(c).(k)
        done;
        out_counts.(!out) <- tnet.(k);
        if incr_filter then filter_add t.run_filter fmask (hash_tail k);
        incr out
      end
    in
    let i = ref 0 and j = ref 0 in
    while !i < t.rlen && !j < nt do
      let k = perm.(!j) in
      let c = cmp_col_rows t.cols !i tcols k in
      if c < 0 then begin
        emit_run !i;
        incr i
      end
      else if c > 0 then begin
        emit_tail k;
        incr j
      end
      else begin
        (* tail entry overrides this run row *)
        emit_tail k;
        incr i;
        incr j
      end
    done;
    while !i < t.rlen do
      emit_run !i;
      incr i
    done;
    while !j < nt do
      emit_tail perm.(!j);
      incr j
    done;
    let n = !out in
    t.cols <- Array.map (fun col -> Array.sub col 0 n) out_cols;
    t.counts <- Array.sub out_counts 0 n;
    t.rlen <- n;
    IH.reset t.tail;
    t.run_overrides <- 0;
    (* An emptied run must drop its filter too: the incremental path only
       ever adds bits, and the audit requires [[||]] for an empty run. *)
    if (not incr_filter) || n = 0 then rebuild_filter t;
    IH.iter
      (fun _ idx ->
        idx.perm_rows <- -1;
        IH.reset idx.tails)
      t.indexes
  end

(* Factor-2 run growth: total merge work stays O(n) across a load and the
   tail hashtable is bounded by the run's row count. *)
let tail_threshold t = max 1024 t.rlen

let maybe_compact t =
  if IH.length t.tail > tail_threshold t then compact t

(* --- mutation ----------------------------------------------------------- *)

(* Single mutation funnel: set the live multiplicity of [ids] to
   [f prev] (clamped at 0), notifying [notify prev] before any change.
   Returns the previous multiplicity. *)
let change ?notify t ids ~f =
  let entry = IH.find_opt t.tail ids in
  let e =
    match entry with
    | Some e -> e
    | None -> { base = base_of t ids; delta = 0 }
  in
  let prev = e.base + e.delta in
  let target = max 0 (f prev) in
  (match notify with None -> () | Some g -> g prev);
  if target <> prev then begin
    t.total <- t.total + target - prev;
    if prev = 0 && target > 0 then t.card <- t.card + 1
    else if prev > 0 && target = 0 then t.card <- t.card - 1;
    let ndelta = target - e.base in
    if ndelta = 0 then begin
      (* back to the run's own multiplicity: drop the tail entry *)
      if entry <> None then begin
        IH.remove t.tail ids;
        if e.base = 0 then tails_remove t ids
        else t.run_overrides <- t.run_overrides - 1
      end
    end
    else begin
      e.delta <- ndelta;
      if entry = None then begin
        let key = Array.copy ids in
        IH.replace t.tail key e;
        if e.base = 0 then tails_add t key
        else t.run_overrides <- t.run_overrides + 1
      end
    end;
    maybe_compact t
  end;
  prev

let encode_intern t tup =
  let n = t.cs_arity in
  let ids = Array.make n 0 in
  for c = 0 to n - 1 do
    ids.(c) <- intern t.dicts.(c) tup.(c)
  done;
  ids

(* [change] specialized to "add [count] derivations" — the grounding hot
   path — so no per-call closure is built.  Takes ownership of [ids]
   (callers pass a freshly encoded array, never a scratch buffer). *)
let add_ids ?notify t ids count =
  let entry = IH.find_opt t.tail ids in
  let e =
    match entry with
    | Some e -> e
    | None -> { base = base_of t ids; delta = 0 }
  in
  let prev = e.base + e.delta in
  (match notify with None -> () | Some g -> g prev);
  t.total <- t.total + count;
  if prev = 0 then t.card <- t.card + 1;
  e.delta <- e.delta + count;
  (match entry with
  | None ->
    IH.replace t.tail ids e;
    if e.base = 0 then tails_add t ids
    else t.run_overrides <- t.run_overrides + 1;
    maybe_compact t
  | Some _ ->
    if e.delta = 0 then begin
      (* back to the run's own multiplicity (the tuple had been removed
         below it): drop the override *)
      IH.remove t.tail ids;
      if e.base = 0 then tails_remove t ids
      else t.run_overrides <- t.run_overrides - 1
    end);
  prev

let insert_prev ?(count = 1) ?notify t tup =
  let ids = encode_intern t tup in
  add_ids ?notify t ids count

let remove ?(count = 1) ?notify t tup =
  match encode_tuple t tup with
  | None -> 0
  | Some ids ->
    let prev = change ?notify t ids ~f:(fun prev -> prev - min count prev) in
    min count prev

let delete_all ?notify t tup =
  match encode_tuple t tup with
  | None -> ()
  | Some ids -> ignore (change ?notify t ids ~f:(fun _ -> 0))

let restore_count t tup target =
  if target <= 0 then
    match encode_tuple t tup with
    | None -> ()
    | Some ids -> ignore (change t ids ~f:(fun _ -> 0))
  else
    let ids = encode_intern t tup in
    ignore (change t ids ~f:(fun _ -> target))

(* --- bulk load ----------------------------------------------------------- *)

(* A whole batch of tuples written as one sorted run: rows are encoded
   (interning, in arrival order) into growable id columns, sorted once by
   [sort_perm], and equal rows merged with their counts summed.  Into an
   empty store the result becomes the run directly, with no tail entry,
   hashtable bucket or factor-2 compaction on the way. *)
type loader = {
  lstore : t;
  mutable lcols : int array array; (* [cs_arity] id columns, first [ln] rows live *)
  mutable lcounts : int array;
  mutable ln : int;
}

let loader t =
  {
    lstore = t;
    lcols = Array.init t.cs_arity (fun _ -> Array.make 64 0);
    lcounts = Array.make 64 0;
    ln = 0;
  }

let load l count tup =
  let t = l.lstore in
  if l.ln = Array.length l.lcounts then begin
    let cap = 2 * l.ln in
    let grow a =
      let fresh = Array.make cap 0 in
      Array.blit a 0 fresh 0 l.ln;
      fresh
    in
    l.lcols <- Array.map grow l.lcols;
    l.lcounts <- grow l.lcounts
  end;
  for c = 0 to t.cs_arity - 1 do
    l.lcols.(c).(l.ln) <- intern t.dicts.(c) tup.(c)
  done;
  l.lcounts.(l.ln) <- count;
  l.ln <- l.ln + 1

let finish_load l =
  let t = l.lstore and n = l.ln in
  l.ln <- 0;
  if n > 0 then begin
    let lcols = l.lcols in
    let perm = sort_perm lcols (Array.map (fun d -> d.dlen) t.dicts) n in
    let unique = ref 1 in
    for k = 1 to n - 1 do
      if cmp_col_rows lcols perm.(k - 1) lcols perm.(k) <> 0 then incr unique
    done;
    let m = !unique in
    let cols = Array.init t.cs_arity (fun _ -> Array.make m 0) in
    let counts = Array.make m 0 in
    let out = ref (-1) in
    for k = 0 to n - 1 do
      let row = perm.(k) in
      if k = 0 || cmp_col_rows lcols perm.(k - 1) lcols row <> 0 then begin
        incr out;
        for c = 0 to t.cs_arity - 1 do
          cols.(c).(!out) <- lcols.(c).(row)
        done
      end;
      counts.(!out) <- counts.(!out) + l.lcounts.(row)
    done;
    if t.cs_arity > 0 && t.rlen = 0 && IH.length t.tail = 0 then begin
      t.cols <- cols;
      t.counts <- counts;
      t.rlen <- m;
      t.card <- m;
      t.total <- Array.fold_left ( + ) 0 counts;
      rebuild_filter t
    end
    else begin
      for k = 0 to m - 1 do
        ignore (add_ids t (Array.map (fun col -> col.(k)) cols) counts.(k))
      done;
      compact t
    end
  end

let count t tup =
  match encode_tuple t tup with
  | None -> 0
  | Some ids -> (
    match IH.find_opt t.tail ids with
    | Some e -> e.base + e.delta
    | None -> base_of t ids)

let mem t tup = count t tup > 0

(* --- iteration ---------------------------------------------------------- *)

let sorted_tail t =
  IH.fold (fun ids e acc -> (ids, e.base + e.delta) :: acc) t.tail []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> cmp_ids a b)

(* The ids arrays handed to [iter_ids]/[iter_probe] callbacks are either a
   reused scratch buffer (run rows) or the table's own tail keys: valid only
   for the duration of the call, never to be mutated or retained (see the
   .mli contract). *)
let iter_ids t f =
  let tail_n = IH.length t.tail in
  let scratch = Array.make t.cs_arity 0 in
  if tail_n = 0 || t.run_overrides = 0 then
    (* no run row is overridden by the tail: skip the per-row lookup *)
    for row = 0 to t.rlen - 1 do
      for c = 0 to t.cs_arity - 1 do
        scratch.(c) <- t.cols.(c).(row)
      done;
      f scratch t.counts.(row)
    done
  else
    for row = 0 to t.rlen - 1 do
      for c = 0 to t.cs_arity - 1 do
        scratch.(c) <- t.cols.(c).(row)
      done;
      if not (IH.mem t.tail scratch) then f scratch t.counts.(row)
    done;
  if tail_n > 0 then List.iter (fun (ids, n) -> f ids n) (sorted_tail t)

let iter f t =
  let tail_n = IH.length t.tail in
  if tail_n = 0 || t.run_overrides = 0 then
    for row = 0 to t.rlen - 1 do
      f (decode_row t row) t.counts.(row)
    done
  else begin
    let scratch = Array.make t.cs_arity 0 in
    for row = 0 to t.rlen - 1 do
      for c = 0 to t.cs_arity - 1 do
        scratch.(c) <- t.cols.(c).(row)
      done;
      if not (IH.mem t.tail scratch) then f (decode_row t row) t.counts.(row)
    done
  end;
  if tail_n > 0 then List.iter (fun (ids, n) -> f (decode t ids) n) (sorted_tail t)

let fold f t init =
  let acc = ref init in
  iter (fun tup n -> acc := f tup n !acc) t;
  !acc

let clear ?notify t =
  (match notify with None -> () | Some f -> iter f t);
  t.cols <- Array.make t.cs_arity [||];
  t.counts <- [||];
  t.rlen <- 0;
  IH.reset t.tail;
  t.run_overrides <- 0;
  t.run_filter <- [||];
  IH.reset t.indexes;
  t.card <- 0;
  t.total <- 0

let copy t =
  {
    cs_schema = t.cs_schema;
    cs_arity = t.cs_arity;
    dicts =
      Array.map
        (fun d ->
          {
            dvals = Array.copy d.dvals;
            dlen = d.dlen;
            dids = VH.copy d.dids;
            dints = Imap.copy d.dints;
          })
        t.dicts;
    cols = Array.map Array.copy t.cols;
    counts = Array.copy t.counts;
    rlen = t.rlen;
    tail =
      (let fresh = IH.create (max 64 (IH.length t.tail)) in
       IH.iter
         (fun ids e ->
           IH.replace fresh (Array.copy ids) { base = e.base; delta = e.delta })
         t.tail;
       fresh);
    run_overrides = t.run_overrides;
    run_filter = Array.copy t.run_filter;
    indexes = IH.create 4;
    card = t.card;
    total = t.total;
  }

(* --- keyed probes ------------------------------------------------------- *)

(* Index layout: [perm] lists the run rows sorted by (key projection, row),
   built by [sort_perm] over the key columns; [offsets.(k) .. offsets.(k+1))]
   is the perm range whose first key column carries id [k], from one more
   counting pass.  A single-column probe is two array loads; a
   multi-column probe binary-searches the remaining key columns inside its
   first column's bucket.  Built offsets are never empty: an empty array
   marks an index restored from a checkpoint whose multi-column indexes
   had none, and it is rebuilt. *)
let refresh_perm t idx =
  if idx.perm_rows <> t.rlen || Array.length idx.offsets = 0 then begin
    let key_cols = Array.map (fun c -> t.cols.(c)) idx.key_cols in
    let spans = Array.map (fun c -> t.dicts.(c).dlen) idx.key_cols in
    let perm = sort_perm key_cols spans t.rlen in
    let first = key_cols.(0) in
    let nk = spans.(0) in
    let offsets = Array.make (nk + 1) 0 in
    for row = 0 to t.rlen - 1 do
      offsets.(first.(row) + 1) <- offsets.(first.(row) + 1) + 1
    done;
    for k = 1 to nk do
      offsets.(k) <- offsets.(k) + offsets.(k - 1)
    done;
    idx.perm <- perm;
    idx.offsets <- offsets;
    idx.perm_rows <- t.rlen
  end

let get_or_create_index t key_cols =
  match IH.find_opt t.indexes key_cols with
  | Some idx -> idx
  | None ->
    let idx =
      {
        key_cols = Array.copy key_cols;
        perm = [||];
        perm_rows = -1;
        offsets = [||];
        tails = IH.create 16;
      }
    in
    (* adopt tail-only entries already present *)
    IH.iter (fun ids e -> if e.base = 0 then index_tail_add idx ids) t.tail;
    IH.replace t.indexes idx.key_cols idx;
    idx

type probe = {
  pstore : t;
  pidx : index;
  prow : int array; (* the one scratch row every yielded run row is copied into *)
  mutable lo : int; (* perm range of the last located key *)
  mutable hi : int;
}

let prepare t key_cols =
  if Array.length key_cols = 0 then invalid_arg "Column_store.prepare: empty key";
  let idx = get_or_create_index t key_cols in
  refresh_perm t idx;
  { pstore = t; pidx = idx; prow = Array.make t.cs_arity 0; lo = 0; hi = 0 }

(* Key columns [from..] of run row [row] against [key_ids.(from..)]. *)
let cmp_row_key t idx row (key_ids : int array) from =
  let n = Array.length idx.key_cols in
  let c = ref 0 and k = ref from in
  while !c = 0 && !k < n do
    let x = t.cols.(idx.key_cols.(!k)).(row) and y = key_ids.(!k) in
    if x < y then c := -1 else if x > y then c := 1;
    incr k
  done;
  !c

(* Set [p.lo, p.hi) to [key_ids]' perm range: the first column's bucket,
   narrowed by binary search on the remaining columns.  A key id interned
   after the perm was built cannot appear in the (unchanged) run. *)
let locate p (key_ids : int array) =
  let t = p.pstore and idx = p.pidx in
  let k0 = key_ids.(0) in
  if k0 + 1 >= Array.length idx.offsets then begin
    p.lo <- 0;
    p.hi <- 0
  end
  else begin
    let lo = ref idx.offsets.(k0) and hi = ref idx.offsets.(k0 + 1) in
    if Array.length idx.key_cols > 1 then begin
      let top = !hi in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp_row_key t idx idx.perm.(mid) key_ids 1 < 0 then lo := mid + 1 else hi := mid
      done;
      let first = !lo in
      hi := top;
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp_row_key t idx idx.perm.(mid) key_ids 1 <= 0 then lo := mid + 1 else hi := mid
      done;
      hi := !lo;
      lo := first
    end;
    p.lo <- !lo;
    p.hi <- !hi
  end

let iter_probe p key_ids f =
  let t = p.pstore and idx = p.pidx and scratch = p.prow in
  locate p key_ids;
  let tail_n = IH.length t.tail in
  let overrides = tail_n > 0 && t.run_overrides > 0 in
  for k = p.lo to p.hi - 1 do
    let row = idx.perm.(k) in
    for c = 0 to t.cs_arity - 1 do
      scratch.(c) <- t.cols.(c).(row)
    done;
    if not overrides then f scratch t.counts.(row)
    else
      match IH.find_opt t.tail scratch with
      | Some e -> if e.base + e.delta > 0 then f scratch (e.base + e.delta)
      | None -> f scratch t.counts.(row)
  done;
  if tail_n > 0 then
    match IH.find_opt idx.tails key_ids with
    | None -> ()
    | Some l ->
      List.iter
        (fun ids ->
          match IH.find_opt t.tail ids with
          | Some e when e.base = 0 && e.delta > 0 -> f ids e.delta
          | _ -> ())
        !l

(* --- audit -------------------------------------------------------------- *)

let audit t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_dicts () =
    let rec go c =
      if c = t.cs_arity then Ok ()
      else begin
        let d = t.dicts.(c) in
        if d.dlen > Array.length d.dvals then
          err "column %d: dict length %d exceeds capacity" c d.dlen
        else begin
          let bad = ref None in
          for id = 0 to d.dlen - 1 do
            if !bad = None && dict_find_raw d d.dvals.(id) <> id then
              bad := Some id
          done;
          if VH.length d.dids + Imap.length d.dints <> d.dlen then
            err "column %d: dict maps have %d entries for %d ids" c
              (VH.length d.dids + Imap.length d.dints)
              d.dlen
          else
            match !bad with
            | Some id -> err "column %d: id %d not a bijection" c id
            | None -> go (c + 1)
        end
      end
    in
    go 0
  in
  let check_run () =
    let bad = ref None in
    for row = 0 to t.rlen - 1 do
      if !bad = None then begin
        if t.counts.(row) <= 0 then
          bad := Some (Printf.sprintf "run row %d: count %d" row t.counts.(row));
        for c = 0 to t.cs_arity - 1 do
          let id = t.cols.(c).(row) in
          if id < 0 || id >= t.dicts.(c).dlen then
            bad := Some (Printf.sprintf "run row %d col %d: id %d out of dict" row c id)
        done;
        if row > 0 && cmp_rows t (row - 1) row >= 0 then
          bad := Some (Printf.sprintf "run rows %d,%d not strictly sorted" (row - 1) row)
      end
    done;
    match !bad with Some m -> Error m | None -> Ok ()
  in
  let check_tail () =
    IH.fold
      (fun ids e acc ->
        Result.bind acc (fun () ->
            if Array.length ids <> t.cs_arity then err "tail entry arity mismatch"
            else if e.delta = 0 then err "tail entry with zero delta"
            else if e.base + e.delta < 0 then err "tail entry with negative net"
            else if base_of t ids <> e.base then
              err "tail entry base %d disagrees with run" e.base
            else Ok ()))
      t.tail (Ok ())
  in
  let check_overrides () =
    let n = IH.fold (fun _ e acc -> if e.base > 0 then acc + 1 else acc) t.tail 0 in
    if n <> t.run_overrides then
      err "run_overrides %d, counted %d" t.run_overrides n
    else Ok ()
  in
  let check_filter () =
    if t.rlen = 0 then
      if Array.length t.run_filter = 0 then Ok ()
      else err "run filter non-empty for empty run"
    else if Array.length t.run_filter = 0 then err "run filter missing"
    else begin
      (* the filter may over-approximate but must never miss a run row *)
      let mask = (Array.length t.run_filter * 32) - 1 in
      let scratch = Array.make t.cs_arity 0 in
      let missing = ref (-1) in
      for row = 0 to t.rlen - 1 do
        if !missing < 0 then begin
          for c = 0 to t.cs_arity - 1 do
            scratch.(c) <- t.cols.(c).(row)
          done;
          if not (filter_mem t.run_filter mask (hash_ids scratch)) then
            missing := row
        end
      done;
      if !missing >= 0 then err "run row %d missing from filter" !missing
      else Ok ()
    end
  in
  let check_totals () =
    let card = ref 0 and total = ref 0 in
    iter_ids t (fun _ n ->
        incr card;
        total := !total + n);
    if !card <> t.card then err "cardinality %d, counted %d" t.card !card
    else if !total <> t.total then err "total %d, counted %d" t.total !total
    else Ok ()
  in
  Result.bind (check_dicts ()) (fun () ->
      Result.bind (check_run ()) (fun () ->
          Result.bind (check_tail ()) (fun () ->
              Result.bind (check_overrides ()) (fun () ->
                  Result.bind (check_filter ()) check_totals))))

(* --- repair ------------------------------------------------------------- *)

(* The store splits into a content plane (dictionary values, run columns +
   multiplicities, tail entries) and derived planes that are pure functions
   of it (dictionary maps, the Bloom run filter, cached indexes, the
   override/cardinality/total accounting).  [repair] recomputes every
   derived plane from the content and re-audits: damage confined to a
   derived plane heals in place, while content damage still fails the
   re-audit — the caller's cue to reground. *)
let repair t =
  Array.iteri
    (fun c d ->
      let fresh =
        { dvals = d.dvals; dlen = d.dlen; dids = VH.create 64; dints = Imap.create () }
      in
      for id = 0 to d.dlen - 1 do
        match fresh.dvals.(id) with
        | Value.Int k -> if Imap.find fresh.dints k < 0 then Imap.add fresh.dints k id
        | v -> if VH.find_opt fresh.dids v = None then VH.replace fresh.dids v id
      done;
      t.dicts.(c) <- fresh)
    t.dicts;
  rebuild_filter t;
  IH.reset t.indexes;
  t.run_overrides <-
    IH.fold (fun _ e acc -> if e.base > 0 then acc + 1 else acc) t.tail 0;
  let card = ref 0 and total = ref 0 in
  iter_ids t (fun _ n ->
      incr card;
      total := !total + n);
  t.card <- !card;
  t.total <- !total;
  audit t

(* Test-only damage hooks: simulate in-memory corruption of a derived
   plane (repairable) or of run content (not repairable in place). *)

let unsafe_corrupt_filter t =
  if Array.length t.run_filter > 0 then Array.fill t.run_filter 0 (Array.length t.run_filter) 0
  else t.run_filter <- [| 0 |]

let unsafe_corrupt_run t =
  if t.rlen = 0 then invalid_arg "Column_store.unsafe_corrupt_run: empty run";
  t.counts.(0) <- -t.counts.(0)
