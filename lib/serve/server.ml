module Tuple = Dd_relational.Tuple
module Txn = Dd_core.Txn
module Engine = Dd_core.Engine

(* One published snapshot plus its retirement state.  [pins] counts
   readers currently inside a [read] on this snapshot; [superseded] is set
   by the writer when a newer snapshot replaces it; [retired] flips once,
   when a superseded slot's last reader leaves (or it was idle at swap
   time).  The GC keeps the memory safe regardless — retirement exists so
   the health surface can prove old epochs actually drain. *)
type slot = {
  snap : Snapshot.t;
  pins : int Atomic.t;
  superseded : bool Atomic.t;
  retired : bool Atomic.t;
}

type counters = {
  lookups : int;
  scans : int;
  top_ks : int;
  entities : int;
  generic : int;
}

type health = {
  epoch : int;
  txn_seq : int;
  writer_commits : int;
  staleness_commits : int;
  staleness_s : float;
  degraded : string option;
  quarantined : int;
  swaps : int;
  retired : int;
  active_pins : int;
  last_swap_ms : float;
  mean_swap_ms : float;
  max_swap_ms : float;
  scrubs : int;
  scrub_repaired : int;
  scrub_quarantined : int;
  scrub_unrepaired : int;
  last_scrub_healthy : bool option;
  counters : counters;
}

type t = {
  current : slot Atomic.t;
  (* Writer-side state.  Only the supervisor's domain touches these; the
     health surface reads them through the atomics below. *)
  mutable next_epoch : int;
  bins : int;
  truth : Dd_kbc.Corpus.fact list option;
  (* Cross-domain observability. *)
  writer_commits : int Atomic.t;
  degraded : string option Atomic.t;
  quarantined : int Atomic.t;
  swaps : int Atomic.t;
  retired_count : int Atomic.t;
  last_swap_ns : int Atomic.t;
  total_swap_ns : int Atomic.t;
  max_swap_ns : int Atomic.t;
  s_passes : int Atomic.t;
  s_repaired : int Atomic.t;
  s_quarantined : int Atomic.t;
  s_unrepaired : int Atomic.t;
  s_last_healthy : int Atomic.t;  (* -1 = never scrubbed, 0 = unhealthy, 1 = healthy *)
  c_lookups : int Atomic.t;
  c_scans : int Atomic.t;
  c_top_ks : int Atomic.t;
  c_entities : int Atomic.t;
  c_generic : int Atomic.t;
}

let fresh_slot snap =
  {
    snap;
    pins = Atomic.make 0;
    superseded = Atomic.make false;
    retired = Atomic.make false;
  }

(* Flip [retired] exactly once per slot and account for it. *)
let try_retire t slot =
  if
    Atomic.get slot.superseded
    && Atomic.get slot.pins = 0
    && Atomic.compare_and_set slot.retired false true
  then Atomic.incr t.retired_count

(* A snapshot carries the engine's commit count, which a Rerun rung
   continues. *)
let publish t engine =
  let t0 = Unix.gettimeofday () in
  let epoch = t.next_epoch in
  t.next_epoch <- epoch + 1;
  let snap =
    Snapshot.build ~bins:t.bins ?truth:t.truth ~epoch ~txn_seq:(Engine.commits engine) engine
  in
  let old = Atomic.exchange t.current (fresh_slot snap) in
  Atomic.set old.superseded true;
  try_retire t old;
  Atomic.incr t.swaps;
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  Atomic.set t.last_swap_ns ns;
  ignore (Atomic.fetch_and_add t.total_swap_ns ns);
  if ns > Atomic.get t.max_swap_ns then Atomic.set t.max_swap_ns ns

let create ?(bins = 10) ?truth txn =
  let engine = Txn.engine txn in
  let snap = Snapshot.build ~bins ?truth ~epoch:1 ~txn_seq:(Engine.commits engine) engine in
  let t =
    {
      current = Atomic.make (fresh_slot snap);
      next_epoch = 2;
      bins;
      truth;
      writer_commits = Atomic.make (Engine.commits engine);
      degraded = Atomic.make None;
      quarantined = Atomic.make 0;
      swaps = Atomic.make 0;
      retired_count = Atomic.make 0;
      last_swap_ns = Atomic.make 0;
      total_swap_ns = Atomic.make 0;
      max_swap_ns = Atomic.make 0;
      s_passes = Atomic.make 0;
      s_repaired = Atomic.make 0;
      s_quarantined = Atomic.make 0;
      s_unrepaired = Atomic.make 0;
      s_last_healthy = Atomic.make (-1);
      c_lookups = Atomic.make 0;
      c_scans = Atomic.make 0;
      c_top_ks = Atomic.make 0;
      c_entities = Atomic.make 0;
      c_generic = Atomic.make 0;
    }
  in
  Txn.on_event txn (function
    | Txn.Committed _ ->
      Atomic.set t.writer_commits (Engine.commits (Txn.engine txn));
      Atomic.set t.degraded None;
      publish t (Txn.engine txn)
    | Txn.Degraded rung -> Atomic.set t.degraded (Some (Txn.rung_to_string rung))
    | Txn.Quarantined _ ->
      Atomic.incr t.quarantined;
      Atomic.set t.degraded None;
      (* The engine was rolled back (and, if the ladder reached the rerun
         rung, replaced) — re-publish so served state tracks the live
         engine even across a failed update. *)
      publish t (Txn.engine txn));
  t

let current t = (Atomic.get t.current).snap

(* Pin the slot the pointer names right now.  If the writer retired it in
   the window between our load and our pin (possible only when the slot
   was idle, i.e. we had not pinned yet), drop it and take the fresh
   pointer — this keeps "retired" ⇒ "no reader will ever use it again". *)
let rec acquire t =
  let slot = Atomic.get t.current in
  Atomic.incr slot.pins;
  if Atomic.get slot.retired then begin
    ignore (Atomic.fetch_and_add slot.pins (-1));
    acquire t
  end
  else slot

let release t slot =
  if Atomic.fetch_and_add slot.pins (-1) = 1 then try_retire t slot

let read_with t counter f =
  Atomic.incr counter;
  let slot = acquire t in
  match f slot.snap with
  | v ->
    release t slot;
    v
  | exception e ->
    release t slot;
    raise e

let read t f = read_with t t.c_generic f

let lookup t ~relation tuple =
  read_with t t.c_lookups (fun s -> Snapshot.lookup s ~relation tuple)

let top_k t ?relation k = read_with t t.c_top_ks (fun s -> Snapshot.top_k s ?relation k)

let above t ?relation threshold =
  read_with t t.c_scans (fun s -> Snapshot.above s ?relation threshold)

let count_above t ?relation threshold =
  read_with t t.c_scans (fun s -> Snapshot.count_above s ?relation threshold)

let entity_facts t value = read_with t t.c_entities (fun s -> Snapshot.entity_facts s value)

let health t =
  let slot = Atomic.get t.current in
  let snap = slot.snap in
  let ms ns = float_of_int ns /. 1e6 in
  let swaps = Atomic.get t.swaps in
  {
    epoch = Snapshot.epoch snap;
    txn_seq = Snapshot.txn_seq snap;
    writer_commits = Atomic.get t.writer_commits;
    staleness_commits = max 0 (Atomic.get t.writer_commits - Snapshot.txn_seq snap);
    staleness_s = Unix.gettimeofday () -. Snapshot.published_s snap;
    degraded = Atomic.get t.degraded;
    quarantined = Atomic.get t.quarantined;
    swaps;
    retired = Atomic.get t.retired_count;
    active_pins = Atomic.get slot.pins;
    last_swap_ms = ms (Atomic.get t.last_swap_ns);
    mean_swap_ms = (if swaps = 0 then 0.0 else ms (Atomic.get t.total_swap_ns) /. float_of_int swaps);
    max_swap_ms = ms (Atomic.get t.max_swap_ns);
    scrubs = Atomic.get t.s_passes;
    scrub_repaired = Atomic.get t.s_repaired;
    scrub_quarantined = Atomic.get t.s_quarantined;
    scrub_unrepaired = Atomic.get t.s_unrepaired;
    last_scrub_healthy =
      (match Atomic.get t.s_last_healthy with -1 -> None | 0 -> Some false | _ -> Some true);
    counters =
      {
        lookups = Atomic.get t.c_lookups;
        scans = Atomic.get t.c_scans;
        top_ks = Atomic.get t.c_top_ks;
        entities = Atomic.get t.c_entities;
        generic = Atomic.get t.c_generic;
      };
  }

(* The scrub loop runs on the writer's side (it may republish
   checkpoints); the counters cross domains through the atomics. *)
let record_scrub t (r : Dd_kbc.Scrub.report) =
  let open Dd_kbc.Scrub in
  Atomic.incr t.s_passes;
  ignore
    (Atomic.fetch_and_add t.s_repaired
       (r.tables_repaired + r.tables_rebuilt + r.blobs_rewritten));
  ignore
    (Atomic.fetch_and_add t.s_quarantined
       (r.versions_quarantined + r.blobs_quarantined
       + if r.dead_letters_quarantined then 1 else 0));
  ignore (Atomic.fetch_and_add t.s_unrepaired (List.length r.unrepaired));
  Atomic.set t.s_last_healthy (if healthy r then 1 else 0)
