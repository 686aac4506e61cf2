module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Database = Dd_relational.Database
module Budget = Dd_util.Budget

module Delta = struct
  type t = (string, (Tuple.t * int) list ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let bucket t pred =
    match Hashtbl.find_opt t pred with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.replace t pred b;
      b

  let add_signed t pred tuple sign =
    let b = bucket t pred in
    b := (tuple, sign) :: !b

  let insert t pred tuple = add_signed t pred tuple 1

  let delete t pred tuple = add_signed t pred tuple (-1)

  (* Requests are recorded most-recent-first; expose them chronologically so
     later requests win over earlier ones for the same tuple. *)
  let flips t pred =
    match Hashtbl.find_opt t pred with Some b -> List.rev !b | None -> []

  let preds t =
    List.sort String.compare (Hashtbl.fold (fun p _ acc -> p :: acc) t [])

  let total t = Hashtbl.fold (fun _ b acc -> acc + List.length !b) t 0
end

(* An elementary update batch for one predicate.  [entries] are signed
   derivation-count deltas.  When [pre] is provided the batch has already
   been applied to the store and [pre] is the predicate's prior state
   (recompute-and-diff path); otherwise consumption applies the entries. *)
type batch = {
  pred : string;
  entries : (Tuple.t * int) list;
  pre : Relation.t option;
  level : int; (* stratum of [pred]; -1 for base tables *)
}

let stratum_level strata pred =
  let rec find i = function
    | [] -> -1
    | s :: rest -> if List.mem pred s.Stratify.preds then i else find (i + 1) rest
  in
  find 0 strata

(* Canonicalize a batch's entries: net the signed counts per tuple, drop
   zeros, and order by tuple.  Batch entries are assembled in storage
   iteration order (plan outputs fold hash tables), which depends on the
   store's physical layout — which tuples sit in the sorted run, which in
   the delta tail, and where the last compaction fell; netting first means
   membership flips — and underflow clamping — depend only on the batch's
   aggregate effect, never on the order contributions happened to be
   listed in, so the flip sequence is independent of that layout. *)
let canonical_entries entries =
  match entries with
  | [] | [ _ ] -> entries
  | _ ->
    let net = Tuple.Hashtbl.create 16 in
    let tuples = ref [] in
    List.iter
      (fun (tuple, count) ->
        match Tuple.Hashtbl.find_opt net tuple with
        | Some c -> Tuple.Hashtbl.replace net tuple (c + count)
        | None ->
          Tuple.Hashtbl.replace net tuple count;
          tuples := tuple :: !tuples)
      entries;
    List.filter_map
      (fun tuple ->
        match Tuple.Hashtbl.find net tuple with
        | 0 -> None
        | c -> Some (tuple, c))
      (List.sort Tuple.compare !tuples)

(* Apply signed count deltas to a relation; return membership flips. *)
let apply_entries rel entries =
  List.filter_map
    (fun (tuple, count) ->
      if count = 0 then None
      else if count > 0 then begin
        let existed = Relation.insert_prev ~count rel tuple > 0 in
        if existed then None else Some (tuple, 1)
      end
      else begin
        let removed = Relation.remove ~count:(-count) rel tuple in
        if removed < -count then
          Logs.warn (fun m ->
              m "Dred: count underflow on %s %s (removed %d of %d)"
                (Relation.name rel) (Tuple.to_string tuple) removed (-count));
        if removed > 0 && not (Relation.mem rel tuple) then Some (tuple, -1) else None
      end)
    entries

(* Membership diff: flips turning [old_rel] into [new_rel], plus signed
   count entries describing the full transition. *)
let diff_relations old_rel new_rel =
  let entries = ref [] and flips = ref [] in
  Relation.iter
    (fun tuple new_count ->
      let old_count = Relation.count old_rel tuple in
      if new_count <> old_count then entries := (tuple, new_count - old_count) :: !entries;
      if old_count = 0 then flips := (tuple, 1) :: !flips)
    new_rel;
  Relation.iter
    (fun tuple old_count ->
      if not (Relation.mem new_rel tuple) then begin
        entries := (tuple, -old_count) :: !entries;
        flips := (tuple, -1) :: !flips
      end)
    old_rel;
  (!entries, !flips)

let apply ?plans ?(seeds = []) ?(budget = Budget.unlimited) db program changes =
  let plans =
    match plans with
    | Some c -> c
    | None -> Plan.Cache.create ()
  in
  let ( let* ) = Result.bind in
  let* strata = Stratify.stratify program in
  let idb = Ast.idb_preds program in
  (* Reject changes that target derived predicates. *)
  let bad =
    List.find_opt (fun p -> List.mem p idb && Delta.flips changes p <> []) (Delta.preds changes)
  in
  let* () =
    match bad with
    | Some p -> Error ("Dred.apply: cannot change derived predicate " ^ p)
    | None -> Ok ()
  in
  let result = Delta.create () in
  let strata_arr = Array.of_list strata in
  let level_of = stratum_level strata in
  (* Rules of non-recursive strata indexed by body predicate; recursive
     strata are recomputed wholesale when dirty. *)
  let rules_reading : (string, (Ast.rule * int * bool) list) Hashtbl.t = Hashtbl.create 32 in
  let recursive_reading : (string, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun si s ->
      List.iter
        (fun rule ->
          List.iteri
            (fun pos literal ->
              let p = (Ast.atom_of_literal literal).Ast.pred in
              if s.Stratify.recursive then
                Hashtbl.replace recursive_reading (p ^ "@" ^ string_of_int si) si
              else begin
                let existing = try Hashtbl.find rules_reading p with Not_found -> [] in
                Hashtbl.replace rules_reading p
                  ((rule, pos, Ast.is_positive literal) :: existing)
              end)
            rule.Ast.body)
        s.Stratify.rules)
    strata_arr;
  let dirty_recursive = Array.make (Array.length strata_arr) false in
  (* [except] suppresses re-dirtying the stratum whose own recompute
     produced the batch (it is already at fixpoint). *)
  let mark_dirty_recursive ?(except = -1) p =
    Array.iteri
      (fun si _ ->
        if si <> except && Hashtbl.mem recursive_reading (p ^ "@" ^ string_of_int si) then
          dirty_recursive.(si) <- true)
      strata_arr
  in
  (* Pending batches, bucketed by stratum level (+1 so base tables land in
     bucket 0); consumed bottom-up. *)
  let nbuckets = Array.length strata_arr + 1 in
  let queues : batch Queue.t array = Array.init nbuckets (fun _ -> Queue.create ()) in
  let push b = Queue.add b queues.(b.level + 1) in
  (* Seed with base-table changes, normalized to count deltas. *)
  List.iter
    (fun pred ->
      let rel =
        match Database.find_opt db pred with
        | Some r -> r
        | None -> invalid_arg ("Dred.apply: unknown base table " ^ pred)
      in
      (* Last request wins for a tuple mentioned multiple times; the entry is
         the difference between the requested final membership and the
         current one. *)
      let desired = Tuple.Hashtbl.create 16 in
      List.iter
        (fun (tuple, sign) -> Tuple.Hashtbl.replace desired tuple (sign > 0))
        (Delta.flips changes pred);
      let entries =
        Tuple.Hashtbl.fold
          (fun tuple want acc ->
            let current = Relation.count rel tuple in
            if want && current = 0 then (tuple, 1) :: acc
            else if (not want) && current > 0 then (tuple, -current) :: acc
            else acc)
          desired []
      in
      if entries <> [] then push { pred; entries; pre = None; level = -1 })
    (Delta.preds changes);
  (* Seed batches for derived predicates (new-rule contributions). *)
  List.iter
    (fun (pred, entries) ->
      if entries <> [] then push { pred; entries; pre = None; level = level_of pred })
    seeds;
  let current_lookup = Engine.lookup_in db in
  let current_view pred = Plan.whole (current_lookup pred) in
  let consume b =
    (* One poll per elementary batch: a pathological cascade degrades into
       a classified timeout instead of an unbounded semi-naive run. *)
    Budget.check budget "dred.consume";
    let consume_start = Unix.gettimeofday () in
    let rel =
      match Database.find_opt db b.pred with
      | Some r -> r
      | None ->
        (* A derived predicate that was empty before this update. *)
        let sample =
          match b.entries with
          | (t, _) :: _ -> t
          | [] -> [||]
        in
        Engine.ensure_table db b.pred sample
    in
    let entries = canonical_entries b.entries in
    let old_view, flips =
      match b.pre with
      | Some pre ->
        (* Already applied; flips derivable from entries vs pre. *)
        let flips =
          List.filter_map
            (fun (tuple, count) ->
              let before = Relation.count pre tuple in
              let after = before + count in
              if before = 0 && after > 0 then Some (tuple, 1)
              else if before > 0 && after <= 0 then Some (tuple, -1)
              else None)
            entries
        in
        (Plan.whole pre, flips)
      | None ->
        (* Apply the entries first, then present the prior state as a
           snapshot-free view: the live relation minus the tuples this batch
           flipped in, plus the tuples it flipped out.  Views feed membership
           only, so set semantics suffice — no [Relation.copy]. *)
        let flips = apply_entries rel entries in
        let minus = Tuple.Hashtbl.create 8 and plus = Tuple.Hashtbl.create 8 in
        List.iter
          (fun (tuple, sign) ->
            if sign > 0 then Tuple.Hashtbl.replace minus tuple ()
            else Tuple.Hashtbl.replace plus tuple ())
          flips;
        (Plan.patched ~base:rel ~minus ~plus, flips)
    in
    if flips <> [] then begin
      List.iter (fun (tuple, sign) -> Delta.add_signed result b.pred tuple sign) flips;
      let except = match b.pre with Some _ -> b.level | None -> -1 in
      mark_dirty_recursive ~except b.pred;
      let old_lookup pred = if pred = b.pred then old_view else current_view pred in
      (* Signed delta pass over every non-recursive rule reading [pred]. *)
      let contributions : (string, (Tuple.t * int) list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (rule, pos, positive) ->
          let delta =
            if positive then flips else List.map (fun (t, s) -> (t, -s)) flips
          in
          let eval_start = Unix.gettimeofday () in
          let derived =
            Plan.run_staged
              (Plan.Cache.delta plans rule ~delta_pos:pos)
              ~before:current_view ~after:old_lookup ~delta
          in
          Logs.debug (fun m ->
              m "  eval %s pos %d: %d derived, %.4fs" (Ast.head_pred rule) pos
                (List.length derived)
                (Unix.gettimeofday () -. eval_start));
          if derived <> [] then begin
            let head = Ast.head_pred rule in
            let bucket =
              match Hashtbl.find_opt contributions head with
              | Some r -> r
              | None ->
                let r = ref [] in
                Hashtbl.replace contributions head r;
                r
            in
            bucket := derived @ !bucket
          end)
        (try Hashtbl.find rules_reading b.pred with Not_found -> []);
      Hashtbl.iter
        (fun head entries ->
          push { pred = head; entries = !entries; pre = None; level = level_of head })
        contributions
    end;
    Logs.debug (fun m ->
        m "Dred.consume %s: %d entries, %.4fs" b.pred (List.length b.entries)
          (Unix.gettimeofday () -. consume_start))
  in
  (* Consume bottom-up.  A recursive stratum is recomputed from scratch and
     diffed whenever batches consumed at or below its level touched its rule
     bodies; draining and recomputation alternate until the level is
     quiescent. *)
  for bucket = 0 to nbuckets - 1 do
    let si = bucket - 1 in
    let quiescent = ref false in
    while not !quiescent do
      while not (Queue.is_empty queues.(bucket)) do
        consume (Queue.pop queues.(bucket))
      done;
      if si >= 0 && dirty_recursive.(si) then begin
        Budget.check budget "dred.recompute";
        dirty_recursive.(si) <- false;
        let s = strata_arr.(si) in
        (* Counting is not exact under recursion (cyclic derivation
           support), so recompute the stratum and diff against its prior
           state; the diff batches drain in the next round. *)
        let pre_state =
          List.filter_map
            (fun pred ->
              match Database.find_opt db pred with
              | Some r -> Some (pred, Relation.copy r)
              | None -> None)
            s.Stratify.preds
        in
        List.iter
          (fun pred ->
            match Database.find_opt db pred with
            | Some r -> Relation.clear r
            | None -> ())
          s.Stratify.preds;
        Engine.eval_stratum ~plans db s;
        List.iter
          (fun (pred, pre) ->
            let now = Engine.lookup_in db pred in
            let entries, _flips = diff_relations pre now in
            if entries <> [] then push { pred; entries; pre = Some pre; level = si })
          pre_state
      end
      else quiescent := true
    done
  done;
  Ok result
