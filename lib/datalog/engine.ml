module Value = Dd_relational.Value
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Schema = Dd_relational.Schema
module Database = Dd_relational.Database

(* Shared by every lookup of an unknown predicate; never mutated. *)
let empty_relation = Relation.create ~name:"<empty>" (Schema.make [])

let lookup_in db pred =
  match Database.find_opt db pred with
  | Some r -> r
  | None -> empty_relation

let infer_schema tuple =
  Schema.make
    (Array.to_list
       (Array.mapi
          (fun i v ->
            let ty =
              match Value.type_of v with
              | Some t -> t
              | None -> Value.TStr
            in
            (Printf.sprintf "c%d" i, ty))
          tuple))

let ensure_table db pred sample =
  match Database.find_opt db pred with
  | Some r -> r
  | None ->
    let r = Relation.create ~name:pred (infer_schema sample) in
    Database.register db r;
    r

(* Evaluate one stratum to fixpoint with semi-naive iteration over compiled
   join plans.

   Round 0 evaluates every rule's full plan against the current database
   (same-stratum IDB empty at that point).  Later rounds use the delta
   decomposition: for each rule and each body position holding a same-stratum
   predicate, a delta-specialized plan matches that position against the last
   round's delta, positions before it against the new state and positions
   after it against the previous state, so each grounding is discovered
   exactly once and counts stay exact.

   The previous state is never materialized: because round deltas contain
   only membership flips, S_{r-1} is exactly the live relation minus the last
   delta's tuples, which a [Plan.Patched] view expresses without a per-round
   [Relation.copy] of every stratum predicate.  All contributions of a round
   are computed before any insert, so the live relations are stable while
   the views read them. *)
let eval_stratum ?plans db (stratum : Stratify.stratum) =
  let plans =
    match plans with
    | Some c -> c
    | None -> Plan.Cache.create ()
  in
  let in_stratum p = List.mem p stratum.Stratify.preds in
  let lookup_new pred = Plan.whole (lookup_in db pred) in
  (* Round 0: old state is the empty stratum. *)
  let initial_lookup pred =
    if in_stratum pred then Plan.whole empty_relation
    else Plan.whole (lookup_in db pred)
  in
  let delta : (string, (Tuple.t * int) list) Hashtbl.t = Hashtbl.create 8 in
  let merge_delta pred entries =
    let existing = try Hashtbl.find delta pred with Not_found -> [] in
    Hashtbl.replace delta pred (entries @ existing)
  in
  let apply_round contributions =
    Hashtbl.reset delta;
    (* Only membership flips (genuinely new tuples) enter the next round's
       delta, each with count 1: downstream groundings depend on presence,
       not on how many derivations a tuple has.  Count increments on
       existing tuples are recorded in the store but do not propagate. *)
    List.iter
      (fun (pred, entries) ->
        let fresh =
          List.filter_map
            (fun (tuple, count) ->
              if count <= 0 then None
              else begin
                let r = ensure_table db pred tuple in
                let existed = Relation.insert_prev ~count r tuple > 0 in
                if existed then None else Some (tuple, 1)
              end)
            entries
        in
        if fresh <> [] then merge_delta pred fresh)
      contributions;
    Hashtbl.length delta > 0
  in
  (* Round 0 reads no in-stratum predicate (they resolve to the empty
     view this round), so no plan can observe what it writes.  A
     non-recursive stratum is then complete: each head predicate's rows
     are encoded straight from the plan into a loader and written as one
     sorted run, with no head tuple, tail entry or compaction per row.  A
     recursive stratum streams its round 0 into the stores instead:
     [insert_prev] both accumulates the multiplicity and reports the
     membership flip the semi-naive delta needs (on a tuple's first
     derivation only, exactly as under aggregation). *)
  Hashtbl.reset delta;
  if not stratum.Stratify.recursive then begin
    let loaders = Hashtbl.create 4 in
    let loader_for head sample =
      match Hashtbl.find_opt loaders head with
      | Some l -> l
      | None ->
        let l = Relation.loader (ensure_table db head (Array.copy sample)) in
        Hashtbl.replace loaders head l;
        l
    in
    List.iter
      (fun rule ->
        let head = Ast.head_pred rule in
        let loader = ref None in
        Plan.iter_heads (Plan.Cache.full plans rule) ~lookup:initial_lookup
          ~f:(fun tuple count ->
            if count > 0 then begin
              let l =
                match !loader with
                | Some l -> l
                | None ->
                  let l = loader_for head tuple in
                  loader := Some l;
                  l
              in
              Relation.load ~count l tuple
            end))
      stratum.Stratify.rules;
    Hashtbl.iter (fun _ l -> Relation.finish_load l) loaders
  end
  else
    List.iter
      (fun rule ->
        let head = Ast.head_pred rule in
        let fresh = ref [] in
        Plan.iter_heads (Plan.Cache.full plans rule) ~lookup:initial_lookup
          ~f:(fun tuple count ->
            if count > 0 then begin
              let tuple = Array.copy tuple in
              let r = ensure_table db head tuple in
              if Relation.insert_prev ~count r tuple = 0 then fresh := (tuple, 1) :: !fresh
            end);
        if !fresh <> [] then merge_delta head !fresh)
      stratum.Stratify.rules;
  let continue_ = Hashtbl.length delta > 0 in
  if continue_ && stratum.Stratify.recursive then begin
    let empty_set : unit Tuple.Hashtbl.t = Tuple.Hashtbl.create 1 in
    let rec loop () =
      (* The delta we are about to consume was applied to the db already;
         the old state is the live relation viewed without it. *)
      let last_delta = Hashtbl.copy delta in
      let last_sets : (string, unit Tuple.Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.iter
        (fun pred entries ->
          let s = Tuple.Hashtbl.create (2 * List.length entries) in
          List.iter (fun (tuple, _) -> Tuple.Hashtbl.replace s tuple ()) entries;
          Hashtbl.replace last_sets pred s)
        last_delta;
      let lookup_old pred =
        if in_stratum pred then begin
          let minus =
            match Hashtbl.find_opt last_sets pred with
            | Some s -> s
            | None -> empty_set
          in
          Plan.patched ~base:(lookup_in db pred) ~minus ~plus:empty_set
        end
        else Plan.whole (lookup_in db pred)
      in
      let contributions =
        List.concat_map
          (fun rule ->
            let head = Ast.head_pred rule in
            List.concat
              (List.mapi
                 (fun pos literal ->
                   let pred = (Ast.atom_of_literal literal).Ast.pred in
                   if Ast.is_positive literal && in_stratum pred then begin
                     match Hashtbl.find_opt last_delta pred with
                     | None | Some [] -> []
                     | Some d ->
                       [ ( head,
                           Plan.run_staged
                             (Plan.Cache.delta plans rule ~delta_pos:pos)
                             ~before:lookup_new ~after:lookup_old ~delta:d ) ]
                   end
                   else [])
                 rule.Ast.body))
          stratum.Stratify.rules
      in
      if apply_round contributions then loop ()
    in
    loop ()
  end

(* Merge every table's delta tail into its sorted run.  Evaluation entry is
   a safe point (no probe in flight), and tail-free stores take the
   override-free fast path on every scan and keyed probe below. *)
let compact_all db =
  List.iter
    (fun name -> Dd_relational.Column_store.compact (Relation.store (Database.find db name)))
    (Database.table_names db)

let run ?plans db program =
  match Stratify.stratify program with
  | Error e -> Error e
  | Ok strata ->
    (* Fresh evaluation: clear existing IDB contents. *)
    List.iter
      (fun pred ->
        match Database.find_opt db pred with
        | Some r -> Relation.clear r
        | None -> ())
      (Ast.idb_preds program);
    compact_all db;
    (* Every stratum leaves one sorted run per predicate: non-recursive
       strata are bulk-written, recursive ones compacted after their
       fixpoint, before the next stratum (or the factor pass) probes them. *)
    List.iter
      (fun stratum ->
        eval_stratum ?plans db stratum;
        if stratum.Stratify.recursive then
          List.iter
            (fun pred ->
              Option.iter
                (fun r -> Dd_relational.Column_store.compact (Relation.store r))
                (Database.find_opt db pred))
            stratum.Stratify.preds)
      strata;
    Ok ()

let run_exn ?plans db program =
  match run ?plans db program with
  | Ok () -> ()
  | Error e -> invalid_arg ("Engine.run: " ^ e)
