module Txn = Dd_core.Txn
module Grounding = Dd_core.Grounding
module Engine = Dd_core.Engine
module Database = Dd_relational.Database
module Relation = Dd_relational.Relation
module Value = Dd_relational.Value
module Dred = Dd_datalog.Dred
module Tokenizer = Dd_text.Tokenizer
module Mention_finder = Dd_text.Mention_finder
module Features = Dd_text.Features
module Corpus = Dd_kbc.Corpus
module Timer = Dd_util.Timer

type stats = {
  docs : int;
  batches : int;
  sentences : int;
  pairs : int;
  mentions : int;
  merges : int;
  el_inserts : int;
  el_retracts : int;
  quarantined : int;
}

let zero_stats =
  {
    docs = 0;
    batches = 0;
    sentences = 0;
    pairs = 0;
    mentions = 0;
    merges = 0;
    el_inserts = 0;
    el_retracts = 0;
    quarantined = 0;
  }

type t = {
  txn : Txn.t;
  canonicalize : bool;
  canon : Canonicalizer.t;
  dict : Mention_finder.dictionary;
  el_bound : (string, string) Hashtbl.t;  (* key -> committed eid *)
  mutable sid : int;
  mutable stats : stats;
}

let rebuild_el_bound txn table =
  match Database.find_opt (Grounding.database (Engine.grounding (Txn.engine txn))) "el" with
  | None -> ()
  | Some rel ->
    Relation.iter
      (fun tuple _count ->
        match (tuple.(0), tuple.(1)) with
        | Value.Str key, Value.Str eid -> Hashtbl.replace table key eid
        | _ -> ())
      rel

let create ?(canonicalize = true) ?state txn =
  let sid, canon =
    match state with
    | Some (sid, canon) -> (sid, canon)
    | None -> (0, Canonicalizer.create ())
  in
  let dict = Mention_finder.dictionary (Canonicalizer.all_keys canon) in
  let el_bound = Hashtbl.create 256 in
  rebuild_el_bound txn el_bound;
  { txn; canonicalize; canon; dict; el_bound; sid; stats = zero_stats }

let prepare_database db source =
  List.iter
    (fun (name, schema) ->
      if not (Database.mem db name) then ignore (Database.create_table db name schema))
    Corpus.input_schemas;
  List.iter
    (fun (name, rows) -> Database.insert_rows db name rows)
    (Source.static_tables source)

type batch_report = {
  outcome : (Txn.outcome, Txn.error) result;
  docs : int;
  delta_rows : int;
  merges : int;
}

(* Per-batch pending entity-link rebindings: key -> (eid to retract, eid to
   link).  Collapsing rebinds per batch keeps the delta free of same-batch
   insert-then-delete churn on one tuple. *)
type pending = (string, string option * string) Hashtbl.t

let current_eid t (pending : pending) key =
  match Hashtbl.find_opt pending key with
  | Some (_, eid) -> Some eid
  | None -> Hashtbl.find_opt t.el_bound key

let bind t pending key eid =
  match Hashtbl.find_opt pending key with
  | Some (prev, cur) -> if cur <> eid then Hashtbl.replace pending key (prev, eid)
  | None -> (
    match Hashtbl.find_opt t.el_bound key with
    | Some cur -> if cur <> eid then Hashtbl.replace pending key (Some cur, eid)
    | None -> Hashtbl.replace pending key (None, eid))

(* Resolve one mention surface to its (key, entity id): through the
   canonicalizer, or — forking baseline — the raw surface itself. *)
let resolve t surface =
  if t.canonicalize then
    let r = Canonicalizer.observe t.canon surface in
    (r.Canonicalizer.key, r.Canonicalizer.entity)
  else (surface, "ent:" ^ surface)

let declare_aliases t pending aliases =
  let merges = ref 0 in
  if t.canonicalize then
    List.iter
      (fun (a, b) ->
        ignore (Mention_finder.add_name t.dict a);
        ignore (Mention_finder.add_name t.dict b);
        match Canonicalizer.declare_alias t.canon a b with
        | None -> ()
        | Some m ->
          incr merges;
          List.iter
            (fun key ->
              match current_eid t pending key with
              | Some eid when eid = m.Canonicalizer.loser ->
                bind t pending key m.Canonicalizer.winner
              | Some _ | None -> ())
            m.Canonicalizer.loser_keys)
      aliases;
  !merges

let ingest_text t delta pending ~doc_id ~text ~names ~aliases =
  List.iter (fun name -> ignore (Mention_finder.add_name t.dict name)) names;
  let merges = declare_aliases t pending aliases in
  let sentences = ref 0 and pairs = ref 0 and n_mentions = ref 0 in
  List.iter
    (fun (_, sentence) ->
      incr sentences;
      let tokens = Tokenizer.tokenize sentence in
      let mentions = Mention_finder.find t.dict tokens in
      n_mentions := !n_mentions + List.length mentions;
      let resolved =
        List.map
          (fun m ->
            let key, eid = resolve t m.Mention_finder.surface in
            bind t pending key eid;
            (m, key))
          mentions
      in
      List.iteri
        (fun i (m1, key1) ->
          List.iteri
            (fun j (m2, key2) ->
              if i < j then begin
                let id = t.sid in
                t.sid <- id + 1;
                incr pairs;
                let ctx = Features.{ tokens; m1; m2 } in
                let phrase =
                  match Features.phrase_between ctx with Some p -> p | None -> "<none>"
                in
                Dred.Delta.insert delta "sentence"
                  [|
                    Value.int doc_id;
                    Value.int id;
                    Value.str phrase;
                    Value.str (Features.mention_distance_bucket ctx);
                  |];
                Dred.Delta.insert delta "mention"
                  [| Value.int id; Value.str (Printf.sprintf "m%d_0" id); Value.str key1; Value.int 0 |];
                Dred.Delta.insert delta "mention"
                  [| Value.int id; Value.str (Printf.sprintf "m%d_1" id); Value.str key2; Value.int 1 |]
              end)
            resolved)
        resolved)
    (Tokenizer.sentences text);
  (merges, !sentences, !pairs, !n_mentions)

let ingest t (batch : Batcher.batch) =
  let delta = Dred.Delta.create () in
  let pending : pending = Hashtbl.create 32 in
  let merges = ref 0 and sentences = ref 0 and pairs = ref 0 and mentions = ref 0 in
  List.iter
    (fun (doc : Source.doc) ->
      match doc.Source.payload with
      | Source.Text { text; names; aliases } ->
        let m, se, pa, me =
          ingest_text t delta pending ~doc_id:doc.Source.id ~text ~names ~aliases
        in
        merges := !merges + m;
        sentences := !sentences + se;
        pairs := !pairs + pa;
        mentions := !mentions + me)
    batch.Batcher.docs;
  (* Flush the batch's net entity-link changes. *)
  let inserts = ref 0 and retracts = ref 0 in
  let bindings =
    Hashtbl.fold (fun key change acc -> (key, change) :: acc) pending []
    |> List.sort compare
  in
  List.iter
    (fun (key, (prev, eid)) ->
      match prev with
      | Some p when p = eid -> ()
      | Some p ->
        Dred.Delta.delete delta "el" [| Value.str key; Value.str p |];
        Dred.Delta.insert delta "el" [| Value.str key; Value.str eid |];
        incr retracts;
        incr inserts
      | None ->
        Dred.Delta.insert delta "el" [| Value.str key; Value.str eid |];
        incr inserts)
    bindings;
  let delta_rows = Dred.Delta.total delta in
  let outcome = Txn.apply t.txn (Grounding.data_update delta) in
  (match outcome with
  | Ok _ ->
    (* Commit the binding view only on success; a quarantined batch rolled
       the engine (and its [el] relation) back. *)
    List.iter (fun (key, (_, eid)) -> Hashtbl.replace t.el_bound key eid) bindings
  | Error _ -> ());
  let docs = List.length batch.Batcher.docs in
  let quarantined = match outcome with Ok _ -> 0 | Error _ -> 1 in
  t.stats <-
    {
      docs = t.stats.docs + docs;
      batches = t.stats.batches + 1;
      sentences = t.stats.sentences + !sentences;
      pairs = t.stats.pairs + !pairs;
      mentions = t.stats.mentions + !mentions;
      merges = t.stats.merges + !merges;
      el_inserts = t.stats.el_inserts + !inserts;
      el_retracts = t.stats.el_retracts + !retracts;
      quarantined = t.stats.quarantined + quarantined;
    };
  { outcome; docs; delta_rows; merges = !merges }

let stats t = t.stats

let canonicalizer t = t.canon

let el_bindings t = Hashtbl.length t.el_bound

let entities_bound t =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter (fun _ eid -> Hashtbl.replace seen eid ()) t.el_bound;
  Hashtbl.length seen

(* --- state persistence ------------------------------------------------- *)

let encode_state t =
  Printf.sprintf "ddfeedstate 1 %d\n%s" t.sid (Canonicalizer.encode t.canon)

let decode_state text =
  match String.index_opt text '\n' with
  | None -> Error "truncated feed state"
  | Some i -> (
    let header = String.sub text 0 i in
    let rest = String.sub text (i + 1) (String.length text - i - 1) in
    match String.split_on_char ' ' header with
    | [ "ddfeedstate"; "1"; sid ] -> (
      match int_of_string_opt sid with
      | Some sid when sid >= 0 ->
        Result.map (fun canon -> (sid, canon)) (Canonicalizer.decode rest)
      | _ -> Error "bad feed-state sid")
    | _ -> Error "bad feed-state header")

(* --- deterministic stream driver --------------------------------------- *)

type run_summary = {
  run_docs : int;
  run_batches : int;
  busy_s : float;
  latencies_s : float array;
  run_quarantined : int;
}

let run t source batcher =
  let latencies = ref [] in
  let busy = ref 0.0 in
  let batches = ref 0 and docs = ref 0 and quarantined = ref 0 in
  (* Virtual stream clock: arrivals follow the source's timestamps; batch
     service times are measured on the wall clock and queue behind the
     previous batch, so latency = queueing + service without real sleeps. *)
  let now_v = ref 0.0 in
  let process (batch : Batcher.batch) =
    let start = max !now_v batch.Batcher.ready_s in
    let timer = Timer.start () in
    let report = ingest t batch in
    let service = Timer.elapsed_s timer in
    busy := !busy +. service;
    now_v := start +. service;
    incr batches;
    docs := !docs + report.docs;
    (match report.outcome with Ok _ -> () | Error _ -> incr quarantined);
    List.iter
      (fun (doc : Source.doc) ->
        latencies := (!now_v -. doc.Source.arrival_s) :: !latencies)
      batch.Batcher.docs
  in
  let rec pump () =
    match Source.next source with
    | None -> ( match Batcher.drain batcher with Some b -> process b | None -> ())
    | Some doc ->
      (match Batcher.push batcher doc with Some b -> process b | None -> ());
      pump ()
  in
  pump ();
  {
    run_docs = !docs;
    run_batches = !batches;
    busy_s = !busy;
    latencies_s = Array.of_list (List.rev !latencies);
    run_quarantined = !quarantined;
  }
