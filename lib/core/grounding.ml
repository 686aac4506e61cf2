module Graph = Dd_fgraph.Graph
module Value = Dd_relational.Value
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Database = Dd_relational.Database
module Ast = Dd_datalog.Ast
module Engine = Dd_datalog.Engine
module Plan = Dd_datalog.Plan
module Dred = Dd_datalog.Dred

(* Typed failure taxonomy of the update path, shared with the
   transactional supervisor ({!Txn}): the class decides which rung of the
   degradation ladder can help (retry helps a [`Transient], nothing helps
   a [`Malformed_delta]). *)
type error =
  [ `Malformed_delta of string
  | `Transient of string
  | `Inference_timeout of string
  | `Internal of string ]

exception Error of error

let error_message : error -> string = function
  | `Malformed_delta m -> "malformed delta: " ^ m
  | `Transient m -> "transient: " ^ m
  | `Inference_timeout m -> "inference timeout: " ^ m
  | `Internal m -> "internal: " ^ m

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Grounding.Error (" ^ error_message e ^ ")")
    | _ -> None)

type t = {
  db : Database.t;
  mutable prog : Program.t;
  graph : Graph.t;
  var_table : (string, Graph.var Tuple.Hashtbl.t) Hashtbl.t;
  origins : (Graph.var, string * Tuple.t) Hashtbl.t;
  weight_table : (string, Graph.weight_id) Hashtbl.t;
  weight_names : (Graph.weight_id, string) Hashtbl.t;
  factor_table : (string, int) Hashtbl.t;  (* factor-group key -> factor id *)
  plans : Plan.Cache.t;  (* compiled join plans, shared across incremental steps *)
}

type stats = {
  variables : int;
  factors : int;
  weights : int;
  evidence : int;
}

let graph t = t.graph

let database t = t.db

let program t = t.prog

let stats t =
  {
    variables = Graph.num_vars t.graph;
    factors = Graph.num_factors t.graph;
    weights = Graph.num_weights t.graph;
    evidence = List.length (Graph.evidence_vars t.graph);
  }

let relation_vars t pred =
  match Hashtbl.find_opt t.var_table pred with
  | Some table -> table
  | None ->
    let table = Tuple.Hashtbl.create 64 in
    Hashtbl.replace t.var_table pred table;
    table

let var_of t pred tuple = Tuple.Hashtbl.find_opt (relation_vars t pred) tuple

let origin t v = Hashtbl.find t.origins v

let vars_of_relation t pred =
  Tuple.Hashtbl.fold (fun tuple v acc -> (tuple, v) :: acc) (relation_vars t pred) []

let weight_key_of t w =
  try Hashtbl.find t.weight_names w with Not_found -> "<unknown>"

let marginals_by_relation t marginals =
  List.concat_map
    (fun (pred, _) ->
      List.map (fun (tuple, v) -> (pred, tuple, marginals.(v))) (vars_of_relation t pred))
    t.prog.Program.query_relations

(* --- variable and evidence management ------------------------------------ *)

let create_var t pred tuple =
  let table = relation_vars t pred in
  match Tuple.Hashtbl.find_opt table tuple with
  | Some v -> v
  | None ->
    let v = Graph.add_var t.graph in
    Tuple.Hashtbl.replace table tuple v;
    Hashtbl.replace t.origins v (pred, tuple);
    v

(* Majority label over the evidence companion for one candidate tuple: the
   companion can hold [tuple ++ [true]] and [tuple ++ [false]], one vote
   each, so two membership probes decide it. *)
let evidence_label t query_pred tuple =
  match Database.find_opt t.db (Program.evidence_relation query_pred) with
  | None -> None
  | Some ev ->
    let vote label = if Relation.mem ev (Array.append tuple [| Value.Bool label |]) then 1 else 0 in
    let votes = vote true - vote false in
    if votes > 0 then Some true else if votes < 0 then Some false else None

let apply_evidence_to_var t query_pred tuple v =
  match evidence_label t query_pred tuple with
  | None -> ()
  | Some label -> Graph.set_evidence t.graph v (Graph.Evidence label)

(* --- factor construction -------------------------------------------------- *)

(* An inference rule compiled once against its plan's slots: grounding
   reads the head, the weight terms and the query atoms of each body
   grounding straight from the plan's slot rows, through scratch buffers,
   and builds no per-grounding tuple, environment or key string. *)
type term =
  | Tconst of Value.t
  | Tslot of int * string  (* slot, variable name *)

type query_atom = {
  qpred : string;
  qvars : Graph.var Tuple.Hashtbl.t;  (* the relation's variable table *)
  qterms : term array;
  qbuf : Value.t array;
  qnegated : bool;
}

(* Pending factor groups are keyed by (head variable, weight-term values);
   [probe_key] is the one key every lookup reuses. *)
type group_key = {
  mutable kvar : Graph.var;
  kw : Value.t array;
}

module GH = Hashtbl.Make (struct
  type t = group_key

  let equal a b =
    a.kvar = b.kvar
    && Array.length a.kw = Array.length b.kw
    &&
    let i = ref 0 in
    while !i < Array.length a.kw && Value.equal a.kw.(!i) b.kw.(!i) do
      incr i
    done;
    !i = Array.length a.kw

  let hash k =
    let h = ref k.kvar in
    for i = 0 to Array.length k.kw - 1 do
      h := (!h * 31) + Value.hash k.kw.(i)
    done;
    !h land max_int
end)

(* Weight creation is deferred to {!flush_groups}: creating weights at
   [add_grounding] time would assign weight ids in discovery order, which
   depends on the store's physical layout (sorted run, delta tail, where
   the last compaction fell).  The group records what is needed to create
   the weight at flush, where groups are processed in sorted key order —
   so var, weight and factor ids are all canonical functions of the
   grounded content, and graphs are bit-identical whatever the layout. *)
type group = {
  head_var : Graph.var;
  head_tuple : Tuple.t;  (* the first grounding's head values *)
  grule : Program.inference_rule;
  wvals : Value.t array;  (* the first grounding's weight-term values *)
  mutable new_bodies : Graph.literal array list;
}

(* Every group created since the last flush, newest first. *)
type pending = group list ref

type template = {
  rule : Program.inference_rule;
  pending : pending;
  head_pred : string;
  head_vars : Graph.var Tuple.Hashtbl.t;
  head : term array;
  head_buf : Value.t array;
  query_atoms : query_atom array;  (* body literals over query relations *)
  wterms : term array;  (* tied-weight terms; [||] for a fixed weight *)
  probe_key : group_key;
  open_groups : group GH.t;
}

(* A relation's variable table, or a fresh empty one when the relation has
   no variables (lookups then miss, as they would). *)
let var_table_of t pred =
  match Hashtbl.find_opt t.var_table pred with
  | Some table -> table
  | None -> Tuple.Hashtbl.create 1

(* A rule whose head or weight mentions a variable its body never binds:
   the program (or the delta that added the rule) is bad. *)
let unbound name =
  raise (Error (`Malformed_delta ("unbound variable " ^ name ^ " in rule head or weight")))

let compile_template t pending plan (r : Program.inference_rule) =
  let term = function
    | Ast.Const c -> Tconst c
    | Ast.Var name -> (
      match Plan.slot plan name with Some s -> Tslot (s, name) | None -> unbound name)
  in
  let terms (atom : Ast.atom) = Array.of_list (List.map term atom.Ast.args) in
  let head = terms r.Program.head in
  let query_atoms =
    List.filter_map
      (fun literal ->
        let atom = Ast.atom_of_literal literal in
        if Program.is_query_relation t.prog atom.Ast.pred then begin
          let qterms = terms atom in
          Some
            {
              qpred = atom.Ast.pred;
              qvars = var_table_of t atom.Ast.pred;
              qterms;
              qbuf = Array.make (Array.length qterms) Value.Null;
              qnegated = not (Ast.is_positive literal);
            }
        end
        else None)
      r.Program.body
  in
  let wterms =
    match r.Program.weight with
    | Program.Fixed _ -> [||]
    | Program.Tied ts -> Array.of_list (List.map term ts)
  in
  {
    rule = r;
    pending;
    head_pred = r.Program.head.Ast.pred;
    head_vars = var_table_of t r.Program.head.Ast.pred;
    head;
    head_buf = Array.make (Array.length head) Value.Null;
    query_atoms = Array.of_list query_atoms;
    wterms;
    probe_key = { kvar = 0; kw = Array.make (Array.length wterms) Value.Null };
    open_groups = GH.create 256;
  }

let term_value row = function
  | Tconst c -> c
  | Tslot (s, name) ->
    let v = row.(s) in
    if Value.equal v Value.Null then unbound name else v

let fill buf terms row =
  for k = 0 to Array.length terms - 1 do
    buf.(k) <- term_value row terms.(k)
  done

exception Missing_candidate of string * Tuple.t

let find_var table pred buf =
  try Tuple.Hashtbl.find table buf
  with Not_found -> raise (Missing_candidate (pred, Array.copy buf))

(* The factor body of one grounding: literals over query-relation atoms;
   deterministic atoms are already satisfied by the match and drop out. *)
let grounding_body tpl row =
  Array.map
    (fun q ->
      fill q.qbuf q.qterms row;
      { Graph.var = find_var q.qvars q.qpred q.qbuf; negated = q.qnegated })
    tpl.query_atoms

(* Groundings of a non-populating rule that touch a candidate that does
   not exist are dropped, as in DeepDive; for populating rules a missing
   candidate is an internal invariant violation. *)
let rec add_grounding tpl row =
  match add_grounding_strict tpl row with
  | () -> ()
  | exception Missing_candidate (pred, tuple) ->
    if tpl.rule.Program.populate_head then
      (* The deterministic pass guarantees a candidate row (and thus a
         variable) for every grounding of a populating rule; a miss means
         the engine's own bookkeeping is inconsistent. *)
      raise
        (Error
           (`Internal
             (Printf.sprintf "no variable for %s%s (rule %s)" pred (Tuple.to_string tuple)
                tpl.rule.Program.name)))

and add_grounding_strict tpl row =
  fill tpl.head_buf tpl.head row;
  let head_var = find_var tpl.head_vars tpl.head_pred tpl.head_buf in
  let key = tpl.probe_key in
  fill key.kw tpl.wterms row;
  let body = grounding_body tpl row in
  key.kvar <- head_var;
  let group =
    match GH.find tpl.open_groups key with
    | g -> g
    | exception Not_found ->
      let g =
        {
          head_var;
          head_tuple = Array.copy tpl.head_buf;
          grule = tpl.rule;
          wvals = Array.copy key.kw;
          new_bodies = [];
        }
      in
      tpl.pending := g :: !(tpl.pending);
      GH.replace tpl.open_groups { kvar = head_var; kw = g.wvals } g;
      g
  in
  group.new_bodies <- body :: group.new_bodies

(* The canonical strings: the weight key ("rule|feature") and the factor
   group key ("rule#head#weight key"), built once per group. *)
let weight_key g =
  let r = g.grule in
  match r.Program.weight with
  | Program.Fixed _ -> r.Program.name ^ "|<fixed>"
  | Program.Tied _ ->
    r.Program.name ^ "|" ^ String.concat "," (Array.to_list (Array.map Value.to_string g.wvals))

let find_or_create_weight t (r : Program.inference_rule) key =
  match Hashtbl.find_opt t.weight_table key with
  | Some w -> w
  | None ->
    let value, learnable =
      match r.Program.weight with
      | Program.Fixed w -> (w, false)
      | Program.Tied _ -> (0.0, true)
    in
    let w = Graph.add_weight ~learnable t.graph value in
    Hashtbl.replace t.weight_table key w;
    Hashtbl.replace t.weight_names w key;
    w

(* Bodies in the order polymorphic [compare] gives: length first, then
   literal by literal, [var] before [negated]. *)
let compare_bodies (a : Graph.literal array) (b : Graph.literal array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let c = ref 0 and i = ref 0 in
    while !c = 0 && !i < la do
      let x = a.(!i) and y = b.(!i) in
      c := Int.compare x.Graph.var y.Graph.var;
      if !c = 0 then c := Bool.compare x.Graph.negated y.Graph.negated;
      incr i
    done;
    !c
  end

(* Flush pending groups into the graph.  Returns the number of new and
   of extended factors.  Groups are flushed in sorted key order and each
   group's bodies in sorted literal order, so weight and factor ids — and
   every factor's body layout — depend only on the set of groundings, not
   on the order the store's layout yielded them in.  Groups whose key
   strings coincide (distinct values that print alike) form one factor,
   led by the group created first. *)
let flush_groups t pending =
  let buf = Buffer.create 128 in
  let keyed =
    List.rev_map
      (fun g ->
        let wkey = weight_key g in
        Buffer.clear buf;
        Buffer.add_string buf g.grule.Program.name;
        Buffer.add_string buf "#(";
        Array.iteri
          (fun k v ->
            if k > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Value.to_string v))
          g.head_tuple;
        Buffer.add_string buf ")#";
        Buffer.add_string buf wkey;
        (Buffer.contents buf, wkey, g))
      !pending
  in
  (* oldest first, and stable: a key's first group leads it *)
  let keyed = List.stable_sort (fun (a, _, _) (b, _, _) -> String.compare a b) keyed in
  let new_factors = ref 0 and extended = ref 0 in
  let flush key wkey lead bodies =
    let bodies = Array.of_list bodies in
    Array.sort compare_bodies bodies;
    match Hashtbl.find_opt t.factor_table key with
    | Some fid ->
      Graph.extend_factor t.graph fid bodies;
      incr extended
    | None ->
      let weight_id = find_or_create_weight t lead.grule wkey in
      let fid =
        Graph.add_factor t.graph
          {
            Graph.head = Some lead.head_var;
            bodies;
            weight_id;
            semantics = lead.grule.Program.semantics;
          }
      in
      Hashtbl.replace t.factor_table key fid;
      incr new_factors
  in
  let rec go = function
    | [] -> ()
    | (key, wkey, lead) :: rest ->
      let rec same acc = function
        | (k, _, g) :: tl when String.equal k key -> same (List.rev_append g.new_bodies acc) tl
        | tl -> (acc, tl)
      in
      let bodies, rest = same lead.new_bodies rest in
      flush key wkey lead bodies;
      go rest
  in
  go keyed;
  (!new_factors, !extended)

let inference_rule_ast (r : Program.inference_rule) =
  Ast.rule ~guards:r.Program.guards r.Program.head r.Program.body

(* --- full grounding ------------------------------------------------------- *)

let ground db prog =
  (match Program.validate prog with
  | Ok () -> ()
  | Error e -> raise (Error (`Malformed_delta ("Grounding.ground: " ^ e))));
  (* Pre-create declared tables so schemas are authoritative. *)
  List.iter
    (fun (name, schema) ->
      if not (Database.mem db name) then ignore (Database.create_table db name schema))
    (prog.Program.input_schemas @ prog.Program.query_relations);
  let plans = Plan.Cache.create () in
  Engine.run_exn ~plans db (Program.deterministic_program prog);
  let t =
    {
      db;
      prog;
      graph = Graph.create ();
      var_table = Hashtbl.create 16;
      origins = Hashtbl.create 1024;
      weight_table = Hashtbl.create 64;
      weight_names = Hashtbl.create 64;
      factor_table = Hashtbl.create 1024;
      plans;
    }
  in
  (* One variable per query tuple, with evidence labels.  Tuples are
     processed in sorted order so var ids do not depend on the store's
     iteration order (sorted run, tail, or where compaction fell). *)
  List.iter
    (fun (pred, _) ->
      match Database.find_opt db pred with
      | None -> ()
      | Some rel ->
        let tuples = Relation.fold (fun tuple _ acc -> tuple :: acc) rel [] in
        List.iter
          (fun tuple ->
            let v = create_var t pred tuple in
            apply_evidence_to_var t pred tuple v)
          (List.sort Tuple.compare tuples))
    prog.Program.query_relations;
  (* Ground the inference rules through compiled plans. *)
  let lookup = Plan.view_of_lookup (Engine.lookup_in db) in
  List.iter
    (fun r ->
      let pending = ref [] in
      let plan = Plan.Cache.full t.plans (inference_rule_ast r) in
      let tpl = compile_template t pending plan r in
      Plan.iter_rows plan ~lookup ~f:(fun row _ -> add_grounding tpl row);
      ignore (flush_groups t pending))
    (Program.inference_rules prog);
  t

(* --- incremental grounding ------------------------------------------------ *)

type update = {
  edb : Dred.Delta.t option;
  new_rules : Program.rule list;
}

let data_update delta = { edb = Some delta; new_rules = [] }

let rules_update rules = { edb = None; new_rules = rules }

type report = {
  new_vars : int;
  new_factors : int;
  extended : int;
  evidence_changed : int;
  flips : int;
  needs_rebuild : bool;
}

(* Datalog rules contributed by a program rule (for seeding new rules). *)
let datalog_of_rule = function
  | Program.Deterministic (_, rule) -> [ rule ]
  | Program.Supervise (_, rule) -> [ rule ]
  | Program.Infer r ->
    if r.Program.populate_head then
      [ Ast.rule ~guards:r.Program.guards r.Program.head r.Program.body ]
    else []

let extend ?(budget = Dd_util.Budget.unlimited) t update =
  let phase_timer = Dd_util.Timer.start () in
  let last_phase = ref 0.0 in
  let phase name =
    let now = Dd_util.Timer.elapsed_s phase_timer in
    Logs.debug (fun m -> m "Grounding.extend %s: %.4fs" name (now -. !last_phase));
    last_phase := now
  in
  let old_prog = t.prog in
  let new_prog = Program.add_rules old_prog update.new_rules in
  (match Program.validate new_prog with
  | Ok () -> ()
  | Error e -> raise (Error (`Malformed_delta ("Grounding.extend: " ^ e))));
  let full_program = Program.deterministic_program new_prog in
  let old_inference = Program.inference_rules old_prog in
  (* Evaluate new rules against the pre-update state to seed DRed. *)
  let lookup = Engine.lookup_in t.db in
  let view_lookup = Plan.view_of_lookup lookup in
  let seeds =
    List.concat_map
      (fun rule ->
        List.map
          (fun ast -> (Ast.head_pred ast, Plan.run (Plan.Cache.full t.plans ast) ~lookup:view_lookup))
          (datalog_of_rule rule))
      update.new_rules
  in
  phase "seeds";
  let edb = match update.edb with Some d -> d | None -> Dred.Delta.create () in
  let flips =
    match Dred.apply ~plans:t.plans ~seeds ~budget t.db full_program edb with
    | Ok f -> f
    | Error e -> raise (Error (`Malformed_delta ("Grounding.extend: " ^ e)))
  in
  phase "dred";
  (* Crash here = base tables already mutated by DRed, graph untouched. *)
  Dd_util.Fault.hit "grounding.extend.post_dred";
  t.prog <- new_prog;
  (* Canonicalize a flip list: group the signed entries per tuple (keeping
     each tuple's chronological sign sequence) and replay tuples in sorted
     order.  DRed discovers flips in storage-iteration order, which depends
     on the store's physical layout (sorted run, tail, or where compaction
     fell); per-tuple chronology is the only order that carries meaning
     (later signs supersede earlier ones), so this is semantics-preserving
     and layout-independent. *)
  let canonical_flips entries =
    let per_tuple = Tuple.Hashtbl.create 16 in
    let tuples = ref [] in
    List.iter
      (fun (tuple, sign) ->
        match Tuple.Hashtbl.find_opt per_tuple tuple with
        | Some signs -> signs := sign :: !signs
        | None ->
          Tuple.Hashtbl.replace per_tuple tuple (ref [ sign ]);
          tuples := tuple :: !tuples)
      entries;
    List.concat_map
      (fun tuple ->
        List.rev_map (fun sign -> (tuple, sign)) !(Tuple.Hashtbl.find per_tuple tuple))
      (List.sort Tuple.compare !tuples)
  in
  (* New variables and clamped deletions. *)
  let new_vars = ref 0 in
  let evidence_changed = ref 0 in
  let clamped = Hashtbl.create 16 in
  List.iter
    (fun (pred, _) ->
      List.iter
        (fun (tuple, sign) ->
          if sign > 0 then begin
            let v = create_var t pred tuple in
            incr new_vars;
            apply_evidence_to_var t pred tuple v
          end
          else begin
            match var_of t pred tuple with
            | None -> ()
            | Some v ->
              let old_evidence = Graph.evidence_of t.graph v in
              Graph.set_evidence t.graph v (Graph.Evidence false);
              Hashtbl.replace clamped v ();
              if old_evidence <> Graph.Evidence false then incr evidence_changed
          end)
        (canonical_flips (Dred.Delta.flips flips pred)))
    new_prog.Program.query_relations;
  (* Evidence companion changes re-label affected candidates. *)
  List.iter
    (fun (pred, _) ->
      let ev_pred = Program.evidence_relation pred in
      let touched = Tuple.Hashtbl.create 16 in
      List.iter
        (fun (ev_tuple, _) ->
          let arity = Array.length ev_tuple - 1 in
          if arity >= 0 then Tuple.Hashtbl.replace touched (Array.sub ev_tuple 0 arity) ())
        (Dred.Delta.flips flips ev_pred);
      let touched = Tuple.Hashtbl.fold (fun tuple () acc -> tuple :: acc) touched [] in
      List.iter
        (fun tuple ->
          match var_of t pred tuple with
          | None -> ()
          | Some v ->
            if not (Hashtbl.mem clamped v) then begin
              let old_evidence = Graph.evidence_of t.graph v in
              let fresh =
                match evidence_label t pred tuple with
                | Some label -> Graph.Evidence label
                | None -> Graph.Query
              in
              if fresh <> old_evidence then begin
                Graph.set_evidence t.graph v fresh;
                incr evidence_changed
              end
            end)
        (List.sort Tuple.compare touched))
    new_prog.Program.query_relations;
  phase "vars+evidence";
  (* Staged grounding of existing inference rules over the flips.  The
     pre-update state of every predicate is a snapshot-free [Plan.Patched]
     view reconstructed from the net membership flips DRed reported — the
     old [Relation.copy] of every inference-rule body predicate is gone. *)
  let needs_rebuild = ref false in
  let pending = ref [] in
  let after_views : (string, Plan.view) Hashtbl.t = Hashtbl.create 16 in
  let after_lookup pred =
    match Hashtbl.find_opt after_views pred with
    | Some v -> v
    | None ->
      let v =
        match Dred.Delta.flips flips pred with
        | [] -> Plan.whole (lookup pred)
        | pred_flips ->
          (* Net sign per tuple: a delete-then-rederive sequence cancels. *)
          let net = Tuple.Hashtbl.create 16 in
          List.iter
            (fun (tuple, sign) ->
              let cur = try Tuple.Hashtbl.find net tuple with Not_found -> 0 in
              Tuple.Hashtbl.replace net tuple (cur + sign))
            pred_flips;
          let minus = Tuple.Hashtbl.create 8 and plus = Tuple.Hashtbl.create 8 in
          Tuple.Hashtbl.iter
            (fun tuple sign ->
              if sign > 0 then Tuple.Hashtbl.replace minus tuple ()
              else if sign < 0 then Tuple.Hashtbl.replace plus tuple ())
            net;
          Plan.patched ~base:(lookup pred) ~minus ~plus
      in
      Hashtbl.replace after_views pred v;
      v
  in
  List.iter
    (fun r ->
      let ast = inference_rule_ast r in
      (* one template per rule: every plan of a rule has the same slots *)
      let tpl = lazy (compile_template t pending (Plan.Cache.full t.plans ast) r) in
      List.iteri
        (fun pos literal ->
          let pred = (Ast.atom_of_literal literal).Ast.pred in
          match Dred.Delta.flips flips pred with
          | [] -> ()
          | pred_flips ->
            let delta =
              if Ast.is_positive literal then pred_flips
              else List.map (fun (tup, s) -> (tup, -s)) pred_flips
            in
            let tpl = Lazy.force tpl in
            Plan.iter_rows_staged
              (Plan.Cache.delta t.plans ast ~delta_pos:pos)
              ~before:view_lookup ~after:after_lookup ~delta
              ~f:(fun row count ->
                if count > 0 then add_grounding tpl row
                else if count < 0 then begin
                  (* A lost grounding is harmless when one of its factor
                     body variables (or head) was clamped false; otherwise
                     the graph would need a rebuild to stay exact. *)
                  match grounding_body tpl row with
                  | exception Missing_candidate _ -> ()
                  | body ->
                    fill tpl.head_buf tpl.head row;
                    let head_clamped =
                      match Tuple.Hashtbl.find_opt tpl.head_vars tpl.head_buf with
                      | Some hv -> Hashtbl.mem clamped hv
                      | None -> false
                    in
                    let body_clamped =
                      Array.exists
                        (fun l -> (not l.Graph.negated) && Hashtbl.mem clamped l.Graph.var)
                        body
                    in
                    if not (head_clamped || body_clamped) then needs_rebuild := true
                end))
        r.Program.body)
    old_inference;
  (* Full grounding of brand-new inference rules (post-update state) and
     the flush, skipped when a rebuild will discard this graph. *)
  if not !needs_rebuild then
    List.iter
      (function
        | Program.Infer r ->
          let plan = Plan.Cache.full t.plans (inference_rule_ast r) in
          let tpl = compile_template t pending plan r in
          Plan.iter_rows plan ~lookup:view_lookup ~f:(fun row _ -> add_grounding tpl row)
        | Program.Deterministic _ | Program.Supervise _ -> ())
      update.new_rules;
  phase "staged-factors";
  let new_factors, extended = if !needs_rebuild then (0, 0) else flush_groups t pending in
  {
    new_vars = !new_vars;
    new_factors;
    extended;
    evidence_changed = !evidence_changed;
    flips = Dred.Delta.total flips;
    needs_rebuild = !needs_rebuild;
  }

(* --- transactional marks -------------------------------------------------- *)

(* The grounding tables are append-only keyed by graph ids (vars, weights,
   factors monotonically increasing), so a pre-update snapshot is just the
   three counters plus the program value; rollback prunes every entry at
   or above a recorded counter.  The graph itself is rolled back
   separately ({!Graph.rollback}), and the database through the relation
   journals — both owned by the engine's transaction. *)
type mark = {
  m_prog : Program.t;
  m_vars : int;
  m_weights : int;
  m_factors : int;
}

let mark t =
  {
    m_prog = t.prog;
    m_vars = Graph.num_vars t.graph;
    m_weights = Graph.num_weights t.graph;
    m_factors = Graph.num_factors t.graph;
  }

(* Idempotent: pruning by id thresholds converges, and the plan cache is
   keyed by rule ASTs so entries for rolled-back rules are merely unused,
   never wrong. *)
let rollback t m =
  t.prog <- m.m_prog;
  Hashtbl.iter
    (fun _pred table ->
      let doomed =
        Tuple.Hashtbl.fold
          (fun tuple v acc -> if v >= m.m_vars then (tuple, v) :: acc else acc)
          table []
      in
      List.iter
        (fun (tuple, v) ->
          Tuple.Hashtbl.remove table tuple;
          Hashtbl.remove t.origins v)
        doomed)
    t.var_table;
  let doomed_weights =
    Hashtbl.fold
      (fun key w acc -> if w >= m.m_weights then (key, w) :: acc else acc)
      t.weight_table []
  in
  List.iter
    (fun (key, w) ->
      Hashtbl.remove t.weight_table key;
      Hashtbl.remove t.weight_names w)
    doomed_weights;
  let doomed_factors =
    Hashtbl.fold
      (fun key fid acc -> if fid >= m.m_factors then key :: acc else acc)
      t.factor_table []
  in
  List.iter (Hashtbl.remove t.factor_table) doomed_factors
