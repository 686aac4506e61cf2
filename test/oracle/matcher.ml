module Value = Dd_relational.Value
module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation
module Schema = Dd_relational.Schema
module Ast = Dd_datalog.Ast

type lookup = string -> Relation.t

module StringSet = Set.Make (String)

(* [length_at_least n l] without walking past the [n]th cons cell — the
   index-or-scan heuristics below only care whether a list clears a small
   threshold, and deltas/frontiers can be very long. *)
let rec length_at_least n l =
  n <= 0 || (match l with [] -> false | _ :: tl -> length_at_least (n - 1) tl)

let empty_relation = Relation.create ~name:"<empty>" (Schema.make [])

(* A binding maps variable slots to values; [None] means unbound.  All
   bindings in a frontier share the same set of bound slots because the
   frontier advances one literal at a time. *)
let make_slots rule =
  let slots = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace slots v i) (Ast.rule_vars rule);
  slots

let slot_of slots v = Hashtbl.find slots v

let term_value slots (binding : Value.t array) = function
  | Ast.Const c -> Some c
  | Ast.Var v ->
    let value = binding.(slot_of slots v) in
    if Value.equal value Value.Null then None else Some value

(* Unify an atom's argument list against a concrete tuple under a binding.
   Returns the extended binding, or [None] on mismatch.  [Value.Null] marks
   unbound slots, which is sound because stored data never contains Null in
   join positions for our programs; a Null in data would simply fail to
   distinguish itself, so we additionally guard inserts at the relation
   level. *)
(* The argument list is converted to an array once per literal by the
   callers, so the per-tuple loop does no list traversal (the old code paid
   a [List.length] walk per candidate tuple). *)
let unify slots binding (args : Ast.term array) tuple =
  if Array.length tuple <> Array.length args then None
  else begin
    let fresh = Array.copy binding in
    let ok = ref true in
    Array.iteri
      (fun i arg ->
        if !ok then
          match arg with
          | Ast.Const c -> if not (Value.equal c tuple.(i)) then ok := false
          | Ast.Var v ->
            let s = slot_of slots v in
            let current = fresh.(s) in
            if Value.equal current Value.Null then fresh.(s) <- tuple.(i)
            else if not (Value.equal current tuple.(i)) then ok := false)
      args;
    if !ok then Some fresh else None
  end

let bound_arg_positions slots atom first =
  List.mapi (fun i a -> (i, a)) atom.Ast.args
  |> List.filter (fun (_, arg) ->
         match arg with
         | Ast.Const _ -> true
         | Ast.Var v -> not (Value.equal first.(slot_of slots v) Value.Null))
  |> List.map fst

(* Match a positive atom against an explicit (tuple, count) list, indexing
   the list on the bound argument positions when possible so large
   frontiers probe rather than scan. *)
let match_against_list slots atom tuples rows =
  match rows with
  | [] -> []
  | (first, _) :: _ ->
    (* Once per literal, not per binding or per tuple. *)
    let args = Array.of_list atom.Ast.args in
    let arity = Array.length args in
    let scan tuples rows =
      List.concat_map
        (fun (binding, count) ->
          List.filter_map
            (fun (tuple, tcount) ->
              match unify slots binding args tuple with
              | Some fresh -> Some (fresh, count * tcount)
              | None -> None)
            tuples)
        rows
    in
    let bound = bound_arg_positions slots atom first in
    if bound = [] || not (length_at_least 8 tuples) || not (length_at_least 8 rows) then
      scan tuples rows
    else begin
      let key_positions = Array.of_list bound in
      let index = Hashtbl.create (List.length tuples) in
      List.iter
        (fun ((tuple, _) as entry) ->
          if Array.length tuple = arity then begin
            let key = Tuple.project tuple key_positions in
            let existing = try Hashtbl.find index key with Not_found -> [] in
            Hashtbl.replace index key (entry :: existing)
          end)
        tuples;
      List.concat_map
        (fun (binding, count) ->
          let key =
            Array.map
              (fun pos ->
                match args.(pos) with
                | Ast.Const c -> c
                | Ast.Var v -> binding.(slot_of slots v))
              key_positions
          in
          match Hashtbl.find_opt index key with
          | None -> []
          | Some entries ->
            List.filter_map
              (fun (tuple, tcount) ->
                match unify slots binding args tuple with
                | Some fresh -> Some (fresh, count * tcount)
                | None -> None)
              entries)
        rows
    end

(* Match a positive atom against a relation, using a hash index on the
   argument positions that are bound (constants or already-bound vars).
   All bindings in [rows] share the same bound-slot set, so the key shape
   is uniform. *)
let match_against_relation slots atom rel rows =
  match rows with
  | [] -> []
  | (first, _) :: _ ->
    let bound_positions = bound_arg_positions slots atom first in
    if bound_positions = [] then begin
      (* Membership is what matters for a grounding; stored multiplicities
         (derivation counts) do not multiply into downstream counts. *)
      let tuples = List.map (fun t -> (t, 1)) (Relation.to_list rel) in
      match_against_list slots atom tuples rows
    end
    else begin
      let key_positions = Array.of_list bound_positions in
      let index = Row_bag.hash_index rel key_positions in
      let args = Array.of_list atom.Ast.args in
      List.concat_map
        (fun (binding, count) ->
          let key =
            Array.map
              (fun pos ->
                match args.(pos) with
                | Ast.Const c -> c
                | Ast.Var v -> binding.(slot_of slots v))
              key_positions
          in
          match Hashtbl.find_opt index key with
          | None -> []
          | Some bucket ->
            Tuple.Hashtbl.fold
              (fun tuple _ acc ->
                match unify slots binding args tuple with
                | Some fresh -> (fresh, count) :: acc
                | None -> acc)
              bucket [])
        rows
    end

let all_bound slots binding vars =
  List.for_all (fun v -> not (Value.equal binding.(slot_of slots v) Value.Null)) vars

let guard_holds slots binding g =
  let value t =
    match term_value slots binding t with
    | Some v -> v
    | None -> invalid_arg "Matcher: guard on unbound variable"
  in
  match g with
  | Ast.Eq (a, b) -> Value.equal (value a) (value b)
  | Ast.Neq (a, b) -> not (Value.equal (value a) (value b))
  | Ast.Lt (a, b) -> Value.compare (value a) (value b) < 0
  | Ast.Le (a, b) -> Value.compare (value a) (value b) <= 0

let guard_vars = function
  | Ast.Eq (a, b) | Ast.Neq (a, b) | Ast.Lt (a, b) | Ast.Le (a, b) ->
    Ast.term_vars a @ Ast.term_vars b

(* Evaluate the body with per-position resolution.  [resolve pos atom]
   returns either a relation or an explicit delta list for the literal at
   [pos].  Deferred negations carry the resolver chosen at their position. *)
type source = Rel of Relation.t | Explicit of (Tuple.t * int) list

let eval_body ?order rule ~(resolve : int -> Ast.atom -> [ `Positive | `Negative ] -> source) =
  let slots = make_slots rule in
  let nslots = Hashtbl.length slots in
  let initial = [ (Array.make nslots Value.Null, 1) ] in
  let pending_negs : (Ast.atom * source) list ref = ref [] in
  let pending_guards = ref rule.Ast.guards in
  let apply_negation rows (atom, src) =
    List.filter
      (fun (binding, _) ->
        let tuple =
          Array.of_list
            (List.map
               (fun arg ->
                 match term_value slots binding arg with
                 | Some v -> v
                 | None -> invalid_arg "Matcher: negation on unbound variable")
               atom.Ast.args)
        in
        match src with
        | Rel rel -> not (Relation.mem rel tuple)
        | Explicit tuples -> not (List.exists (fun (t, _) -> Tuple.equal t tuple) tuples))
      rows
  in
  let flush_ready rows =
    let ready_negs, still_negs =
      List.partition
        (fun (atom, _) -> all_bound slots (fst (List.hd rows)) (Ast.atom_vars atom))
        (match rows with [] -> [] | _ -> !pending_negs)
    in
    pending_negs := still_negs;
    let rows = List.fold_left apply_negation rows ready_negs in
    match rows with
    | [] -> []
    | (first, _) :: _ ->
      let ready_guards, still_guards =
        List.partition (fun g -> all_bound slots first (guard_vars g)) !pending_guards
      in
      pending_guards := still_guards;
      List.filter
        (fun (binding, _) -> List.for_all (guard_holds slots binding) ready_guards)
        rows
  in
  let step frontier pos literal =
    match frontier with
    | [] -> frontier
    | rows ->
      let atom = Ast.atom_of_literal literal in
      let polarity = if Ast.is_positive literal then `Positive else `Negative in
      let source = resolve pos atom polarity in
      let rows =
        match (literal, source) with
        | Ast.Pos _, Rel rel -> match_against_relation slots atom rel rows
        | Ast.Pos _, Explicit tuples -> match_against_list slots atom tuples rows
        | Ast.Neg _, Explicit tuples ->
          (* A negated literal in delta position: match the flip tuples
             positively; signs live in the counts. *)
          match_against_list slots atom tuples rows
        | Ast.Neg _, Rel _ ->
          if all_bound slots (fst (List.hd rows)) (Ast.atom_vars atom) then
            apply_negation rows (atom, source)
          else begin
            pending_negs := (atom, source) :: !pending_negs;
            rows
          end
      in
      flush_ready rows
  in
  let literals = Array.of_list rule.Ast.body in
  let order =
    match order with
    | Some o -> o
    | None -> List.init (Array.length literals) (fun i -> i)
  in
  let final =
    List.fold_left (fun frontier pos -> step frontier pos literals.(pos)) initial order
  in
  (* Empty-body rules never enter [flush_ready]; force guard evaluation. *)
  let rows =
    match final with
    | [] -> []
    | rows ->
      let remaining_negs = !pending_negs in
      let rows = List.fold_left apply_negation rows remaining_negs in
      List.filter
        (fun (binding, _) -> List.for_all (guard_holds slots binding) !pending_guards)
        rows
  in
  (slots, rows)

let head_tuple slots binding (head : Ast.atom) =
  Array.of_list
    (List.map
       (fun arg ->
         match term_value slots binding arg with
         | Some v -> v
         | None -> invalid_arg "Matcher: unbound head variable (unsafe rule?)")
       head.Ast.args)

let collect_heads rule slots rows =
  let acc = Tuple.Hashtbl.create 64 in
  List.iter
    (fun (binding, count) ->
      let tuple = head_tuple slots binding rule.Ast.head in
      let current = try Tuple.Hashtbl.find acc tuple with Not_found -> 0 in
      Tuple.Hashtbl.replace acc tuple (current + count))
    rows;
  Tuple.Hashtbl.fold
    (fun tuple count out -> if count = 0 then out else (tuple, count) :: out)
    acc []

let eval_rule ~lookup rule =
  let resolve _ atom _ = Rel (lookup atom.Ast.pred) in
  let slots, rows = eval_body rule ~resolve in
  collect_heads rule slots rows

(* Consuming the (usually small) delta literal first keeps the frontier
   tiny; the remaining literals follow a greedy connectivity order (most
   already-bound variables first) so every join step can use an index
   probe.  Resolution still keys off the original body position, so the
   new-before / old-after staging is unchanged. *)
let delta_first_order rule delta_pos =
  let literals = Array.of_list rule.Ast.body in
  let vars_of i = Ast.atom_vars (Ast.atom_of_literal literals.(i)) in
  let n = Array.length literals in
  let remaining = ref (List.filter (fun i -> i <> delta_pos) (List.init n (fun i -> i))) in
  let bound = ref (StringSet.of_list (vars_of delta_pos)) in
  let order = ref [ delta_pos ] in
  while !remaining <> [] do
    let score i =
      List.length (List.filter (fun v -> StringSet.mem v !bound) (vars_of i))
    in
    let best =
      List.fold_left
        (fun acc i -> match acc with
          | None -> Some i
          | Some j -> if score i > score j then Some i else acc)
        None !remaining
    in
    match best with
    | None -> remaining := []
    | Some i ->
      order := i :: !order;
      remaining := List.filter (fun j -> j <> i) !remaining;
      bound := List.fold_left (fun acc v -> StringSet.add v acc) !bound (vars_of i)
  done;
  List.rev !order

let eval_rule_staged ~before ~after ~delta_pos ~delta rule =
  let resolve pos atom _ =
    if pos = delta_pos then Explicit delta
    else if pos < delta_pos then Rel (before atom.Ast.pred)
    else Rel (after atom.Ast.pred)
  in
  let slots, rows = eval_body ~order:(delta_first_order rule delta_pos) rule ~resolve in
  collect_heads rule slots rows

let binding_env slots binding (v : string) =
  match Hashtbl.find_opt slots v with
  | None -> None
  | Some s ->
    let value = binding.(s) in
    if Value.equal value Value.Null then None else Some value

let eval_rule_bindings ~lookup rule =
  let resolve _ atom _ = Rel (lookup atom.Ast.pred) in
  let slots, rows = eval_body rule ~resolve in
  List.map (fun (binding, _) -> binding_env slots binding) rows

let eval_rule_bindings_staged ~before ~after ~delta_pos ~delta rule =
  let resolve pos atom _ =
    if pos = delta_pos then Explicit delta
    else if pos < delta_pos then Rel (before atom.Ast.pred)
    else Rel (after atom.Ast.pred)
  in
  let slots, rows = eval_body ~order:(delta_first_order rule delta_pos) rule ~resolve in
  List.map (fun (binding, count) -> (binding_env slots binding, count)) rows
