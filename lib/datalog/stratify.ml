type stratum = {
  preds : string list;
  rules : Ast.rule list;
  recursive : bool;
}

module SSet = Set.Make (String)

(* Dependency edges head -> body predicate (IDB only), with a flag marking
   whether any occurrence is negated. *)
let edges program =
  let idb = SSet.of_list (Ast.idb_preds program) in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun lit ->
          let body = (Ast.atom_of_literal lit).Ast.pred in
          if SSet.mem body idb then begin
            let neg = not (Ast.is_positive lit) in
            let key = (Ast.head_pred r, body) in
            let prev = try Hashtbl.find table key with Not_found -> false in
            Hashtbl.replace table key (prev || neg)
          end)
        r.Ast.body)
    program;
  table

(* Tarjan's strongly-connected components over the predicate dependency
   graph; emitted in reverse topological order of the condensation (i.e.
   dependencies first), which is exactly bottom-up evaluation order. *)
let sccs preds successors =
  let index = Hashtbl.create 16 and lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (successors v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) preds;
  (* Tarjan emits components in reverse topological order of the
     condensation when edges point from dependent to dependency; our
     successors point head -> body (dependency), so components come out
     dependents-first — reverse to evaluate dependencies first. *)
  List.rev !components

let stratify program =
  match Ast.check_program program with
  | Error e -> Error e
  | Ok () ->
    let preds = Ast.idb_preds program in
    let es = edges program in
    let successors v =
      Hashtbl.fold (fun (h, b) _ acc -> if h = v then b :: acc else acc) es []
    in
    let components = sccs preds successors in
    (* Negation inside a component would be unstratifiable. *)
    let bad =
      List.exists
        (fun comp ->
          let in_comp p = List.mem p comp in
          Hashtbl.fold
            (fun (h, b) neg acc -> acc || (neg && in_comp h && in_comp b))
            es false)
        components
    in
    if bad then Error "negation is not stratified"
    else begin
      let strata =
        List.map
          (fun comp ->
            let rules = List.filter (fun r -> List.mem (Ast.head_pred r) comp) program in
            let self_loop =
              List.exists
                (fun r -> List.exists (fun b -> List.mem b comp) (Ast.body_preds r))
                rules
            in
            { preds = comp; rules; recursive = List.length comp > 1 || self_loop })
          components
      in
      Ok (List.filter (fun s -> s.preds <> []) strata)
    end
