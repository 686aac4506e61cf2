type t = {
  name : string;
  schema : Schema.t;
  store : Column_store.t;
  (* Undo-log hook: called with (tuple, previous count) immediately before
     any mutation of that tuple's multiplicity.  Detached (None) outside a
     transaction; must be detached before marshalling the relation. *)
  mutable journal : (Tuple.t -> int -> unit) option;
}

let create ?(name = "<anon>") schema =
  { name; schema; store = Column_store.create schema; journal = None }

let store t = t.store

let set_journal t hook = t.journal <- hook

let name t = t.name

let schema t = t.schema

let cardinality t = Column_store.cardinality t.store

let mem t tup = Column_store.mem t.store tup

let count t tup = Column_store.count t.store tup

let notify_of t tup =
  match t.journal with
  | None -> None
  | Some f -> Some (fun prev -> f tup prev)

let check_insert t count tup =
  if count <= 0 then invalid_arg "Relation.insert: count must be positive";
  if not (Schema.conforms t.schema tup) then
    invalid_arg
      (Printf.sprintf "Relation.insert: tuple %s does not conform to %s%s"
         (Tuple.to_string tup) t.name
         (Format.asprintf "%a" Schema.pp t.schema))

let insert_prev ?(count = 1) t tup =
  check_insert t count tup;
  Column_store.insert_prev ~count ?notify:(notify_of t tup) t.store tup

let insert ?count t tup = ignore (insert_prev ?count t tup)

type loader = {
  lrel : t;
  lstore : Column_store.loader;
}

let loader t = { lrel = t; lstore = Column_store.loader t.store }

(* A journaled relation logs every tuple it gains, so it takes the
   per-tuple path (with a copy: the journal retains the tuple). *)
let load ?(count = 1) l tup =
  check_insert l.lrel count tup;
  match l.lrel.journal with
  | Some _ -> insert ~count l.lrel (Array.copy tup)
  | None -> Column_store.load l.lstore count tup

let finish_load l = Column_store.finish_load l.lstore

let remove ?(count = 1) t tup =
  if count <= 0 then invalid_arg "Relation.remove: count must be positive";
  Column_store.remove ~count ?notify:(notify_of t tup) t.store tup

let delete_all t tup = Column_store.delete_all ?notify:(notify_of t tup) t.store tup

let clear t = Column_store.clear ?notify:t.journal t.store

let iter f t = Column_store.iter f t.store

let fold f t init = Column_store.fold f t.store init

let to_list t = fold (fun tup _ acc -> tup :: acc) t []

let copy t = { t with store = Column_store.copy t.store; journal = None }

(* Bypasses the journal — this is the undo-log replay primitive, and
   replaying must not re-log. *)
let restore_count t tup target = Column_store.restore_count t.store tup target

let equal_contents a b =
  cardinality a = cardinality b
  && fold (fun tup c acc -> acc && count b tup = c) a true

(* Re-audit schema conformance and count positivity — [insert] enforces
   both on entry, but a relation restored from a durable snapshot bypassed
   insert entirely — then the store's structural audit (dictionary
   bijectivity, run sortedness, tail/base accounting). *)
let validate t =
  let contents =
    fold
      (fun tup c acc ->
        Result.bind acc (fun () ->
            if c <= 0 then
              Error (Printf.sprintf "%s: tuple %s has non-positive count %d" t.name (Tuple.to_string tup) c)
            else if not (Schema.conforms t.schema tup) then
              Error
                (Printf.sprintf "%s: tuple %s does not conform to schema%s" t.name
                   (Tuple.to_string tup)
                   (Format.asprintf "%a" Schema.pp t.schema))
            else Ok ()))
      t (Ok ())
  in
  Result.bind contents (fun () ->
      match Column_store.audit t.store with
      | Ok () -> Ok ()
      | Error m -> Error (Printf.sprintf "%s: columnar audit: %s" t.name m))
