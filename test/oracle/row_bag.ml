(* A counted row bag: tuples in one hashtable with their multiplicities —
   the obvious implementation of the bag [Relation] keeps, and the
   reference the column store is checked against under random mutation
   programs.  [hash_index] is the hash-index builder the reference
   matcher joins through. *)

module Tuple = Dd_relational.Tuple
module Relation = Dd_relational.Relation

type t = int Tuple.Hashtbl.t

let create () : t = Tuple.Hashtbl.create 64

let multiplicity (t : t) tup = Option.value (Tuple.Hashtbl.find_opt t tup) ~default:0

let restore_count (t : t) tup n =
  if n <= 0 then Tuple.Hashtbl.remove t tup else Tuple.Hashtbl.replace t tup n

let insert ?(count = 1) t tup = restore_count t tup (multiplicity t tup + count)

let remove ?(count = 1) t tup =
  let current = multiplicity t tup in
  let removed = min count current in
  restore_count t tup (current - removed);
  removed

let delete_all (t : t) tup = Tuple.Hashtbl.remove t tup

let clear (t : t) = Tuple.Hashtbl.reset t

let cardinality (t : t) = Tuple.Hashtbl.length t

let total_count (t : t) = Tuple.Hashtbl.fold (fun _ c acc -> acc + c) t 0

(* Same distinct tuples with the same multiplicities as [r]. *)
let equal_relation t r =
  cardinality t = Relation.cardinality r
  && Tuple.Hashtbl.fold (fun tup c ok -> ok && Relation.count r tup = c) t true

(* Every tuple of [r] bucketed under its projection on [key_cols], with its
   multiplicity.  Built fresh per call: the reference favours obviousness
   over speed. *)
let hash_index r key_cols =
  let index = Hashtbl.create (max 16 (Relation.cardinality r)) in
  Relation.iter
    (fun tup c ->
      let key = Tuple.project tup key_cols in
      let bucket =
        match Hashtbl.find_opt index key with
        | Some b -> b
        | None ->
          let b = Tuple.Hashtbl.create 4 in
          Hashtbl.replace index key b;
          b
      in
      Tuple.Hashtbl.replace bucket tup c)
    r;
  index
