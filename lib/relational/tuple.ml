type t = Value.t array

(* [equal] and [compare] loop at top level, so neither allocates a
   closure: lookups and sorts call them per probe and per pair. *)
let rec equal_from a b i = i = Array.length a || (Value.equal a.(i) b.(i) && equal_from a b (i + 1))

let equal a b = Array.length a = Array.length b && equal_from a b 0

(* Lexicographic, a proper prefix first. *)
let rec compare_from a b i =
  let la = Array.length a and lb = Array.length b in
  if i >= la && i >= lb then 0
  else if i >= la then -1
  else if i >= lb then 1
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b = compare_from a b 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

let to_string t =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string t)) ^ ")"

let project t idxs = Array.map (fun i -> t.(i)) idxs

let concat = Array.append

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Hashtbl = Hashtbl.Make (Key)
module Set = Set.Make (Key)
module Map = Map.Make (Key)
