(* Disjoint-set forest with union by rank, path compression, and dynamic
   growth: the backing arrays double when [add] runs past capacity, so
   streaming consumers (entity canonicalization) can register elements as
   they first appear instead of sizing the structure up front. *)

type t = {
  mutable parent : int array;
  mutable rank : int array;
  mutable length : int;  (* elements in use; capacity is Array.length parent *)
}

let create n =
  let capacity = max n 1 in
  {
    parent = Array.init capacity (fun i -> i);
    rank = Array.make capacity 0;
    length = n;
  }

let length t = t.length

let check t x =
  if x < 0 || x >= t.length then
    invalid_arg (Printf.sprintf "Union_find: element %d outside [0, %d)" x t.length)

let add t =
  let x = t.length in
  if x = Array.length t.parent then begin
    let capacity = 2 * Array.length t.parent in
    let parent = Array.init capacity (fun i -> i) in
    Array.blit t.parent 0 parent 0 x;
    let rank = Array.make capacity 0 in
    Array.blit t.rank 0 rank 0 x;
    t.parent <- parent;
    t.rank <- rank
  end;
  t.parent.(x) <- x;
  t.rank.(x) <- 0;
  t.length <- x + 1;
  x

let rec find_unchecked t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find_unchecked t p in
    t.parent.(x) <- root;
    root
  end

let find t x =
  check t x;
  find_unchecked t x

let union t x y =
  check t x;
  check t y;
  let rx = find_unchecked t x and ry = find_unchecked t y in
  if rx <> ry then
    if t.rank.(rx) < t.rank.(ry) then t.parent.(rx) <- ry
    else if t.rank.(rx) > t.rank.(ry) then t.parent.(ry) <- rx
    else begin
      t.parent.(ry) <- rx;
      t.rank.(rx) <- t.rank.(rx) + 1
    end

let count t =
  let seen = Hashtbl.create 16 in
  for x = 0 to t.length - 1 do
    Hashtbl.replace seen (find_unchecked t x) ()
  done;
  Hashtbl.length seen
