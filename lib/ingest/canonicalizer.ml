(* Cross-document entity canonicalization: normalized-string keys, a
   declared-alias (synonym) table, and a growable union-find merging
   surface forms into stable canonical entities.

   Canonical-id discipline: each set's id derives from its earliest
   registered key ("ent:" ^ key of the minimum node id).  A merge between
   two established sets keeps the older id — the younger one is reported
   to the caller as the loser, together with its member keys, so the
   entity-link tuples bound to it can be retracted and rederived as a
   delta.  The older-id-wins rule makes the combined set's id equal to the
   winner's id, so winner-side bindings never move. *)

module Union_find = Dd_util.Union_find
module Mention_finder = Dd_text.Mention_finder

type t = {
  uf : Union_find.t;
  node_of_key : (string, int) Hashtbl.t;
  key_of_node : (int, string) Hashtbl.t;
  min_of_root : (int, int) Hashtbl.t;  (* current root -> min member id *)
  members_of_root : (int, int list) Hashtbl.t;  (* current root -> members *)
  alias_seen : (string * string, unit) Hashtbl.t;  (* unordered, normalized *)
  mutable aliases : (string * string) list;  (* newest first *)
}

let create () =
  {
    uf = Union_find.create 0;
    node_of_key = Hashtbl.create 64;
    key_of_node = Hashtbl.create 64;
    min_of_root = Hashtbl.create 64;
    members_of_root = Hashtbl.create 64;
    alias_seen = Hashtbl.create 64;
    aliases = [];
  }

let key_exn what surface =
  match Mention_finder.normalize_name surface with
  | "" -> invalid_arg (Printf.sprintf "Canonicalizer.%s: surface normalizes to nothing: %S" what surface)
  | key -> key

let key_of t node = Hashtbl.find t.key_of_node node

let canonical_of_root t root = "ent:" ^ key_of t (Hashtbl.find t.min_of_root root)

let canonical_of_node t node = canonical_of_root t (Union_find.find t.uf node)

let register t key =
  let node = Union_find.add t.uf in
  Hashtbl.replace t.node_of_key key node;
  Hashtbl.replace t.key_of_node node key;
  Hashtbl.replace t.min_of_root node node;
  Hashtbl.replace t.members_of_root node [ node ];
  node

type resolution = {
  key : string;
  entity : string;
  fresh_key : bool;
  fresh_entity : bool;
}

let observe t surface =
  let key = key_exn "observe" surface in
  match Hashtbl.find_opt t.node_of_key key with
  | Some node -> { key; entity = canonical_of_node t node; fresh_key = false; fresh_entity = false }
  | None ->
    let node = register t key in
    { key; entity = canonical_of_node t node; fresh_key = true; fresh_entity = true }

let resolve t surface =
  match Mention_finder.normalize_name surface with
  | "" -> None
  | key ->
    Option.map (fun node -> canonical_of_node t node) (Hashtbl.find_opt t.node_of_key key)

type merge = { winner : string; loser : string; loser_keys : string list }

let members_of t root =
  List.sort compare (try Hashtbl.find t.members_of_root root with Not_found -> [])

let declare_alias t a b =
  let ka = key_exn "declare_alias" a and kb = key_exn "declare_alias" b in
  let pair = if ka <= kb then (ka, kb) else (kb, ka) in
  if not (Hashtbl.mem t.alias_seen pair) then begin
    Hashtbl.replace t.alias_seen pair ();
    t.aliases <- pair :: t.aliases
  end;
  if ka = kb then None
  else begin
    let na, fresh_a =
      match Hashtbl.find_opt t.node_of_key ka with
      | Some n -> (n, false)
      | None -> (register t ka, true)
    in
    let nb, fresh_b =
      match Hashtbl.find_opt t.node_of_key kb with
      | Some n -> (n, false)
      | None -> (register t kb, true)
    in
    let ra = Union_find.find t.uf na and rb = Union_find.find t.uf nb in
    if ra = rb then None
    else begin
      let ma = Hashtbl.find t.min_of_root ra and mb = Hashtbl.find t.min_of_root rb in
      (* The set holding the earliest-registered member keeps its id. *)
      let win_root, lose_root = if ma < mb then (ra, rb) else (rb, ra) in
      let winner = canonical_of_root t win_root in
      let loser = canonical_of_root t lose_root in
      let lose_members = members_of t lose_root in
      let combined =
        (try Hashtbl.find t.members_of_root ra with Not_found -> [])
        @ (try Hashtbl.find t.members_of_root rb with Not_found -> [])
      in
      Union_find.union t.uf na nb;
      let root = Union_find.find t.uf na in
      Hashtbl.remove t.min_of_root ra;
      Hashtbl.remove t.min_of_root rb;
      Hashtbl.remove t.members_of_root ra;
      Hashtbl.remove t.members_of_root rb;
      Hashtbl.replace t.min_of_root root (min ma mb);
      Hashtbl.replace t.members_of_root root combined;
      (* A set that did not exist before this call has no bindings to
         rebind — unioning it in is growth, not a merge event. *)
      if fresh_a || fresh_b then None
      else Some { winner; loser; loser_keys = List.map (key_of t) lose_members }
    end
  end

let entities t = Union_find.count t.uf

let all_keys t = List.init (Union_find.length t.uf) (key_of t)

let members t entity =
  match String.index_opt entity ':' with
  | None -> []
  | Some i -> (
    let key = String.sub entity (i + 1) (String.length entity - i - 1) in
    match Hashtbl.find_opt t.node_of_key key with
    | None -> []
    | Some node ->
      let root = Union_find.find t.uf node in
      if canonical_of_root t root <> entity then []
      else List.map (key_of t) (members_of t root))

let alias_pairs t = List.rev t.aliases

(* --- serialization ---------------------------------------------------------

   Canonical text layout, one [Dd_util.Record] frame tagged [ddcanon 2]
   around

     keys <n>
     <key of node 0> ... <key of node n-1>   (one per line)
     canon <n ints>                           (min member id per node)
     aliases <m>
     <a>\t<b>                                 (one per line, oldest first)

   Keys contain no control characters (token normalization strips
   whitespace), so line- and tab-delimiting is unambiguous.  The [canon]
   array is derived from set structure, not union-find internals, so
   decode→encode is byte-identical regardless of path-compression state. *)

let record_tag = "ddcanon 2"

let encode t =
  let n = Union_find.length t.uf in
  let body = Buffer.create (64 * (n + 1)) in
  Buffer.add_string body (Printf.sprintf "keys %d\n" n);
  for node = 0 to n - 1 do
    Buffer.add_string body (key_of t node);
    Buffer.add_char body '\n'
  done;
  Buffer.add_string body "canon";
  for node = 0 to n - 1 do
    Buffer.add_string body
      (Printf.sprintf " %d" (Hashtbl.find t.min_of_root (Union_find.find t.uf node)))
  done;
  Buffer.add_char body '\n';
  let aliases = alias_pairs t in
  Buffer.add_string body (Printf.sprintf "aliases %d\n" (List.length aliases));
  List.iter
    (fun (a, b) -> Buffer.add_string body (Printf.sprintf "%s\t%s\n" a b))
    aliases;
  Dd_util.Record.frame record_tag (Buffer.contents body)

exception Malformed of string

let decode text =
  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  match
    let rest =
      match Dd_util.Record.decode record_tag text with
      | Ok payload -> String.split_on_char '\n' payload
      | Error m -> fail "%s" m
    in
    let take = function
      | line :: rest -> (line, rest)
      | [] -> fail "truncated"
    in
    let expect_count name line =
      match String.split_on_char ' ' line with
      | [ tag; n ] when tag = name -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> n
        | _ -> fail "bad %s count" name)
      | _ -> fail "expected %s line" name
    in
    let header, rest = take rest in
    let n = expect_count "keys" header in
    let rec split_keys acc k rest =
      if k = 0 then (List.rev acc, rest)
      else
        let key, rest = take rest in
        if key = "" then fail "empty key" else split_keys (key :: acc) (k - 1) rest
    in
    let key_list, rest = split_keys [] n rest in
    let canon_line, rest = take rest in
    let canon =
      match String.split_on_char ' ' canon_line with
      | "canon" :: ids ->
        let ids = List.filter (fun s -> s <> "") ids in
        if List.length ids <> n then fail "canon arity %d <> %d" (List.length ids) n;
        Array.of_list
          (List.map
             (fun s ->
               match int_of_string_opt s with
               | Some v when v >= 0 && v < n -> v
               | _ -> fail "bad canon id %s" s)
             ids)
      | _ -> fail "expected canon line"
    in
    let header, rest = take rest in
    let m = expect_count "aliases" header in
    let rec split_aliases acc k rest =
      if k = 0 then (List.rev acc, rest)
      else
        let line, rest = take rest in
        match String.index_opt line '\t' with
        | None -> fail "bad alias line"
        | Some i ->
          let a = String.sub line 0 i in
          let b = String.sub line (i + 1) (String.length line - i - 1) in
          if a = "" || b = "" then fail "empty alias key";
          split_aliases ((a, b) :: acc) (k - 1) rest
    in
    let aliases, rest = split_aliases [] m rest in
    if rest <> [ "" ] then fail "trailing content after aliases";
    let t = create () in
    List.iter
      (fun key ->
        if Hashtbl.mem t.node_of_key key then fail "duplicate key %s" key;
        ignore (register t key))
      key_list;
    Array.iteri
      (fun node canonical ->
        if canonical <> node then begin
          if canonical > node then fail "canon id %d after node %d" canonical node;
          let ra = Union_find.find t.uf node and rb = Union_find.find t.uf canonical in
          if ra <> rb then begin
            let members =
              (try Hashtbl.find t.members_of_root ra with Not_found -> [])
              @ (try Hashtbl.find t.members_of_root rb with Not_found -> [])
            in
            Union_find.union t.uf node canonical;
            let root = Union_find.find t.uf node in
            Hashtbl.remove t.min_of_root ra;
            Hashtbl.remove t.min_of_root rb;
            Hashtbl.remove t.members_of_root ra;
            Hashtbl.remove t.members_of_root rb;
            Hashtbl.replace t.min_of_root root canonical;
            Hashtbl.replace t.members_of_root root members
          end
        end)
      canon;
    (* Cross-check the rebuilt structure against the recorded canon map. *)
    Array.iteri
      (fun node canonical ->
        let root = Union_find.find t.uf node in
        if Hashtbl.find t.min_of_root root <> canonical then
          fail "inconsistent canon map at node %d" node)
      canon;
    List.iter
      (fun (a, b) ->
        let pair = if a <= b then (a, b) else (b, a) in
        if not (Hashtbl.mem t.alias_seen pair) then begin
          Hashtbl.replace t.alias_seen pair ();
          t.aliases <- pair :: t.aliases
        end)
      aliases;
    t
  with
  | t -> Ok t
  | exception Malformed m -> Error m
