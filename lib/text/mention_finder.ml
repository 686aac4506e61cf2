type mention = {
  surface : string;
  first_token : int;
  last_token : int;
  start_offset : int;
  end_offset : int;
}

(* A token-trie over normalized name words: each node maps the next word to
   a child, and records whether a name ends here. *)
type node = { children : (string, node) Hashtbl.t; mutable terminal : bool }

(* The trie plus the set of case-normalized keys already inserted, so a
   streaming dictionary can grow without accumulating duplicate entries
   ("Obama", "OBAMA" and "obama." are one name) and callers can observe
   whether an insertion was new. *)
type dictionary = { root : node; keys : (string, unit) Hashtbl.t }

let make_node () = { children = Hashtbl.create 4; terminal = false }

let name_words name =
  List.filter_map
    (fun t ->
      let w = Tokenizer.normalize t.Tokenizer.text in
      if w = "" then None else Some w)
    (Tokenizer.tokenize name)

let normalize_name name = String.concat " " (name_words name)

let add_name dict name =
  let words = name_words name in
  if words = [] then false
  else begin
    let key = String.concat " " words in
    if Hashtbl.mem dict.keys key then false
    else begin
      Hashtbl.replace dict.keys key ();
      let rec insert node = function
        | [] -> node.terminal <- true
        | word :: rest ->
          let child =
            match Hashtbl.find_opt node.children word with
            | Some c -> c
            | None ->
              let c = make_node () in
              Hashtbl.replace node.children word c;
              c
          in
          insert child rest
      in
      insert dict.root words;
      true
    end
  end

let dictionary names =
  let dict = { root = make_node (); keys = Hashtbl.create 64 } in
  List.iter (fun name -> ignore (add_name dict name)) names;
  dict

let size dict = Hashtbl.length dict.keys

let mem dict name =
  match name_words name with
  | [] -> false
  | words -> Hashtbl.mem dict.keys (String.concat " " words)

let find dict tokens =
  let root = dict.root in
  let arr = Array.of_list tokens in
  let n = Array.length arr in
  let norm = Array.map (fun t -> Tokenizer.normalize t.Tokenizer.text) arr in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    (* Longest match starting at token !i. *)
    let best = ref (-1) in
    let rec walk node j =
      if node.terminal then best := j - 1;
      if j < n then
        match Hashtbl.find_opt node.children norm.(j) with
        | Some child -> walk child (j + 1)
        | None -> ()
    in
    (match Hashtbl.find_opt root.children norm.(!i) with
    | Some child -> walk child (!i + 1)
    | None -> ());
    if !best >= !i then begin
      let first = arr.(!i) and last = arr.(!best) in
      out :=
        {
          surface =
            String.concat " "
              (List.map (fun t -> t.Tokenizer.text) (Tokenizer.slice tokens !i (!best + 1)));
          first_token = !i;
          last_token = !best;
          start_offset = first.Tokenizer.start_offset;
          end_offset = last.Tokenizer.end_offset;
        }
        :: !out;
      i := !best + 1
    end
    else incr i
  done;
  List.rev !out
