module Crc32 = Dd_util.Crc32
module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics

exception Format_error of string

let fail fmt = Printf.ksprintf (fun message -> raise (Format_error message)) fmt

let semantics_code = function
  | Semantics.Linear -> "linear"
  | Semantics.Logical -> "logical"
  | Semantics.Ratio -> "ratio"

let semantics_of_code code =
  match Semantics.of_string code with
  | Some s -> s
  | None -> fail "unknown semantics %s" code

(* The CRC-32 footer covers every byte from the header through the last
   body line (checksum and end lines excluded), so any single flipped or
   dropped byte is detected on load.
   Each line is its keyword followed by space-prefixed fields, written
   straight into one buffer with no per-token [Printf]; only a weight
   goes through [%.17g], which round-trips every double exactly. *)
let to_string g =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let rec digits n =
    if n >= 10 then digits (n / 10);
    Buffer.add_char b (Char.chr (48 + (n mod 10)))
  in
  let int n =
    Buffer.add_char b ' ';
    if n < 0 then add (string_of_int n) else digits n
  in
  let flag f = add (if f then " 1" else " 0") in
  add "ddgraph 2\nvars";
  int (Graph.num_vars g);
  add "\n";
  List.iter
    (fun (v, value) ->
      add "evidence";
      int v;
      flag value;
      add "\n")
    (Graph.evidence_vars g);
  for w = 0 to Graph.num_weights g - 1 do
    Printf.bprintf b "weight %.17g" (Graph.weight_value g w);
    flag (Graph.weight_learnable g w);
    add "\n"
  done;
  Graph.iter_factors
    (fun _ f ->
      add "factor";
      int (match f.Graph.head with Some h -> h | None -> -1);
      int f.Graph.weight_id;
      add " ";
      add (semantics_code f.Graph.semantics);
      int (Array.length f.Graph.bodies);
      Array.iter
        (fun body ->
          add " |";
          int (Array.length body);
          Array.iter
            (fun l ->
              int l.Graph.var;
              flag l.Graph.negated)
            body)
        f.Graph.bodies;
      add "\n")
    g;
  let body = Buffer.contents b in
  Printf.sprintf "%schecksum %s\nend\n" body (Crc32.to_hex (Crc32.string body))

(* Trailing content after [end] (for instance a duplicated [end] from a
   botched concatenation) means corruption. *)
let of_string text =
  let len = String.length text in
  (* [pos] is where the next unread line starts ([len + 1] once every
     line is read); [line_start] is where the last line read starts. *)
  let pos = ref 0 in
  let line_start = ref 0 in
  let next_line () =
    if !pos > len then None
    else begin
      let eol = Option.value (String.index_from_opt text !pos '\n') ~default:len in
      let l = String.sub text !pos (eol - !pos) in
      line_start := !pos;
      pos := eol + 1;
      Some l
    end
  in
  let expect_line () =
    match next_line () with Some l -> l | None -> fail "unexpected end of input"
  in
  if expect_line () <> "ddgraph 2" then fail "bad header (expected 'ddgraph 2')";
  let g = Graph.create () in
  let nvars =
    match String.split_on_char ' ' (expect_line ()) with
    | [ "vars"; n ] -> (
      match int_of_string_opt n with Some n -> n | None -> fail "bad vars count")
    | _ -> fail "expected vars line"
  in
  if nvars < 0 then fail "negative vars count";
  ignore (Graph.add_vars g nvars);
  let parse_factor rest =
    match rest with
    | head :: weight :: semantics :: nbodies :: tail ->
      let head = match int_of_string_opt head with Some h -> h | None -> fail "bad head" in
      if head >= nvars then fail "factor head variable %d out of range" head;
      let weight_id =
        match int_of_string_opt weight with Some w -> w | None -> fail "bad weight id"
      in
      if weight_id < 0 || weight_id >= Graph.num_weights g then
        fail "factor weight id %d out of range" weight_id;
      let semantics = semantics_of_code semantics in
      let expected_bodies =
        match int_of_string_opt nbodies with Some n -> n | None -> fail "bad body count"
      in
      let bodies = ref [] in
      let rec parse_bodies = function
        | [] -> ()
        | "|" :: nlits :: rest ->
          let nlits =
            match int_of_string_opt nlits with Some n -> n | None -> fail "bad literal count"
          in
          if nlits < 0 then fail "negative literal count";
          let lits = Array.make nlits { Graph.var = 0; negated = false } in
          let rest = ref rest in
          for i = 0 to nlits - 1 do
            match !rest with
            | var :: neg :: tail ->
              let var =
                match int_of_string_opt var with Some v -> v | None -> fail "bad literal var"
              in
              if var < 0 || var >= nvars then fail "literal variable %d out of range" var;
              lits.(i) <- { Graph.var; negated = neg = "1" };
              rest := tail
            | _ -> fail "truncated body"
          done;
          bodies := lits :: !bodies;
          parse_bodies !rest
        | token :: _ -> fail "unexpected token %s in factor" token
      in
      parse_bodies tail;
      let bodies = Array.of_list (List.rev !bodies) in
      if Array.length bodies <> expected_bodies then
        fail "body count mismatch (%d declared, %d found)" expected_bodies
          (Array.length bodies);
      ignore
        (Graph.add_factor g
           {
             Graph.head = (if head < 0 then None else Some head);
             bodies;
             weight_id;
             semantics;
           })
    | _ -> fail "truncated factor line"
  in
  let checksum_seen = ref false in
  let rec loop () =
    let l = expect_line () in
    let reject_after_checksum () =
      if !checksum_seen then fail "content after checksum footer"
    in
    match String.split_on_char ' ' l with
    | [ "end" ] -> if not !checksum_seen then fail "missing checksum footer"
    | [ "checksum"; hex ] ->
      reject_after_checksum ();
      (* The checksum covers every byte before its own line.  Compare
         the exact rendering the writer emits, so a digest that differs
         only in letter case is a flipped byte like any other. *)
      let computed = Crc32.to_hex (Crc32.string (String.sub text 0 !line_start)) in
      if hex <> computed then fail "checksum mismatch (declared %s, computed %s)" hex computed;
      checksum_seen := true;
      loop ()
    | "evidence" :: [ v; value ] ->
      reject_after_checksum ();
      let v = match int_of_string_opt v with Some v -> v | None -> fail "bad evidence var" in
      if v < 0 || v >= nvars then fail "evidence var out of range";
      Graph.set_evidence g v (Graph.Evidence (value = "1"));
      loop ()
    | "weight" :: [ value; learnable ] ->
      reject_after_checksum ();
      let value =
        match float_of_string_opt value with Some v -> v | None -> fail "bad weight"
      in
      ignore (Graph.add_weight ~learnable:(learnable = "1") g value);
      loop ()
    | "factor" :: rest ->
      reject_after_checksum ();
      parse_factor rest;
      loop ()
    | _ -> fail "unexpected line: %s" l
  in
  loop ();
  (match next_line () with
  | Some extra when String.trim extra <> "" -> fail "trailing content after end: %s" extra
  | Some _ | None -> ());
  g
