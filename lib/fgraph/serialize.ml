module Crc32 = Dd_util.Crc32

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

(* v2 writer: identical body to v1 plus a CRC-32 footer over every byte
   from the header through the last body line (checksum and end lines
   excluded), so any single flipped or dropped byte is detected on load. *)
let to_string g =
  let buffer = Buffer.create 4096 in
  let crc = ref Crc32.init in
  let emit s =
    crc := Crc32.update_string !crc s;
    Buffer.add_string buffer s
  in
  emit "ddgraph 2\n";
  emit (Printf.sprintf "vars %d\n" (Graph.num_vars g));
  List.iter
    (fun (v, value) -> emit (Printf.sprintf "evidence %d %d\n" v (if value then 1 else 0)))
    (Graph.evidence_vars g);
  for w = 0 to Graph.num_weights g - 1 do
    emit
      (Printf.sprintf "weight %.17g %d\n" (Graph.weight_value g w)
         (if Graph.weight_learnable g w then 1 else 0))
  done;
  Graph.iter_factors
    (fun _ f ->
      let buffer = Buffer.create 64 in
      let head = match f.Graph.head with Some h -> h | None -> -1 in
      Buffer.add_string buffer
        (Printf.sprintf "factor %d %d %s %d" head f.Graph.weight_id
           (semantics_code f.Graph.semantics)
           (Array.length f.Graph.bodies));
      Array.iter
        (fun body ->
          Buffer.add_string buffer (Printf.sprintf " | %d" (Array.length body));
          Array.iter
            (fun l ->
              Buffer.add_string buffer
                (Printf.sprintf " %d %d" l.Graph.var (if l.Graph.negated then 1 else 0)))
            body)
        f.Graph.bodies;
      Buffer.add_char buffer '\n';
      emit (Buffer.contents buffer))
    g;
  let digest = Crc32.finish !crc in
  emit (Printf.sprintf "checksum %s\n" (Crc32.to_hex digest));
  emit "end\n";
  Buffer.contents buffer

let read_lines next_line =
  let crc = ref Crc32.init in
  let expect_line () =
    match next_line () with
    | Some l ->
      crc := Crc32.update_string !crc (l ^ "\n");
      l
    | None -> fail "unexpected end of input"
  in
  let version =
    match String.split_on_char ' ' (expect_line ()) with
    | [ "ddgraph"; "1" ] -> 1
    | [ "ddgraph"; "2" ] -> 2
    | _ -> fail "bad header (expected 'ddgraph 1' or 'ddgraph 2')"
  in
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
    (* The checksum covers every line before its own, so snapshot the
       running digest before consuming the next line. *)
    let body_crc = Crc32.finish !crc in
    let l = expect_line () in
    let reject_after_checksum () =
      if !checksum_seen then fail "content after checksum footer"
    in
    match String.split_on_char ' ' l with
    | [ "end" ] ->
      if version >= 2 && not !checksum_seen then fail "missing checksum footer"
    | [ "checksum"; hex ] ->
      reject_after_checksum ();
      if version < 2 then fail "unexpected checksum line in ddgraph 1";
      (match Crc32.of_hex hex with
      | None -> fail "malformed checksum %s" hex
      | Some declared ->
        if declared <> body_crc then
          fail "checksum mismatch (declared %s, computed %s)" hex (Crc32.to_hex body_crc));
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
  g

(* Trailing content after [end] (for instance a duplicated [end] from a
   botched concatenation) means corruption. *)
let of_string text =
  let lines = ref (String.split_on_char '\n' text) in
  let next_line () =
    match !lines with
    | [] -> None
    | l :: rest ->
      lines := rest;
      Some l
  in
  let g = read_lines next_line in
  (match next_line () with
  | Some extra when String.trim extra <> "" -> fail "trailing content after end: %s" extra
  | Some _ | None -> ());
  g
