type token = {
  text : string;
  start_offset : int;
  end_offset : int;
  index : int;
}

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_punct c =
  match c with
  | '.' | ',' | ';' | ':' | '!' | '?' | '(' | ')' | '"' | '\'' -> true
  | _ -> false

let tokenize input =
  let n = String.length input in
  let out = ref [] in
  let count = ref 0 in
  let emit start_offset end_offset =
    if end_offset > start_offset then begin
      out :=
        {
          text = String.sub input start_offset (end_offset - start_offset);
          start_offset;
          end_offset;
          index = !count;
        }
        :: !out;
      incr count
    end
  in
  let word_start = ref (-1) in
  let flush upto = if !word_start >= 0 then emit !word_start upto; word_start := -1 in
  for i = 0 to n - 1 do
    let c = input.[i] in
    if is_space c then flush i
    else if is_punct c then begin
      flush i;
      emit i (i + 1)
    end
    else if !word_start < 0 then word_start := i
  done;
  flush n;
  List.rev !out

let sentences input =
  let n = String.length input in
  let out = ref [] in
  let start = ref 0 in
  let flush stop =
    let raw = String.sub input !start (stop - !start) in
    let trimmed = String.trim raw in
    if trimmed <> "" then begin
      (* Find the trimmed text's true offset. *)
      let lead = ref 0 in
      while !lead < String.length raw && is_space raw.[!lead] do
        incr lead
      done;
      out := (!start + !lead, trimmed) :: !out
    end;
    start := stop
  in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if (c = '.' || c = '!' || c = '?') && (!i + 1 >= n || is_space input.[!i + 1]) then
      flush (!i + 1);
    incr i
  done;
  flush n;
  List.rev !out

let slice tokens i j = List.filter (fun t -> t.index >= i && t.index < j) tokens

let normalize word =
  let lower = String.lowercase_ascii word in
  let n = String.length lower in
  let is_alnum c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') in
  let first = ref 0 and last = ref (n - 1) in
  while !first < n && not (is_alnum lower.[!first]) do
    incr first
  done;
  while !last >= !first && not (is_alnum lower.[!last]) do
    decr last
  done;
  if !last < !first then "" else String.sub lower !first (!last - !first + 1)
