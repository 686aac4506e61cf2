(* Length- and CRC-32-framed records: the one integrity format behind
   every checksummed durable artifact.  A record is

     <tag> <len> <crc32-hex>\n<len payload bytes>\n

   and the reader checks tag, length, exact read, terminator and checksum
   before it hands out a single payload byte. *)

exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let header tag payload =
  Printf.sprintf "%s %d %s\n" tag (String.length payload) (Crc32.to_hex (Crc32.string payload))

let terminator = "\n"

let frames records =
  String.concat "" (List.concat_map (fun (tag, p) -> [ header tag p; p; terminator ]) records)

let frame tag payload = frames [ (tag, payload) ]

type reader = { data : string; mutable pos : int }

let of_string data = { data; pos = 0 }

let of_file path = of_string (Fault_file.read_file path)

(* The header sits outside the checksum, so accept exactly the bytes
   [header] writes: canonical decimal length, lowercase hex digest. *)
let parse_length s =
  let canonical =
    s <> ""
    && String.length s <= 18
    && String.for_all (fun c -> c >= '0' && c <= '9') s
    && (s.[0] <> '0' || s = "0")
  in
  if canonical then int_of_string_opt s else None

let read r tag =
  let n = String.length r.data in
  let eol =
    match String.index_from_opt r.data r.pos '\n' with
    | Some i -> i
    | None -> fail "%s: truncated header" tag
  in
  let prefix = tag ^ " " in
  let line = String.sub r.data r.pos (eol - r.pos) in
  if not (String.starts_with ~prefix line) then fail "expected a %s record" tag;
  let fields = String.sub line (String.length prefix) (String.length line - String.length prefix) in
  let len, crc =
    match String.split_on_char ' ' fields with
    | [ len; crc ] -> (
      match parse_length len with Some len -> (len, crc) | None -> fail "%s: bad length" tag)
    | _ -> fail "%s: bad header" tag
  in
  let start = eol + 1 in
  if len > n - start - 1 then fail "%s: truncated payload" tag;
  if r.data.[start + len] <> '\n' then fail "%s: missing terminator" tag;
  let payload = String.sub r.data start len in
  if Crc32.to_hex (Crc32.string payload) <> crc then fail "%s: checksum mismatch" tag;
  r.pos <- start + len + 1;
  payload

let finish r = if r.pos < String.length r.data then fail "trailing bytes after the last record"

let decode tag s =
  match
    let r = of_string s in
    let payload = read r tag in
    finish r;
    payload
  with
  | payload -> Ok payload
  | exception Malformed m -> Error m
