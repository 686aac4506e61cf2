(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   The checksum of the ddgraph v2 footer and of every [Record] frame. *)

let polynomial = 0xEDB88320l

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor polynomial (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

type t = int32

let init : t = 0xFFFFFFFFl

let update_string crc s =
  let table = Lazy.force table in
  let crc = ref crc in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl) in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  !crc

let finish crc = Int32.logxor crc 0xFFFFFFFFl

let string s = finish (update_string init s)

let to_hex crc = Printf.sprintf "%08lx" crc

let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let of_hex s =
  if String.length s <> 8 || not (String.for_all is_hex_digit s) then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v -> Some (Int64.to_int32 v)
    | None -> None
