(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
   The checksum of the ddgraph v2 footer and of every [Record] frame.

   The running register lives in a native int (32 significant bits), so
   the loop boxes nothing; only the [int32] handed back to the caller is
   boxed.  [table] holds eight 256-entry slices back to back: slice 0 is
   the classic bytewise table, and slice [k] advances a byte through [k]
   further zero bytes, which lets one step fold 8 input bytes with 8
   independent lookups. *)

let polynomial = 0xEDB88320

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then polynomial lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

type t = int32

let init : t = 0xFFFFFFFFl

(* Unchecked reads: every table index is a byte (masked with [0xff], or
   the top byte of a 32-bit register) plus a slice offset below [8 * 256],
   and every string index is below [len]. *)
let slice k i = Array.unsafe_get table ((k * 256) + i)

let byte s i = Char.code (String.unsafe_get s i)

let update_string crc s =
  let len = String.length s in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 8 <= len do
    let p = !i in
    let x = !c in
    c :=
      slice 7 ((x lxor byte s p) land 0xff)
      lxor slice 6 (((x lsr 8) lxor byte s (p + 1)) land 0xff)
      lxor slice 5 (((x lsr 16) lxor byte s (p + 2)) land 0xff)
      lxor slice 4 ((x lsr 24) lxor byte s (p + 3))
      lxor slice 3 (byte s (p + 4))
      lxor slice 2 (byte s (p + 5))
      lxor slice 1 (byte s (p + 6))
      lxor slice 0 (byte s (p + 7));
    i := p + 8
  done;
  for p = !i to len - 1 do
    let x = !c in
    c := slice 0 ((x lxor byte s p) land 0xff) lxor (x lsr 8)
  done;
  Int32.of_int !c

let finish crc = Int32.logxor crc 0xFFFFFFFFl

let string s = finish (update_string init s)

let to_hex crc = Printf.sprintf "%08lx" crc
