(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), one byte per
   step over [int32]: the textbook table-driven algorithm, and the
   reference the slicing-by-8 [Dd_util.Crc32] is checked against.  Same
   streaming interface: fold [update_string] from [init], then
   [finish]. *)

let polynomial = 0xEDB88320l

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor polynomial (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let init = 0xFFFFFFFFl

let update_string crc s =
  let crc = ref crc in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl) in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  !crc

let finish crc = Int32.logxor crc 0xFFFFFFFFl

let string s = finish (update_string init s)
