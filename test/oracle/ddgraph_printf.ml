(* The ddgraph v2 writer as one [Printf.sprintf] per line with a running
   CRC over the emitted lines (bytewise, {!Crc32_bytewise}): the
   reference the buffer writer [Dd_oracle.Serialize.to_string] must match
   byte for byte. *)

module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics

let semantics_code = function
  | Semantics.Linear -> "linear"
  | Semantics.Logical -> "logical"
  | Semantics.Ratio -> "ratio"

let to_string g =
  let buffer = Buffer.create 4096 in
  let crc = ref Crc32_bytewise.init in
  let emit s =
    crc := Crc32_bytewise.update_string !crc s;
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
  let digest = Crc32_bytewise.finish !crc in
  emit (Printf.sprintf "checksum %08lx\n" digest);
  emit "end\n";
  Buffer.contents buffer
