(** Factor-graph (de)serialization.

    DeepDive materializes the grounded factor graph as a file handed to the
    external sampler.  Here the format is the auditable text view of a
    graph, which benches and tests write, compare and read back (a
    checkpoint stores the graph only inside the marshalled engine).  It
    is a versioned, line-oriented text format:
    human-greppable, stable under appends, and independent of in-memory
    representation details.

    {v
      ddgraph 2
      vars <n>
      evidence <var> <0|1>          (one line per evidence variable)
      weight <value> <0|1>          (in weight-id order; flag = learnable)
      factor <head|-1> <weight_id> <semantics> <nbodies> | <nlits> <var> <0|1> ... | ...
      checksum <crc32-hex>          (over every byte above this line)
      end
    v}

    Version 2 (the only one read or written) carries the CRC-32 footer.
    The reader bounds-checks every reference — evidence vars, factor
    heads, literal vars and weight ids — so a corrupt file raises
    {!Format_error} instead of building an inconsistent graph.
    Serialization is deterministic: load followed by re-serialization is
    byte-identical. *)

module Graph = Dd_fgraph.Graph

exception Format_error of string

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** Raises {!Format_error} on malformed input, including a checksum
    mismatch (the footer must be the exact lowercase digest, so a
    case-flipped one is rejected) and trailing content after [end]
    (e.g. a duplicated footer). *)
