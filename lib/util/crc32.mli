(** CRC-32 (IEEE) checksums for the durable on-disk formats.

    Streaming usage: start from {!init}, fold {!update_string} over the
    content, and {!finish}; or use {!string} for one-shot digests.  The
    ddgraph v2 footer and every {!Record} header carry the digest in the
    fixed 8-character form of {!to_hex}; readers check a digest by
    comparing that exact rendering, so there is no parser for it.

    {!update_string} is table-driven slicing-by-8: it folds 8 bytes per
    step over native ints, then the tail byte by byte.  It allocates
    nothing per byte; a call allocates only the boxed [int32] it
    returns.  Digests are those of the plain bytewise algorithm, which
    the test suite keeps as its reference. *)

type t = int32

val init : t

val update_string : t -> string -> t

val finish : t -> t

val string : string -> t
(** One-shot digest of a whole string. *)

val to_hex : t -> string
(** Fixed-width (8 lowercase hex digits) rendering. *)
