(** CRC-32 (IEEE) checksums for the durable on-disk formats.

    Streaming usage: start from {!init}, fold {!update_string} over the
    content, and {!finish}; or use {!string} for one-shot digests.  The
    ddgraph v2 footer and every {!Record} header carry the digest in the
    fixed 8-character form of {!to_hex}. *)

type t = int32

val init : t

val update_string : t -> string -> t

val finish : t -> t

val string : string -> t
(** One-shot digest of a whole string. *)

val to_hex : t -> string
(** Fixed-width (8 lowercase hex digits) rendering. *)

val of_hex : string -> t option
(** Inverse of {!to_hex}; [None] on anything but 8 hex digits. *)
