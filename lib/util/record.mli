(** Length- and CRC-32-framed records.

    Every checksummed durable artifact — checkpoint sections, WAL
    entries, sidecar blobs, the dead-letter file, transaction payloads and
    the canonicalizer state — is a sequence of records in one format:

    {v
      <tag> <len> <crc32-hex>\n
      <len payload bytes>\n
    v}

    [tag] names the record and carries its format version (["ddblob 2"],
    ["entry 7"]); it may contain spaces but no newline.  {!read} checks
    the tag, the length, the exact read, the terminator and the CRC-32 of
    the payload before returning any of it, so a caller that unmarshals a
    payload never sees bytes that failed the check.  Any single flipped
    bit or truncation of a record is rejected. *)

exception Malformed of string

val frame : string -> string -> string
(** [frame tag payload] is the whole record. *)

val frames : (string * string) list -> string
(** Several records back to back, in order. *)

type reader
(** A cursor over a whole artifact. *)

val of_string : string -> reader

val of_file : string -> reader
(** Whole-file read through {!Fault_file.read_file} (so [io.read.short]
    applies).  Raises [Sys_error] as [open_in] does. *)

val read : reader -> string -> string
(** [read r tag] returns the payload of the next record and advances past
    it.  Raises {!Malformed} — leaving the cursor where it was — on a tag,
    length, terminator or checksum mismatch, or on truncation. *)

val finish : reader -> unit
(** Raises {!Malformed} unless the cursor is at the end. *)

val decode : string -> string -> (string, string) result
(** [decode tag s]: [s] must be exactly one record tagged [tag]. *)
