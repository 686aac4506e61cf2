(** Tokenization — the first stage of the paper's NLP preprocessing
    ("DeepDive stores all documents in the database in one sentence per row
    with markup produced by standard NLP pre-processing tools").

    This is deliberately simple (whitespace/punctuation splitting with
    offset tracking), standing in for the heavyweight NLP stack: what the
    downstream pipeline needs is a token sequence with character spans so
    mention finders and feature UDFs can reference positions. *)

type token = {
  text : string;
  start_offset : int;  (** byte offset of the first character *)
  end_offset : int;  (** byte offset one past the last character *)
  index : int;  (** position in the token sequence *)
}

val tokenize : string -> token list
(** Split on whitespace; punctuation characters form their own tokens.
    Offsets index into the original string. *)

val sentences : string -> (int * string) list
(** Split a document into sentences on [.!?] followed by whitespace;
    returns (start offset, sentence text) pairs.  Terminators stay with
    their sentence. *)

val slice : token list -> int -> int -> token list
(** [slice tokens i j] is the tokens with indexes in [i, j). *)

val normalize : string -> string
(** Lowercase and strip non-alphanumeric edges — the canonical form used
    for dictionary lookups. *)
