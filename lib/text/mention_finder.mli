(** Dictionary-based mention finding — the entity-recognition stage of the
    KBC pipeline.

    Real DeepDive systems run statistical NER; the candidate-generation
    contract it must satisfy is only "high recall": every span that might
    name an entity should surface as a mention.  A dictionary matcher over
    known entity names (with greedy longest match) satisfies that contract
    for our synthetic corpora and for the examples, and exposes the same
    (sentence, mention span, surface form) shape downstream rules consume. *)

type mention = {
  surface : string;  (** the matched text, as written *)
  first_token : int;  (** index of the first matched token *)
  last_token : int;  (** index of the last matched token (inclusive) *)
  start_offset : int;
  end_offset : int;
}

type dictionary

val dictionary : string list -> dictionary
(** Build a matcher from entity names; matching is case-insensitive on
    normalized tokens and supports multi-token names.  Names that collide
    under normalization ("Obama" / "OBAMA") are stored once. *)

val add_name : dictionary -> string -> bool
(** Insert one name; [true] iff it was new under case normalization.
    Streaming dictionary growth is therefore idempotent: re-adding an
    existing (or differently-cased) name neither duplicates nor shadows
    the stored entry. Names that normalize to nothing are rejected. *)

val normalize_name : string -> string
(** The case-normalized key a name is stored under: normalized tokens
    joined with single spaces ("" when nothing survives normalization).
    Two names matching the same spans have equal keys — the string key the
    entity canonicalizer merges on. *)

val size : dictionary -> int
(** Distinct normalized names stored. *)

val mem : dictionary -> string -> bool
(** Whether the name (under normalization) is already stored. *)

val find : dictionary -> Tokenizer.token list -> mention list
(** Greedy longest-match scan (no overlapping mentions), left to right. *)
