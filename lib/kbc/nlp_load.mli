(** From raw documents to base tables — the candidate generation & feature
    extraction front of Figure 1, built on [Dd_text].

    Each document is split into sentences and scanned with a
    dictionary-based mention finder; every ordered pair of distinct
    mentions in a sentence yields one row group in the standard base-table
    layout (see {!Corpus.input_schemas}):

    - [sentence(doc, sid, phrase, ctx)] — [phrase] is the
      {!Dd_text.Features.phrase_between} feature of the pair (or
      ["<none>"]), [ctx] the distance bucket;
    - [mention(sid, mid, name, pos)] — the two mentions with their surface
      forms.

    A mention *pair* gets its own synthetic sentence id, which is exactly
    the candidate granularity rule R1 consumes. *)

module Database = Dd_relational.Database

type stats = {
  documents : int;
  sentences : int;
  pairs : int;  (** mention pairs emitted (rows in [sentence]) *)
  mentions_found : int;
}

val load_documents :
  ?first_sid:int ->
  Database.t ->
  entity_names:string list ->
  (int * string) list ->
  stats
(** [load_documents db ~entity_names docs] tokenizes, finds mentions and
    inserts rows; tables are created when missing.  [first_sid] (default 0)
    lets successive loads keep ids unique. *)

