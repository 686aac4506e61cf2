(** Deterministic document-arrival streams for the ingestion subsystem.

    {!synthetic} is a seeded generative process emitting raw-text
    documents with a configurable mean rate and burstiness.  Each document
    carries the dictionary names it introduces (the stream's "NER hints")
    and zero or more alias declarations; entities appear under several
    surface forms (full name, surname, initialed form, case variants), and
    alias declarations may lag the first use of a variant by several
    documents, so cross-document merges genuinely happen late.

    Arrival order and timestamps are fully determined by the config seed;
    two sources built from equal configs emit byte-identical streams. *)

module Tuple = Dd_relational.Tuple

type payload =
  | Text of {
      text : string;  (** raw document text (sentences, terminators included) *)
      names : string list;  (** dictionary names this document introduces *)
      aliases : (string * string) list;  (** declared synonym pairs *)
    }

type doc = { id : int; arrival_s : float; payload : payload }

type config = {
  docs : int;
  entities : int;
  relations : int;
  sentences_per_doc : int;
  rate : float;  (** mean arrival rate, docs per (simulated) second *)
  burstiness : float;
      (** in [0, 1): fraction of interarrival gaps collapsed into bursts;
          the remaining gaps stretch so the mean rate is preserved *)
  primary_first : float;
      (** probability an entity's first stream appearance uses its primary
          (full) name — the complement creates late-merge material *)
  alias_lag : float;
      (** probability an alias declaration is deferred to a later document
          instead of riding with the first use of the variant *)
  noise_rate : float;  (** sentences drawn from noise pairs/phrases *)
  truth_pairs_per_relation : int;
  known_fraction : float;  (** fraction of truth exposed in [known] *)
  seed : int;
}

val default : config

type t

val synthetic : config -> t

val next : t -> doc option
(** The next document in arrival order, [None] when the stream is done. *)

val static_tables : t -> (string * Tuple.t list) list
(** The non-streamed base tables ([rel], [phrase_rel], [known],
    [disjoint]) to load before the first document. *)

val true_entities : t -> int
(** Ground-truth entity count behind a synthetic stream (how many
    canonical entities a perfect canonicalizer would converge to). *)
