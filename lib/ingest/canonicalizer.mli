(** Cross-document entity canonicalization — the dedup stage of the
    streaming front end (ROADMAP Open item 3; the ATOM/itext2kg-style
    "merge, don't fork" discipline).

    Every mention surface form is reduced to its case-normalized string key
    ({!Dd_text.Mention_finder.normalize_name}); keys observed across
    documents are merged into {e canonical entities} through a growable
    union-find ({!Dd_util.Union_find.add}) driven by two signals:

    - {b key identity}: two surfaces with equal normalized keys ("OBAMA" /
      "obama.") are the same entity by construction;
    - {b declared aliases}: a synonym-table entry ("B. Obama" ≡ "Barack
      Obama") unions the two keys' sets, whenever it arrives.

    The canonical id of a set is ["ent:" ^ k] where [k] is the key of the
    {e earliest-registered} member — stable under further merges in which
    that set wins, and deterministic for a deterministic stream.  When a
    late-arriving alias merges two sets that both already have canonical
    ids, the younger id loses; {!declare_alias} reports the losing id and
    its member keys so the feed can retract and rederive their entity-link
    tuples as a proper delta (DRed handles the downstream consequences).

    State (key table + union-find + alias list) serializes to a canonical
    text encoding with a CRC-32 gate, so checkpoint recovery preserves
    entity identity bit-exactly. *)

type t

val create : unit -> t

type resolution = {
  key : string;  (** the normalized-string key of the surface form *)
  entity : string;  (** canonical entity id ("ent:...") after this observation *)
  fresh_key : bool;  (** first time this key is seen *)
  fresh_entity : bool;  (** the key founded a brand-new canonical entity *)
}

val observe : t -> string -> resolution
(** Resolve one mention surface form, registering its key if new.  A fresh
    key starts as its own singleton entity unless a prior alias declaration
    already linked it.  Raises [Invalid_argument] on a surface that
    normalizes to nothing. *)

val resolve : t -> string -> string option
(** Canonical entity id of a surface form, without registering anything. *)

type merge = {
  winner : string;  (** surviving canonical entity id *)
  loser : string;  (** canonical id retired by the merge *)
  loser_keys : string list;  (** keys that must re-link to [winner] *)
}

val declare_alias : t -> string -> string -> merge option
(** [declare_alias t a b] records that the two surface forms name the same
    entity (the synonym table), registering either key as needed and
    merging their sets.  [Some merge] iff two {e previously distinct}
    canonical entities collapsed — the late-alias case the caller must
    turn into a retract + rederive delta.  [None] when the link was
    already known or one side was unseen.  Raises [Invalid_argument] when
    either surface normalizes to nothing. *)

val entities : t -> int
(** Number of distinct canonical entities. *)

val all_keys : t -> string list
(** Every registered key, in registration order. *)

val members : t -> string -> string list
(** Keys belonging to a canonical entity id, in registration order
    ([[]] for an unknown id). *)

val encode : t -> string
(** Canonical text serialization in one {!Dd_util.Record} frame (tag
    [ddcanon 2], length + CRC-32).  Deterministic:
    equal states encode identically, and [encode (decode (encode t))]
    is byte-equal to [encode t]. *)

val decode : string -> (t, string) result
(** Parse an {!encode} payload; any structural or checksum violation is
    an [Error]. *)
