(** Disjoint-set forest with union by rank and path compression.

    Used by the compiled kernel ({!Dd_inference.Compiled}) to label the
    coupled query variables into components, and by the streaming entity
    canonicalizer ({!Dd_ingest.Canonicalizer}) to merge surface forms
    across documents — the latter registers elements as they first
    appear, so the structure grows dynamically via {!add}. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1].  More sets can
    be added later with {!add}. *)

val add : t -> int
(** Register one new singleton set and return its label (the next unused
    integer).  Amortized O(1): the backing arrays double on demand. *)

val length : t -> int
(** Number of registered elements; valid labels are [0 .. length - 1]. *)

val find : t -> int -> int
(** Representative of the set containing the element.  Raises
    [Invalid_argument] on an unregistered element. *)

val union : t -> int -> int -> unit
(** Merge the two sets. *)

val count : t -> int
(** Number of distinct sets. *)
