(** Factor graphs over Boolean random variables.

    A factor graph is the triple [(V, F, w)] of Section 2.5: Boolean
    variables (one per candidate tuple), hyperedge factors (one per rule
    grounding group), and a weight function.  A factor here records the
    rule's head variable, the set of body groundings sharing that head, a
    reference into the (tied) weight table, and the counting semantics [g];
    its energy in a world [I] is [w * sign(head, I) * g (#satisfied bodies)]
    — Equation 1 verbatim.  Plain MLN/pairwise factors are the special case
    of a single body and no head.

    Weight tying is first class: many factors may share one weight id, and
    each weight is either learnable (estimated from evidence) or fixed
    (rule-supplied constant).

    Graphs are mutable and growable — incremental grounding appends new
    variables and factors to an existing graph ([Delta V], [Delta F]).
    It keeps no variable-to-factor index ({!factors_of_var} builds one). *)

type var = int

type weight_id = int

type literal = { var : var; negated : bool }
(** A literal is satisfied by assignment [a] when [a.(var) <> negated]. *)

type factor = {
  head : var option;
      (** the rule's consequent; [None] gives a body-only potential whose
          sign is fixed positive *)
  bodies : literal array array;  (** one inner array per body grounding *)
  weight_id : weight_id;
  semantics : Semantics.t;
}

type evidence =
  | Query  (** value to be inferred *)
  | Evidence of bool  (** value fixed by supervision / training data *)

type t

val create : unit -> t

val add_var : ?evidence:evidence -> t -> var
(** Fresh variable (default [Query]). *)

val add_vars : ?evidence:evidence -> t -> int -> var array

val add_weight : ?learnable:bool -> t -> float -> weight_id
(** Register a weight value (default not learnable). *)

val add_factor : t -> factor -> int
(** Append a factor (returns its index).  All referenced variables and the
    weight id must exist. *)

val pairwise : t -> weight:weight_id -> var -> var -> int
(** Convenience: an Ising-style conjunction factor [w * 1{a and b}] — a
    single-body, headless factor with logical semantics. *)

val unary : t -> weight:weight_id -> var -> int
(** Convenience: bias factor [w * 1{a}]. *)

val extend_factor : t -> int -> literal array array -> unit
(** [extend_factor t i bodies] appends body groundings to factor [i]
    (incremental grounding discovers new groundings of an existing rule
    head / weight group). *)

val num_vars : t -> int

val num_factors : t -> int

val num_weights : t -> int

val factor : t -> int -> factor

val weight_value : t -> weight_id -> float

val set_weight : t -> weight_id -> float -> unit

val weight_learnable : t -> weight_id -> bool

val evidence_of : t -> var -> evidence

val set_evidence : t -> var -> evidence -> unit

val factors_of_var : t -> int list array
(** For every variable, the indices of the factors mentioning it (head or
    body), newest (highest index) first.  One pass over the factors per
    call: build it once and index it, never call it per variable. *)

val vars_of_factor : factor -> var list
(** Distinct variables of a factor. *)

val iter_factors : (int -> factor -> unit) -> t -> unit

val query_vars : t -> var list

val evidence_vars : t -> (var * bool) list

val factor_energy : t -> factor -> (var -> bool) -> float
(** [w * sign(head) * g(#satisfied bodies)] under the assignment. *)

val factor_energy_prefix : factor -> weight:float -> (var -> bool) -> int -> float
(** Energy of the factor under [weight] as if it only had its first [k]
    bodies — the pre-update energy needed when incremental grounding
    appended groundings to an existing factor or moved its weight. *)

val flip_energy : t -> int list -> bool array -> var -> float
(** Summed energy of factors [fids] (in list order) with [v] true minus
    with [v] false, the rest as in [a] (left unchanged): over [v]'s
    factors, the log-odds of its Gibbs conditional. *)

val total_energy : t -> (var -> bool) -> float
(** Sum of factor energies: the log-unnormalized probability [W(F, I)]. *)

val copy : t -> t
(** Independent deep copy (used to materialize snapshots). *)

type journal
(** An undo log over one transactional episode.  Appends (new variables,
    weights, factors) are undone by truncating back to the recorded base
    counts; in-place mutations of pre-existing slots ({!set_evidence},
    {!set_weight}, {!extend_factor}) are logged as inverse operations
    holding the absolute pre-transaction value. *)

val journal_begin : t -> journal
(** Start recording.  Replaces any previously active journal (the old one
    can no longer be rolled back through). *)

val journal_end : t -> unit
(** Stop recording (commit: the journal is simply dropped). *)

val rollback : t -> journal -> unit
(** Restore the graph to its state at [journal_begin] and stop recording.
    Idempotent — entries carry absolute previous values, so re-running a
    partially completed rollback converges. *)

val freeze_assignment : ?query:(unit -> bool) -> t -> bool array
(** A fresh assignment array: evidence variables at their fixed value,
    query variables at [query ()] (default false), called in ascending
    variable order. *)

val validate : t -> (unit, string) result
(** Structural integrity check: every factor's head and literal variables
    in range, every [weight_id] declared, every weight finite (no NaN or
    infinity).  Run on graphs restored from disk, where the [add_factor]
    entry checks were bypassed. *)
