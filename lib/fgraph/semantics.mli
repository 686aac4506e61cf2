(** The three grounding-count semantics of the paper (Figure 4).

    A rule's energy contribution in a possible world is
    [w * sign * g(n)] where [n] is the number of satisfied body groundings
    (Equation 1).  The choice of [g] — an instance of Jaynes' transformation
    groups — changes both extraction quality (up to 10% F1 in the paper) and
    Gibbs-sampling convergence speed (Appendix A). *)

type t =
  | Linear  (** [g n = n]: raw counts are meaningful *)
  | Logical  (** [g n = 1 if n > 0]: existence only *)
  | Ratio  (** [g n = log (1 + n)]: vote ratios matter *)

val g : t -> int -> float

val all : t list

val to_string : t -> string

val of_string : string -> t option
