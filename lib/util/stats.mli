(** Small numeric/statistics helpers shared across the library. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Population variance; 0 on arrays with fewer than two elements. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,1]; linear interpolation between order
    statistics. Requires a non-empty array. *)

val sigmoid : float -> float
(** Numerically stable logistic function. *)

val logit : float -> float
(** Inverse of {!sigmoid}; input clamped to (eps, 1-eps). *)

val log_sum_exp : float array -> float
(** log(sum(exp xs)) computed stably; [neg_infinity] on the empty array. *)

val kl_bernoulli : float -> float -> float
(** [kl_bernoulli p q] is KL(Bern(p) || Bern(q)), with clamping away from
    the endpoints for stability. *)

val clamp : float -> float -> float -> float
(** [clamp lo hi x]. *)

val max_abs_diff : float array -> float array -> float
