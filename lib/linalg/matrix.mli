(** Dense square matrices in row-major order.

    This is the linear-algebra substrate for the variational materialization
    approach (Algorithm 1 of the paper): estimating a covariance block and
    solving the log-determinant relaxation on it requires Cholesky
    factorization and inversion of symmetric positive-definite matrices.
    {!Dd_variational.Approx} solves one coupled block at a time, so sizes
    are those of a component of variables that share factors; a
    straightforward dense implementation is adequate and dependency-free. *)

type t

val create : int -> t
(** [create n] is the [n x n] zero matrix. *)

val dim : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val add : t -> t -> t

val scale : float -> t -> t

val frobenius_distance : t -> t -> float

exception Not_positive_definite

val spd_inverse : t -> t
(** Inverse of an SPD matrix via its Cholesky factor.  Raises
    {!Not_positive_definite} when the input is not (numerically) SPD. *)

val is_spd : t -> bool
(** Whether a Cholesky factorization succeeds. *)
