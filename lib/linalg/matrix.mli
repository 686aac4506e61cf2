(** Dense square matrices in row-major order.

    This is the linear-algebra substrate for the variational materialization
    approach (Algorithm 1 of the paper): estimating covariance matrices and
    solving the log-determinant relaxation requires Cholesky factorization,
    inversion, and log-determinants of symmetric positive-definite matrices.
    Sizes are in the hundreds, so a straightforward dense implementation is
    both adequate and dependency-free. *)

type t

val create : int -> t
(** [create n] is the [n x n] zero matrix. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must be square; the data is copied. *)

val to_arrays : t -> float array array

val dim : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val update : t -> int -> int -> (float -> float) -> unit

val copy : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. *)

val mat_vec : t -> float array -> float array

val transpose : t -> t

val symmetrize : t -> t
(** [(a + a^T) / 2]. *)

val frobenius_distance : t -> t -> float

val max_abs : t -> float

exception Not_positive_definite

val cholesky : t -> t
(** Lower-triangular [l] with [l * l^T = a]. Raises
    {!Not_positive_definite} when the input is not (numerically) SPD. *)

val spd_solve : t -> float array -> float array
(** Solve [a x = b] for SPD [a] (factors internally). *)

val spd_inverse : t -> t
(** Inverse of an SPD matrix via its Cholesky factor. *)

val log_det_spd : t -> float
(** Log-determinant of an SPD matrix. Raises {!Not_positive_definite}. *)

val is_spd : t -> bool
(** Whether a Cholesky factorization succeeds. *)

val add_ridge : t -> float -> t
(** [add_ridge a eps] adds [eps] to the diagonal (Tikhonov regularizer). *)
