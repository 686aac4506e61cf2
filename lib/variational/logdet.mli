(** The log-determinant relaxation with an l1 box constraint —
    line 4 of Algorithm 1:

    {v
      argmax_X  log det X
      s.t.      X_kk = M_kk + 1/3
                |X_kj - M_kj| <= lambda
                X_kj = 0  when (k, j) not in NZ
    v}

    solved by projected gradient ascent ([grad log det X = inv X], then
    project onto the box/equality/sparsity constraints), with backtracking
    to stay inside the positive-definite cone.  The solution estimates a
    sparse inverse covariance; its non-zero off-diagonal entries become the
    pairwise factors of the approximate graph, and [lambda] trades sparsity
    (hence inference speed) against fidelity — Figure 6 of the paper.

    The objective and every constraint separate over NZ's connected
    components, so {!Approx} calls {!solve} once per coupled block, on that
    block's k x k covariance, and each block takes its own steps and stops
    on its own move. *)

module Matrix = Dd_linalg.Matrix

type options = {
  max_iterations : int;
  step : float;  (** initial gradient step *)
  tolerance : float;  (** stop when the iterate moves less than this *)
  prune_below : float;  (** zero out |X_kj| below this after solving *)
}

val default : options

val solve :
  ?options:options -> nz:(int * int) list -> lambda:float -> Matrix.t -> Matrix.t
(** [solve ~nz ~lambda m] returns the constrained maximizer (approximately)
    for the estimated covariance matrix [m], whose off-diagonal entries may
    be non-zero only at the index pairs [nz]. *)
