(** Sample-based moment estimation for the variational approach
    (lines 1-3 of Algorithm 1).

    The covariance matrix is estimated from Gibbs samples of the original
    factor graph and zeroed outside [NZ], the set of variable pairs that
    co-occur in some factor — the inverse covariance can only be non-zero
    there for a graphical model with that structure.  So the matrix is
    block-diagonal over NZ's connected components, and {!estimate} builds
    one block at a time. *)

module Graph = Dd_fgraph.Graph
module Matrix = Dd_linalg.Matrix

val nonzero_pairs : Graph.t -> (int * int) list
(** Distinct pairs [(i, j)], [i < j], of variables sharing a factor, in
    ascending order. *)

val means : bool array array -> int -> float array
(** Per-variable empirical mean over the sampled worlds. *)

val estimate :
  samples:bool array array ->
  mu:float array ->
  vars:int array ->
  pairs:(int * int) list ->
  Matrix.t
(** [estimate ~samples ~mu ~vars ~pairs] is the empirical covariance
    (0/1 encoding) of the block of variables [vars]: entry [(a, b)]
    belongs to variable [vars.(a)] and [vars.(b)], read from the sampled
    worlds at those ids, with [mu] from {!means}.  Off-diagonal entries
    are set only for the local index pairs [pairs]; the rest stay zero. *)
