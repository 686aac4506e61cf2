(** The whole-graph variational build: lines 1-8 of Algorithm 1 with the
    covariance, the log-det solve and its inverse as dense n x n matrices
    over every variable of the graph.  This is how
    {!Dd_variational.Approx.materialize} built the artifact before it
    solved one coupled block at a time; it stays as that build's
    reference.  Its cost is cubic in the number of variables, so the
    engine once fenced it with a variable limit.  No [lib/] module calls
    it. *)

module Graph = Dd_fgraph.Graph

val estimate : samples:bool array array -> nvars:int -> nz:(int * int) list -> Dd_linalg.Matrix.t
(** The n x n empirical covariance (0/1 encoding), off-diagonal entries
    outside [nz] forced to zero. *)

val materialize :
  ?lambda:float ->
  ?solver:Dd_variational.Logdet.options ->
  Dd_util.Prng.t ->
  Graph.t ->
  samples:bool array array ->
  Graph.t * Dd_variational.Approx.stats
(** Same contract and defaults as {!Dd_variational.Approx.materialize}:
    one {!Dd_variational.Logdet.solve} over the whole graph. *)
