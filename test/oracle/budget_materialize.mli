(** Best-effort sample materialization under a wall-clock budget: the
    paper's "as many samples as possible when idle" policy, measured by
    Figure 15.  The engine materializes a fixed sample count
    ({!Dd_core.Materialize.materialize}); no [lib/] module calls this. *)

val materialize :
  ?burn_in:int -> Dd_util.Prng.t -> Dd_fgraph.Graph.t -> seconds:float -> Dd_core.Materialize.t
(** Keep drawing samples on one compiled chain until [seconds] run out;
    no variational artifact. *)
