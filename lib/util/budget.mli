(** Cooperative deadline budgets for long-running engine steps.

    A budget is armed once per engine step ({!start}) and polled at the
    step's natural unit boundaries — one Gibbs sweep, one color phase, one
    semi-naive delta batch.  When the budget is exhausted, {!check} raises
    {!Exceeded} with the polling site's name, turning a pathological update
    into a classified, recoverable failure instead of a hung domain pool.

    The {!Ticks} mode counts polls instead of wall-clock time, giving
    tests a deterministic way to drive the timeout path.

    Budgets are safe to poll from several domains at once — {!Ms} reads a
    wall clock and {!Ticks} counts down atomically — so the domain-parallel
    sampler polls the step budget inside its worker color slices, not only
    at coordinator barriers. *)

exception Exceeded of string
(** Carries the name of the polling site that ran out of budget. *)

type spec =
  | Unlimited
  | Ms of float  (** wall-clock milliseconds *)
  | Ticks of int  (** number of {!check} polls allowed (deterministic) *)

type t
(** An armed budget instance (one per step execution). *)

val start : spec -> t

val unlimited : t
(** A shared instance that never fires (the [Unlimited] spec, pre-armed). *)

val check : t -> string -> unit
(** [check t site] raises [Exceeded site] when the budget is exhausted.
    Cheap when unarmed. *)

val spec_to_string : spec -> string
