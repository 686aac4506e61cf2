(** Deterministic splittable pseudo-random number generator.

    All randomized components of the library (Gibbs sampling,
    Metropolis-Hastings, corpus generation, weight initialization) draw from
    this generator so that every experiment is reproducible from a seed.  The
    core is splitmix64, which has a 64-bit state, passes BigCrush, and is
    cheap to split into independent streams.

    The state is kept unboxed (8 bytes of a [Bytes.t], padded to a
    64-byte cache line so that generators used by different domains do
    not share one), so a draw that returns an immediate — {!bits53},
    {!int_below}, {!bool} — allocates nothing even when the caller
    cannot inline across modules.  The marshalled form of [t] is those
    64 bytes; it replaced an [int64] record field, so values marshalled
    with the old layout (checkpoints embed the engine's generator) do
    not load. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val assign : t -> t -> unit
(** [assign dst src] overwrites [dst]'s state with [src]'s.  Used to restore
    a generator to a previously {!copy}-ed state in place (transactional
    rollback), since consumers hold the generator by reference. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output, boxed across a module boundary; hot loops
    draw {!bits53} instead. *)

val bits53 : t -> int
(** Top 53 bits of the next output,
    [Int64.to_int (Int64.shift_right_logical (bits64 t) 11)], computed
    without allocation.  [float_of_int (bits53 t) *. 0x1p-53]
    is exactly the next {!float_unit}, so a caller can draw a Bernoulli
    as [float_of_int (bits53 t) *. 0x1p-53 < p] with the same stream and
    outcome as {!bernoulli}. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [0, n-1]. Requires [n > 0]. *)

val float_unit : t -> float
(** Uniform float in [0, 1): [float_of_int (bits53 t) *. 0x1p-53]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform on [lo, hi). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val gaussian : t -> float
(** Standard normal via Box-Muller. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate). Requires [rate > 0]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)
