(** A reusable pool of worker domains.

    Spawning a domain costs far more than a mutex round-trip, so the
    color-synchronous sweeps of {!Par_gibbs} — thousands of barriers per
    inference — need domains that are spawned once and fed many batches.
    [create] spawns [size - 1] workers (the calling domain is worker 0,
    so a pool of size [n] computes with [n] domains while only [n - 1]
    are parked between batches); [run] is a synchronous fork–join batch;
    [shutdown] joins the workers.

    Work assignment is deterministic: [run t f] executes [f d] for every
    [d] in [[0, size)], always binding index [d] to the same worker, so
    a caller that keys per-worker PRNG streams by index gets reproducible
    results for a fixed pool size (scheduling may interleave the work
    differently between runs, but no observable state depends on the
    interleaving as long as the [f d] touch disjoint data). *)

type t

val create : int -> t
(** [create n] spawns a pool of size [max 1 n]. *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f 0 .. f (size - 1)] concurrently ([f 0] on the
    calling domain) and returns when all are finished.  If any [f d]
    raised, the first such exception (lowest worker index, caller first)
    is re-raised after the join — the batch still completes on every
    other worker.  Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)
