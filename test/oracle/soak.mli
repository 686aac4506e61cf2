(** Crash-consistency soak harness.

    Seeded random fault schedules — each a handful of [(point, Nth
    trigger)] arms drawn from the {!Dd_util.Fault} registry — are run
    against a full update→checkpoint pipeline.  A schedule's arms are set
    before the pipeline's [reset], so points hit while it builds its
    first state (engine creation, the initial publish) fire too.  Every
    escaping injection is treated as a machine death: volatile bytes are
    lost ({!Dd_util.Fault_file.crash_lose_volatile}), in-memory state is
    abandoned, and the pipeline recovers from disk, scrubs, and resumes;
    a death during that recovery or scrub is one more crash.  Every
    schedule additionally ends with a forced power cut + recover +
    scrub so that silent faults (bit flips, dropped fsyncs) are exercised
    even when they never crash anything.

    The checked property: after convergence the pipeline's fingerprint is
    bit-identical to a golden fingerprint from a fault-free run, and the
    final scrub leaves nothing unrepaired.  Failing schedules are shrunk
    greedily to minimal reproductions.  {!sweep} is the exhaustive
    crash–recover–compare run: one one-arm schedule per fault point a
    fault-free run exercises, each checked against the same golden
    fingerprint.

    The pipeline is a record of closures so the same runner drives both
    the bare kbc loop ({!kbc_pipeline}) and the full
    ingest→txn→checkpoint→serve loop (see {!Soak_driver}). *)

module Engine = Dd_core.Engine
module Corpus = Dd_kbc.Corpus
module Scrub = Dd_kbc.Scrub

type pipeline = {
  steps : int;  (** number of updates the op sequence applies *)
  reset : unit -> unit;
      (** clean slate: wipe the store directory, rebuild in-memory state,
          publish the initial checkpoint *)
  apply : int -> unit;
      (** apply update [i] (0-based), publishing on the pipeline's cadence *)
  save : unit -> unit;  (** publish a checkpoint of the current state *)
  recover : unit -> int;
      (** abandon in-memory state, rebuild from disk, return how many
          updates the durable state proves applied; must fall back to a
          deterministic from-scratch rebuild when nothing is loadable *)
  scrub : unit -> Scrub.report;  (** integrity pass over disk + live state *)
  fingerprint : unit -> string;
      (** bit-exact digest of everything the golden comparison covers *)
}

type arm = { point : string; trigger : int }

type schedule = { sid : int; arms : arm list }

type outcome = {
  schedule : schedule;
  crashes : int;
      (** injected process/machine deaths, including during recovery *)
  repairs : int;  (** artifacts healed or contained across all scrubs *)
  fired : string list;
      (** armed points that fired at least once — crashing the run or
          damaging bytes silently — sorted *)
  failure : string option;  (** [None] = converged bit-identically *)
}

type summary = {
  schedules : int;
  clean : int;  (** schedules where no armed fault fired *)
  crashed : int;  (** schedules with at least one injected death *)
  total_crashes : int;
  total_repairs : int;
  failures : outcome list;  (** shrunk to minimal reproductions *)
}

val generate : points:(string * int) list -> seed:int -> int -> schedule
(** The deterministic schedule for id [sid] under [seed]: 1–3 arms over
    [points], each a [(point, window)] pair whose arm draws its trigger
    in [1, window]. *)

val shrink : run:(schedule -> outcome) -> schedule -> schedule
(** Greedy minimization of a failing schedule: repeatedly drop arms and
    halve triggers while the schedule still fails under [run]. *)

val soak :
  ?seed:int ->
  ?points:string list ->
  ?on_schedule:(outcome -> unit) ->
  schedules:int ->
  pipeline ->
  summary
(** Run [schedules] seeded schedules against [pipeline], comparing each
    converged state bit-for-bit against a golden fault-free run.
    [points] defaults to {!Dd_util.Fault_file.all_points}; each arm's
    trigger is drawn within the golden run's hits of its point, or in
    [1, 16] for a point that run never hits; [on_schedule] observes each outcome (progress reporting).  Failures
    are shrunk before being returned.  Resets the fault registry on
    exit. *)

val sweep : pipeline -> (string * int) list * outcome list
(** Crash–recover–compare over every fault point: a fault-free golden
    run of [pipeline] records each point it hits with its hit count
    (the first result, sorted by point); then, per point, a one-arm
    schedule triggered mid-run (hit count / 2 + 1) is run and checked
    against the golden fingerprint, one outcome per point in the same
    order.  Every trigger lies within the golden run's hits, so every
    outcome's [fired] names its point.  Resets the fault registry on
    exit. *)

val kbc_pipeline : ?options:Engine.options -> dir:string -> Corpus.t -> pipeline
(** The bare kbc loop as a soakable pipeline: the six {!Pipeline} rule
    updates committed through {!Dd_core.Engine.apply_update} over a store
    at [dir] (two versions kept), with a {!Checkpoint.save} after every
    second update and a rematerialization before the fourth, so a run
    writes the initial base, two-entry appends and a second base.  A
    [soakstate] sidecar blob stands in for subsystem state.  When nothing
    was published yet, or every on-disk version is damaged beyond loading
    and quarantined, recovery falls back to a deterministic from-scratch
    rebuild (quarantined files are left behind as evidence); any other
    recovery error raises, failing the schedule. *)
