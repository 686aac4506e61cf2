(* Deterministic fault injection for crash-recovery testing.

   Durable-state code (checkpointing, serialization, the incremental
   engine) calls [hit "layer.operation.site"] at the places where a crash
   would be most damaging.  In production nothing is armed and a hit only
   registers the point name; the recovery harness arms one point at a
   time and drives the pipeline into a deterministic "crash" ([Injected]
   escapes like a power cut — the process state is abandoned and recovery
   starts from disk).

   The registry is global and single-threaded, matching the engine. *)

exception Injected of string

type mode =
  | Never
  | Nth of int  (* fail on exactly the nth hit (1-based) after arming *)
  | Probability of float  (* independent per-hit chance under [seed] *)

type point = {
  mutable mode : mode;
  mutable hits : int;  (* hits since the last [arm]/[reset] *)
  mutable fired : int;  (* injections since the last [arm]/[reset] *)
}

let registry : (string, point) Hashtbl.t = Hashtbl.create 32

(* One shared stream for Probability points: reseeded by [seed], advanced
   once per probabilistic hit, so a run's crash schedule is a pure function
   of the seed and the hit sequence. *)
let rng = ref (Prng.create 0)

let seed s = rng := Prng.create s

let find_or_register name =
  match Hashtbl.find_opt registry name with
  | Some p -> p
  | None ->
    let p = { mode = Never; hits = 0; fired = 0 } in
    Hashtbl.replace registry name p;
    p

let declare name = ignore (find_or_register name)

let arm name mode =
  let p = find_or_register name in
  p.mode <- mode;
  p.hits <- 0;
  p.fired <- 0

let reset () =
  Hashtbl.iter
    (fun _ p ->
      p.mode <- Never;
      p.hits <- 0;
      p.fired <- 0)
    registry

(* When > 0, hits register but never fire.  Used by the transactional
   supervisor's last-resort rollback: after bounded rollback retries under
   injection, the final attempt must be allowed to complete (rollback is
   idempotent, so re-running it under suppression is safe). *)
let suppress_depth = ref 0

let with_suppressed f =
  incr suppress_depth;
  Fun.protect ~finally:(fun () -> decr suppress_depth) f

(* Shared firing decision.  [check] is the non-raising form for faults
   whose effect is damage rather than death (a flipped bit, a skipped
   fsync): the caller applies the damage itself and the run continues. *)
let check name =
  let p = find_or_register name in
  p.hits <- p.hits + 1;
  let inject =
    match p.mode with
    | Never -> false
    | Nth n -> p.hits = n
    | Probability prob -> Prng.bernoulli !rng prob
  in
  if inject && !suppress_depth = 0 then begin
    p.fired <- p.fired + 1;
    true
  end
  else false

let hit name = if check name then raise (Injected name)

let hits name = match Hashtbl.find_opt registry name with Some p -> p.hits | None -> 0

let fired name = match Hashtbl.find_opt registry name with Some p -> p.fired | None -> 0

let registered () =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) registry [])

let is_injected = function Injected _ -> true | _ -> false
