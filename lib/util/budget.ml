(* Cooperative deadline budgets for long-running engine steps.

   Gibbs sweep loops and semi-naive grounding rounds poll an armed budget
   at their natural step boundaries (one sweep, one color phase, one delta
   batch); when the budget is exhausted the step raises [Exceeded] instead
   of hanging a domain pool.  The [Ticks] mode counts polls rather than
   wall-clock, so tests can exercise the timeout path deterministically. *)

exception Exceeded of string

type spec =
  | Unlimited
  | Ms of float
  | Ticks of int

(* [Tick] counts down atomically so that worker domains may poll the same
   armed budget concurrently (the domain-parallel sampler polls inside its
   color slices): the number of successful polls is exactly the armed tick
   count under any interleaving, and every poll past it raises. *)
type t =
  | No_limit
  | Deadline of { timer : Timer.t; limit_s : float }
  | Tick of { left : int Atomic.t }

let start = function
  | Unlimited -> No_limit
  | Ms ms -> Deadline { timer = Timer.start (); limit_s = max 0.0 ms /. 1000.0 }
  | Ticks n -> Tick { left = Atomic.make (max 0 n) }

let unlimited = No_limit

let check t site =
  match t with
  | No_limit -> ()
  | Deadline d -> if Timer.elapsed_s d.timer >= d.limit_s then raise (Exceeded site)
  | Tick k -> if Atomic.fetch_and_add k.left (-1) <= 0 then raise (Exceeded site)

let spec_to_string = function
  | Unlimited -> "unlimited"
  | Ms ms -> Printf.sprintf "%.1fms" ms
  | Ticks n -> Printf.sprintf "%d ticks" n
