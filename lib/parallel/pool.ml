type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (int -> unit) option;
  mutable failed : exn option;
  mutable busy : bool;  (** a job is pending or running *)
  mutable stop : bool;
}

type t = {
  workers : worker array;  (** length [size - 1]; entry [i] is index [i + 1] *)
  mutable handles : unit Domain.t array;
  mutable alive : bool;
}

(* Each worker parks on its own condition variable until [run] hands it a
   job or [shutdown] raises [stop].  The worker publishes completion by
   clearing [busy] under the same mutex, so a [run] joining on [busy]
   observes every write the job made (the lock ordering gives the
   happens-before edge the OCaml memory model needs). *)
let worker_loop w index =
  let rec loop () =
    Mutex.lock w.mutex;
    while w.job = None && not w.stop do
      Condition.wait w.cond w.mutex
    done;
    match w.job with
    | None ->
      (* stop, and no pending job: exit. *)
      Mutex.unlock w.mutex
    | Some f ->
      w.job <- None;
      Mutex.unlock w.mutex;
      let failure = try f index; None with e -> Some e in
      Mutex.lock w.mutex;
      w.failed <- failure;
      w.busy <- false;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex;
      loop ()
  in
  loop ()

let create n =
  let size = max 1 n in
  let workers =
    Array.init (size - 1) (fun _ ->
        {
          mutex = Mutex.create ();
          cond = Condition.create ();
          job = None;
          failed = None;
          busy = false;
          stop = false;
        })
  in
  let handles = Array.mapi (fun i w -> Domain.spawn (fun () -> worker_loop w (i + 1))) workers in
  { workers; handles; alive = true }

let run t f =
  if not t.alive then invalid_arg "Pool.run: pool has been shut down";
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      w.busy <- true;
      w.job <- Some f;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex)
    t.workers;
  let own_failure = try f 0; None with e -> Some e in
  let first_failure = ref own_failure in
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      while w.busy do
        Condition.wait w.cond w.mutex
      done;
      (match w.failed with
      | Some e ->
        if Option.is_none !first_failure then first_failure := Some e;
        w.failed <- None
      | None -> ());
      Mutex.unlock w.mutex)
    t.workers;
  match !first_failure with Some e -> raise e | None -> ()

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.stop <- true;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      t.workers;
    Array.iter Domain.join t.handles;
    t.handles <- [||]
  end
