(* Bench-side spans.  Every call the benchmark makes into a layer of the
   system is wrapped in a span; spans stay in memory and are analysed (or
   written out) when the run ends.  Times the program reports about its
   own phases ([Engine.report], [Server.health.last_swap_ms]) become
   [derived] child spans of the call that reported them.

   Only the writer domain records spans.  With tracing off, [span] just
   calls its argument. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request the span served; inherited from the parent by default *)
  name : string;
  start_ns : int;
  stop_ns : int;
  derived : bool;  (** laid out from a time the program reported, not timed here *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type state = {
  mutable on : bool;
  mutable buf : span array;
  mutable len : int;
  mutable next_id : int;
  mutable current : int;
  mutable current_req : int;
  mutable last : span option;
}

let st = { on = false; buf = [||]; len = 0; next_id = 1; current = 0; current_req = 0; last = None }

let reset ~on =
  st.on <- on;
  st.buf <- [||];
  st.len <- 0;
  st.next_id <- 1;
  st.current <- 0;
  st.current_req <- 0;
  st.last <- None

let enabled () = st.on

let push sp =
  if st.len = Array.length st.buf then begin
    let bigger = Array.make (max 1024 (2 * st.len)) sp in
    Array.blit st.buf 0 bigger 0 st.len;
    st.buf <- bigger
  end;
  st.buf.(st.len) <- sp;
  st.len <- st.len + 1

let fresh_id () =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let span ?req name f =
  if not st.on then f ()
  else begin
    let id = fresh_id () in
    let parent = st.current and parent_req = st.current_req in
    let req = match req with Some r -> r | None -> parent_req in
    st.current <- id;
    st.current_req <- req;
    let start_ns = now_ns () in
    let close () =
      let sp = { id; parent; req; name; start_ns; stop_ns = now_ns (); derived = false } in
      st.current <- parent;
      st.current_req <- parent_req;
      push sp;
      st.last <- Some sp
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Attach [(name, seconds)] children to the span closed last, laid end to
   end from its start and clipped to its end. *)
let derive parts =
  match st.last with
  | Some p when st.on ->
    let cursor = ref p.start_ns in
    List.iter
      (fun (name, seconds) ->
        if seconds > 0.0 then begin
          let start_ns = !cursor in
          let stop_ns = min p.stop_ns (start_ns + int_of_float (seconds *. 1e9)) in
          cursor := stop_ns;
          push { id = fresh_id (); parent = p.id; req = p.req; name; start_ns; stop_ns; derived = true }
        end)
      parts
  | _ -> ()

let spans () = Array.sub st.buf 0 st.len

(* Cost of recording one span, measured into the live buffer and then
   rolled back; multiplied by the spans recorded it estimates what
   tracing added to the run. *)
let per_span_ns () =
  let len = st.len and next_id = st.next_id and last = st.last and on = st.on in
  st.on <- true;
  let n = 20_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    span "trace.calibrate" ignore
  done;
  let elapsed = now_ns () - t0 in
  st.len <- len;
  st.next_id <- next_id;
  st.last <- last;
  st.on <- on;
  float_of_int elapsed /. float_of_int n

(* --- analysis ------------------------------------------------------------ *)

let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, max cb b)) else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time per span name: each span's duration minus the part of it its
   children cover. *)
let self_ns spans =
  let children = Hashtbl.create 256 in
  Array.iter
    (fun sp ->
      if sp.parent <> 0 then
        Hashtbl.replace children sp.parent
          ((sp.start_ns, sp.stop_ns) :: Option.value ~default:[] (Hashtbl.find_opt children sp.parent)))
    spans;
  let totals = Hashtbl.create 32 in
  Array.iter
    (fun sp ->
      let clipped =
        List.filter_map
          (fun (a, b) ->
            let a = max a sp.start_ns and b = min b sp.stop_ns in
            if b > a then Some (a, b) else None)
          (Option.value ~default:[] (Hashtbl.find_opt children sp.id))
      in
      let self = sp.stop_ns - sp.start_ns - union_length clipped in
      Hashtbl.replace totals sp.name (self + Option.value ~default:0 (Hashtbl.find_opt totals sp.name)))
    spans;
  totals

(* Share of [start_ns, stop_ns] covered by root spans. *)
let coverage spans ~start_ns ~stop_ns =
  let roots =
    Array.fold_left
      (fun acc sp ->
        if sp.parent = 0 then
          let a = max sp.start_ns start_ns and b = min sp.stop_ns stop_ns in
          if b > a then (a, b) :: acc else acc
        else acc)
      [] spans
  in
  if stop_ns <= start_ns then 0.0
  else float_of_int (union_length roots) /. float_of_int (stop_ns - start_ns)

let to_json spans =
  Json.List
    (Array.to_list
       (Array.map
          (fun sp ->
            Json.Assoc
              [
                ("id", Json.Int sp.id);
                ("parent", Json.Int sp.parent);
                ("req", Json.Int sp.req);
                ("name", Json.String sp.name);
                ("start_ns", Json.Int sp.start_ns);
                ("end_ns", Json.Int sp.stop_ns);
                ("derived", Json.Bool sp.derived);
              ])
          spans))
