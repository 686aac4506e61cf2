(* Injectable file I/O for durability code.

   Every persistence path in the checkpoint store routes its reads and
   writes through this module so that the failures disks actually produce
   — torn writes, flipped bits, fsyncs that never reached the platter,
   renames that hit the directory before the data pages — can be injected
   deterministically from the {!Fault} registry.

   Two crash models compose here:

   - {!Fault.Injected} escaping a write is a {e process} death: whatever
     the write had already handed to the OS survives (the harness
     abandons in-memory state and recovers from disk).
   - {!crash_lose_volatile} is a {e power} cut: on top of the process
     death, every byte written since the last successful fsync is lost.
     The module tracks, per path, the length known durable (the last
     fsync) and truncates volatile files back to it.

   Silent faults ([io.atomic.bit_flip], [io.atomic.dropped_fsync]) use
   {!Fault.check}: the damage is applied and the run continues — the
   point of the scrub subsystem is to find exactly this kind of damage
   later.  Damage positions are drawn from a dedicated PRNG ({!seed}) so
   a schedule is reproducible from its seed alone. *)

let point_read_short = "io.read.short"
let point_torn_write = "io.atomic.torn_write"
let point_bit_flip = "io.atomic.bit_flip"
let point_dropped_fsync = "io.atomic.dropped_fsync"
let point_rename_before_flush = "io.atomic.rename_before_flush"
let point_append_torn = "io.wal.append_torn"

let all_points =
  [
    point_read_short;
    point_torn_write;
    point_bit_flip;
    point_dropped_fsync;
    point_rename_before_flush;
    point_append_torn;
  ]

let () = List.iter Fault.declare all_points

let rng = ref (Prng.create 0x10f11e)

let seed s = rng := Prng.create s

(* Per-path durability tracking.  [durable] is the byte length known to
   have reached stable storage; [volatile = true] means bytes past it sit
   only in the page cache and a power cut loses them. *)
type track = { mutable durable : int; mutable volatile : bool }

let tracks : (string, track) Hashtbl.t = Hashtbl.create 16

let reset () = Hashtbl.reset tracks

let track_of path =
  match Hashtbl.find_opt tracks path with
  | Some tr -> tr
  | None ->
    let tr = { durable = 0; volatile = false } in
    Hashtbl.replace tracks path tr;
    tr

let mark_durable path len =
  let tr = track_of path in
  tr.durable <- len;
  tr.volatile <- false

(* The file was just replaced wholesale; only [durable] bytes of the new
   content are guaranteed. *)
let mark_volatile_set path durable =
  let tr = track_of path in
  tr.durable <- durable;
  tr.volatile <- true

(* Appended bytes are volatile; the previously-fsynced prefix stands. *)
let mark_volatile_keep path =
  let tr = track_of path in
  tr.volatile <- true

(* A strict prefix: the interesting torn lengths include 0 (nothing made
   it) and everything short of complete. *)
let prefix_len len = if len <= 0 then 0 else Prng.int_below !rng len

let fsync_fd fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_channel ch = fsync_fd (Unix.descr_of_out_channel ch)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fsync_fd fd)

let crash_lose_volatile () =
  Hashtbl.iter
    (fun path tr ->
      if tr.volatile then begin
        (try
           let size = (Unix.stat path).Unix.st_size in
           if tr.durable < size then Unix.truncate path tr.durable
         with Unix.Unix_error _ -> ());
        tr.volatile <- false
      end)
    tracks

let read_file path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if Fault.check point_read_short && String.length content > 0 then
    String.sub content 0 (prefix_len (String.length content))
  else content

let flip_one_bit content =
  let b = Bytes.of_string content in
  let pos = Prng.int_below !rng (Bytes.length b) in
  let bit = Prng.int_below !rng 8 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

let write_file ?(fsync = true) path content =
  if Fault.check point_torn_write then begin
    (* The process dies mid-write: a prefix reached the fd, none of it is
       known durable. *)
    let keep = prefix_len (String.length content) in
    let oc = open_out_bin path in
    output_string oc (String.sub content 0 keep);
    close_out_noerr oc;
    mark_volatile_set path 0;
    raise (Fault.Injected point_torn_write)
  end;
  let content =
    if String.length content > 0 && Fault.check point_bit_flip then
      flip_one_bit content
    else content
  in
  let oc = open_out_bin path in
  (match output_string oc content with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    raise e);
  flush oc;
  if fsync then begin
    if Fault.check point_dropped_fsync then begin
      (* The fsync "succeeded" without reaching the platter: some prefix
         happens to be on disk, the rest is page cache. *)
      close_out_noerr oc;
      mark_volatile_set path (prefix_len (String.length content))
    end
    else begin
      fsync_channel oc;
      close_out oc;
      mark_durable path (String.length content)
    end
  end
  else close_out oc

let rename_durable ?(fsync = true) src dst =
  if Fault.check point_rename_before_flush then begin
    (* The rename reached the directory before [src]'s data pages were
       flushed, and the machine died: [dst] exists but is torn. *)
    let size = try (Unix.stat src).Unix.st_size with Unix.Unix_error _ -> 0 in
    let keep = prefix_len size in
    (try Unix.truncate src keep with Unix.Unix_error _ -> ());
    (try Sys.rename src dst with Sys_error _ -> ());
    Hashtbl.remove tracks src;
    mark_durable dst keep;
    raise (Fault.Injected point_rename_before_flush)
  end;
  Sys.rename src dst;
  (* Durability state travels with the content. *)
  (match Hashtbl.find_opt tracks src with
  | Some tr ->
    Hashtbl.remove tracks src;
    Hashtbl.replace tracks dst tr
  | None -> ());
  if fsync then fsync_dir (Filename.dirname dst)

let write_atomic ?(fsync = true) path content =
  let tmp = path ^ ".tmp" in
  (match write_file ~fsync tmp content with
  | () -> ()
  | exception e ->
    (match e with
    | Fault.Injected _ -> () (* crash model: the torn tmp file stays *)
    | _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
    raise e);
  rename_durable ~fsync tmp path

let append ~path ch s =
  if Fault.check point_append_torn then begin
    let keep = prefix_len (String.length s) in
    output_string ch (String.sub s 0 keep);
    (try flush ch with Sys_error _ -> ());
    mark_volatile_keep path;
    raise (Fault.Injected point_append_torn)
  end;
  output_string ch s

let flush_fsync ?(fsync = true) ~path ch =
  flush ch;
  if fsync then begin
    if Fault.check point_dropped_fsync then mark_volatile_keep path
    else begin
      fsync_channel ch;
      mark_durable path (pos_out ch)
    end
  end
