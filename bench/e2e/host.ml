(* Process and host facts the records carry, and the run's scratch
   directory (checkpoint stores), which lives under the working directory
   and is removed when the run ends. *)

let status_field field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let prefix = field ^ ":" in
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line when String.starts_with ~prefix line ->
            Scanf.sscanf_opt (String.sub line (String.length prefix) (String.length line - String.length prefix))
              " %d kB" (fun kb -> kb)
          | _ -> scan ()
        in
        scan ())

(* High-water resident set (VmHWM); where /proc is missing, the OCaml
   heap's high-water mark. *)
let peak_rss_mib () =
  match status_field "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let cpu_count () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = ref 0 in
        (try
           while true do
             if String.starts_with ~prefix:"processor" (input_line ic) then incr n
           done
         with End_of_file -> ());
        if !n > 0 then !n else Domain.recommended_domain_count ())

let block () =
  Json.Assoc
    [
      ("cpu_count", Json.Int (cpu_count ()));
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("os_type", Json.String Sys.os_type);
      ("word_size", Json.Int Sys.word_size);
    ]

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
