(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation
   (see DESIGN.md for the experiment index):

     dune exec bench/main.exe                 # all experiments, default scale
     dune exec bench/main.exe -- fig5a fig9   # a subset
     dune exec bench/main.exe -- --full       # larger sizes (slower)
     dune exec bench/main.exe -- --list       # list experiment names
     dune exec bench/main.exe -- sampler --json out.json
                                              # machine-readable results

   [--json PATH] writes one JSON record per experiment (name, scale,
   wall-clock seconds, metrics): to PATH itself when a single experiment
   is selected, otherwise to PATH/BENCH_<name>.json with PATH treated as
   a directory (created if missing).

   Absolute numbers will differ from the paper (their testbed is a 48-core
   1TB machine over Greenplum; ours is an in-memory engine at 1/1000
   scale) — the claims under reproduction are the *shapes*: who wins,
   where the crossovers sit, and how quality responds. *)

(* Force linking of the experiment modules (registration happens in their
   initializers). *)
module _ = Fig5
module _ = Fig_kbc
module _ = Fig_semantics
module _ = Fig_learning
module _ = Micro
module _ = Ablations
module _ = Calibration_bench
module _ = Fig_recovery
module _ = Robustness
module _ = Serving
module _ = Columnar
module _ = Ingestion
module _ = Sampler
module _ = Scrub_bench
module _ = Soak_bench

type cli = { full : bool; list : bool; json : string option; names : string list }

let parse_args args =
  let rec go acc = function
    | [] -> { acc with names = List.rev acc.names }
    | "--full" :: rest -> go { acc with full = true } rest
    | "--list" :: rest -> go { acc with list = true } rest
    | "--json" :: path :: rest when String.length path < 2 || String.sub path 0 2 <> "--" ->
      go { acc with json = Some path } rest
    | "--json" :: _ ->
      prerr_endline "--json requires a PATH argument";
      exit 1
    | flag :: _ when String.length flag >= 2 && String.sub flag 0 2 = "--" ->
      Printf.eprintf "unknown flag %s\n" flag;
      exit 1
    | name :: rest -> go { acc with names = name :: acc.names } rest
  in
  go { full = false; list = false; json = None; names = [] } args

let json_target json ~selected name =
  match json with
  | None -> None
  | Some path ->
    if List.length selected = 1 then Some path
    else begin
      if not (Sys.file_exists path) then Sys.mkdir path 0o755;
      Some (Filename.concat path (Printf.sprintf "BENCH_%s.json" name))
    end

let () =
  let cli = parse_args (List.tl (Array.to_list Sys.argv)) in
  let experiments = Harness.all_experiments () in
  if cli.list then begin
    List.iter
      (fun e -> Printf.printf "%-12s %s\n" e.Harness.name e.Harness.title)
      experiments;
    exit 0
  end;
  let selected =
    if cli.names = [] then
      (* Micro-benchmarks only on request: they take a while under Bechamel. *)
      List.filter (fun e -> e.Harness.name <> "micro") experiments
    else
      List.map
        (fun name ->
          match List.find_opt (fun e -> e.Harness.name = name) experiments with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %s (try --list)\n" name;
            exit 1)
        cli.names
  in
  let total_timer = Dd_util.Timer.start () in
  List.iter
    (fun e ->
      Harness.reset_metrics ();
      let seconds = Dd_util.Timer.time_s (fun () -> e.Harness.run ~full:cli.full) in
      match json_target cli.json ~selected e.Harness.name with
      | None -> ()
      | Some path ->
        Harness.write_json_record ~path ~name:e.Harness.name
          ~scale:(if cli.full then "full" else "default")
          ~wall_clock_s:seconds ~metrics:(Harness.metrics ());
        Printf.printf "\n[json] %s -> %s\n" e.Harness.name path)
    selected;
  Printf.printf "\nAll experiments finished in %.1fs.\n" (Dd_util.Timer.elapsed_s total_timer)
