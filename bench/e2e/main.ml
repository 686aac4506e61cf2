(* End-to-end KBC-update benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--json RECORD] [--spans FILE] [--smoke]
     main.exe --compare A/ B/

   One run executes one workload in this process, prints every metric by
   name with its unit, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  It exits 1 when
   a correctness check fails or a metric cannot be measured. *)

open E2e
open Measure
open Spec
module M = Measure

let usage = "main.exe --workload W --seed N --seconds S --trace 0|1 [--json FILE] [--spans FILE] [--smoke] | --compare A B"

(* Checks repeat every round; report each by name with its tallies. *)
let tally checks =
  List.fold_left
    (fun acc (name, verdict) ->
      let ok, bad, why = Option.value ~default:(0, 0, None) (List.assoc_opt name acc) in
      let entry =
        match verdict with
        | None -> (ok + 1, bad, why)
        | Some detail -> (ok, bad + 1, if why = None then Some detail else why)
      in
      (name, entry) :: List.remove_assoc name acc)
    [] (List.rev checks)
  |> List.rev

let run ~workload ~seed ~seconds ~trace ~smoke ~json ~spans_out =
  let body =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst Workloads.all));
      exit 2
  in
  Trace.reset ~on:trace;
  let dir = Filename.concat ".bench_e2e" (string_of_int (Unix.getpid ())) in
  Host.mkdir_p dir;
  let ctx = { M.workload; seed; seconds; smoke; dir } in
  let m = M.create () in
  let gc0 = Gc.quick_stat () in
  Fun.protect
    ~finally:(fun () ->
      Host.rm_rf dir;
      try Sys.rmdir ".bench_e2e" with Sys_error _ -> ())
    (fun () -> body ctx m);
  let stop_ns = Trace.now_ns () in
  let gc1 = Gc.quick_stat () in
  let wall_s = float_of_int (stop_ns - m.started_ns) /. 1e9 in
  let checks = tally m.checks in
  let correct = List.for_all (fun (_, (_, bad, _)) -> bad = 0) checks in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d  wall %.2fs  rounds %d\n" workload seed seconds
    (if trace then 1 else 0) wall_s m.rounds;
  List.iter
    (fun (name, (ok, bad, why)) ->
      Printf.printf "check %-22s %s (%d passed, %d failed)%s\n" name
        (if bad = 0 then "ok" else "FAILED")
        ok bad
        (match why with Some w -> ": " ^ w | None -> ""))
    checks;
  let e2e, refused = List.partition_map (function n, Ok v -> Either.Left (n, v) | n, Error e -> Either.Right (n, e)) (M.end_to_end m) in
  List.iter (fun (name, why) -> Printf.eprintf "cannot report %s: %s\n" name why) refused;
  (* a smoke round is too small for the percentile rule; it checks correctness only *)
  if refused <> [] then exit (if smoke && correct then 0 else 1);
  begin
    let layers = if trace then M.per_layer m ~gc0 ~gc1 ~stop_ns else [] in
    Result.iter (fun v -> M.extra m "latency_p99_ms" v "ms") (Stats.percentile m.latency 0.99);
    let extras = List.rev m.extras in
    let declared specs values = List.map (fun (s : Spec.metric) -> (s, List.assoc s.name values)) specs in
    let shown = declared Spec.end_to_end e2e @ if trace then declared Spec.per_layer layers else [] in
    List.iter (fun ((s : Spec.metric), v) -> Printf.printf "metric %-36s %.6g %s\n" s.name v s.unit) shown;
    List.iter (fun (name, v, unit) -> Printf.printf "extra  %-36s %.6g %s\n" name v unit) extras;
    let result metrics =
      {
        Report.workload;
        seed;
        seconds;
        trace;
        wall_s;
        correct;
        attempted = m.attempted;
        failed = m.failed;
        metrics;
        extras;
        checks = List.map (fun (name, (ok, bad, _)) -> (name, ok, bad)) checks;
      }
    in
    Option.iter (fun path -> Report.write_file path (Json.to_string (Report.record (result shown)) ^ "\n")) json;
    if trace then
      Option.iter
        (fun path ->
          Report.write_file path
            (Json.to_string
               (Json.Assoc
                  [
                    ("workload", Json.String workload);
                    ("seed", Json.Int seed);
                    ("spans", Trace.to_json (Trace.spans ()));
                  ])))
        spans_out;
    let final = if trace then declared Spec.per_layer layers else declared Spec.end_to_end e2e in
    print_endline (Json.to_string (Report.result_line (result final)));
    if not correct then exit 1
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let json = ref None and spans = ref None and smoke = ref false and compare = ref [] and summary = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  one of rule_dev, doc_stream, batch_build, serve_mixed");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  run length: the rounds that take about S seconds on the reference host");
      ("--trace", Arg.Set_int trace, "0|1  1 records spans and reports the per-layer metrics");
      ("--json", Arg.String (fun p -> json := Some p), "FILE  write the run record");
      ("--spans", Arg.String (fun p -> spans := Some p), "FILE  write the spans of a traced run");
      ("--smoke", Arg.Set smoke, " one tiny round (correctness only)");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> compare := [ a ]); Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "A B  compare two directories of run records" );
      ("--summary", Arg.String (fun d -> summary := Some d), "DIR  median and quartiles of a directory of run records");
    ]
  in
  Arg.parse specs (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg))) usage;
  match (!compare, !summary) with
  | [ a; b ], _ -> exit (Compare.run a b)
  | _, Some dir -> print_endline (Json.to_string (Compare.summary_json dir))
  | _ ->
    if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds < 0.0 then begin
      prerr_endline usage;
      exit 2
    end;
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~smoke:!smoke ~json:!json
      ~spans_out:!spans
