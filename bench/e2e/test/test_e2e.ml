(* Unit tests of the benchmark's own machinery, plus one tiny round of
   each workload, so an API change in the libraries breaks the build and
   the test suite rather than the next benchmark run. *)

open E2e

let close = Alcotest.float 1e-9

(* --- Stats ----------------------------------------------------------------- *)

let recorder values =
  let r = Stats.create () in
  List.iter (Stats.add r) values;
  r

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let is_ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "p90 of 99 samples refused" false (is_ok (Stats.percentile (recorder (range 99)) 0.9));
  Alcotest.(check bool) "p90 of 100 samples allowed" true (is_ok (Stats.percentile (recorder (range 100)) 0.9));
  Alcotest.(check bool) "median of 19 refused" false (is_ok (Stats.percentile (recorder (range 19)) 0.5));
  Alcotest.(check bool) "p99 of 999 refused" false (is_ok (Stats.percentile (recorder (range 999)) 0.99));
  Alcotest.(check bool) "p99 of 1000 allowed" true (is_ok (Stats.percentile (recorder (range 1000)) 0.99));
  (match Stats.percentile (recorder (range 100)) 0.5 with
  | Ok v -> Alcotest.check close "median of 1..100" 50.5 v
  | Error e -> Alcotest.fail e);
  match Stats.median (recorder [ 3.0; 1.0; 2.0 ]) with
  | Ok v -> Alcotest.check close "plain median of three" 2.0 v
  | Error e -> Alcotest.fail e

let test_fixed_capacity () =
  let r = Stats.create ~capacity:16 () in
  for i = 1 to 10_000 do
    Stats.add r (float_of_int i)
  done;
  Alcotest.(check int) "kept" 16 (Stats.count r);
  Alcotest.(check int) "seen" 10_000 (Stats.seen r);
  Alcotest.check close "mean over every sample" 5000.5 (Stats.mean r);
  Alcotest.(check bool) "reservoir holds seen values" true
    (Array.for_all (fun x -> x >= 1.0 && x <= 10_000.0) (Stats.samples r))

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles (Array.of_list xs) in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (range 10) (2.75, 5.5, 8.25);
  check "1..5" (range 5) (1.5, 3.0, 4.5);
  check "two" [ 4.0; 1.0 ] (0.25, 2.5, 4.75)

(* --- Trace ----------------------------------------------------------------- *)

let sp id parent name a b = { Trace.id; parent; req = 0; name; start_ns = a; stop_ns = b; derived = false }

let test_self_time () =
  let spans =
    [|
      sp 1 0 "root" 0 100;
      sp 2 1 "a" 10 30;
      sp 3 1 "b" 20 50;
      (* overruns its parent; only the covered part counts against it *)
      sp 4 1 "c" 90 120;
      sp 5 3 "d" 25 35;
    |]
  in
  let self = Trace.self_ns spans in
  let get name = Hashtbl.find self name in
  Alcotest.(check int) "root self = 100 - |[10,50] u [90,100]|" 50 (get "root");
  Alcotest.(check int) "a" 20 (get "a");
  Alcotest.(check int) "b minus its child" 20 (get "b");
  Alcotest.(check int) "c" 30 (get "c");
  Alcotest.(check (float 1e-9)) "coverage of [0,200]" 0.5 (Trace.coverage spans ~start_ns:0 ~stop_ns:200)

let test_derived_spans () =
  Trace.reset ~on:true;
  Trace.span "call" (fun () -> Unix.sleepf 0.002);
  (* reported phases longer than the call are clipped to it *)
  Trace.derive [ ("first", 0.0005); ("skipped", 0.0); ("second", 10.0) ];
  let spans = Trace.spans () in
  Trace.reset ~on:false;
  Alcotest.(check (list string)) "names" [ "call"; "first"; "second" ]
    (Array.to_list (Array.map (fun s -> s.Trace.name) spans));
  let call = spans.(0) and first = spans.(1) and second = spans.(2) in
  Alcotest.(check bool) "derived" true (first.Trace.derived && second.Trace.derived);
  Alcotest.(check int) "parent" call.Trace.id first.Trace.parent;
  Alcotest.(check int) "laid end to end" first.Trace.stop_ns second.Trace.start_ns;
  Alcotest.(check int) "clipped" call.Trace.stop_ns second.Trace.stop_ns;
  Alcotest.(check int) "call fully covered" 0 (Hashtbl.find (Trace.self_ns spans) "call")

(* --- JSON ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Assoc
      [
        ("correct", Json.Bool true);
        ("attempted", Json.Int 1234);
        ("nothing", Json.Null);
        ("floats", Json.List [ Json.Float 0.1; Json.Float 1e-300; Json.Float 123456789.123; Json.Float 12.0 ]);
        ("text", Json.String "tab\there \"quoted\" back\\slash \001 caf\xc3\xa9");
        ("nested", Json.Assoc [ ("empty", Json.List []); ("obj", Json.Assoc []) ]);
      ]
  in
  Alcotest.(check bool) "of_string (to_string v) = v" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "escaped unicode" true (Json.of_string "\"\\u00e9\"" = Json.String "\xc3\xa9");
  let rejects s = match Json.of_string s with exception Json.Parse_error _ -> true | _ -> false in
  Alcotest.(check bool) "rejects trailing garbage" true (rejects "{} x");
  Alcotest.(check bool) "rejects truncation" true (rejects "{\"a\": [1, 2")

(* BENCHMARK.json declares exactly what the benchmark prints. *)
let test_declared_metrics () =
  let ic = open_in_bin "../../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = Json.of_string text in
  let entries key = match Json.member key json with Some (Json.List l) -> l | _ -> Alcotest.fail key in
  let str key v = match Json.member key v with Some (Json.String s) -> s | _ -> Alcotest.fail key in
  let describe (m : Spec.metric) =
    Printf.sprintf "%s %s %s %s" m.Spec.name m.Spec.unit (Spec.better_to_string m.Spec.better)
      (match m.Spec.bound with Some b -> Printf.sprintf "%g" b | None -> "-")
  in
  let declared key =
    List.map
      (fun v ->
        Printf.sprintf "%s %s %s %s" (str "name" v) (str "unit" v) (str "better" v)
          (match Json.member "bound" v with Some b -> Printf.sprintf "%g" (Option.get (Json.to_float b)) | None -> "-"))
      (entries key)
  in
  Alcotest.(check (list string)) "end_to_end" (List.map describe Spec.end_to_end) (declared "end_to_end");
  Alcotest.(check (list string)) "per_layer" (List.map describe Spec.per_layer) (declared "per_layer");
  Alcotest.(check (list string)) "workloads" (List.map fst Workloads.all) (List.map (str "name") (entries "workloads"))

(* --- one tiny round of each workload ---------------------------------------- *)

let smoke (name, body) =
  Alcotest.test_case name `Quick (fun () ->
      let dir = Printf.sprintf "smoke_%d_%s" (Unix.getpid ()) name in
      Host.mkdir_p dir;
      Trace.reset ~on:true;
      let m = Measure.create () in
      let gc0 = Gc.quick_stat () in
      Fun.protect
        ~finally:(fun () -> Host.rm_rf dir)
        (fun () -> body { Measure.workload = name; seed = 7; seconds = 0.0; smoke = true; dir } m);
      let failed = List.filter_map (fun (check, v) -> Option.map (fun why -> check ^ ": " ^ why) v) m.Measure.checks in
      Alcotest.(check (list string)) "every check passes" [] failed;
      Alcotest.(check bool) "checks ran" true (m.Measure.checks <> []);
      Alcotest.(check int) "no failed operation" 0 m.Measure.failed;
      Alcotest.(check bool) "attempted" true (m.Measure.attempted > 0);
      List.iter
        (fun (metric, r) ->
          match r with
          | Ok v -> Alcotest.(check bool) (metric ^ " is finite") true (Float.is_finite v)
          | Error why ->
            (* a smoke round only ever lacks samples for a percentile *)
            Alcotest.(check bool) (metric ^ " refused for sample count") true
              (String.length why > 0 && String.starts_with ~prefix:"p" why))
        (Measure.end_to_end m);
      let layers = Measure.per_layer m ~gc0 ~gc1:(Gc.quick_stat ()) ~stop_ns:(Trace.now_ns ()) in
      Trace.reset ~on:false;
      List.iter
        (fun (s : Spec.metric) ->
          match List.assoc_opt s.Spec.name layers with
          | Some v -> Alcotest.(check bool) (s.Spec.name ^ " is finite") true (Float.is_finite v)
          | None -> Alcotest.fail ("per-layer metric missing: " ^ s.Spec.name))
        Spec.per_layer;
      Alcotest.(check bool) "spans cover the run" true (List.assoc "trace.coverage_pct" layers > 90.0);
      (* the engine's reported phases land as derived spans, in seconds *)
      if Hashtbl.mem m.Measure.recorders "inference" then
        Alcotest.(check bool) "inference has a share" true (List.assoc "share.inference_pct" layers > 0.0))

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "fixed capacity" `Quick test_fixed_capacity;
          Alcotest.test_case "python quartiles" `Quick test_quartiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "derived spans" `Quick test_derived_spans;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "declared metrics" `Quick test_declared_metrics;
        ] );
      ("smoke", List.map smoke Workloads.all);
    ]
