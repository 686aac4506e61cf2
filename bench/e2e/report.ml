(* What a run prints and writes: the one-line result a benchmark
   runner reads, and the fuller record [--json] writes for [--compare]
   and the baseline. *)

open Spec

type run = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  wall_s : float;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Spec.metric * float) list;  (** the declared set for this mode *)
  extras : (string * float * string) list;
  checks : (string * int * int) list;  (** name, passed, failed *)
}

let result_line r =
  Json.Assoc
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Assoc
          (List.map
             (fun ((m : Spec.metric), v) ->
               (m.name, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String m.unit) ]))
             r.metrics) );
    ]

let record r =
  Json.Assoc
    [
      ("schema_version", Json.Int 2);
      ("benchmark", Json.String "e2e");
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Float r.seconds);
      ("trace", Json.Bool r.trace);
      ("host", Host.block ());
      ("wall_clock_seconds", Json.Float r.wall_s);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Assoc
          (List.map
             (fun ((m : Spec.metric), v) ->
               ( m.name,
                 Json.Assoc
                   [
                     ("value", Json.Float v);
                     ("unit", Json.String m.unit);
                     ("better", Json.String (Spec.better_to_string m.better));
                     ("bound", match m.bound with Some b -> Json.Float b | None -> Json.Null);
                   ] ))
             r.metrics) );
      ( "extras",
        Json.Assoc
          (List.map
             (fun (name, v, unit) -> (name, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             r.extras) );
      ( "checks",
        Json.Assoc
          (List.map
             (fun (name, ok, bad) -> (name, Json.Assoc [ ("passed", Json.Int ok); ("failed", Json.Int bad) ]))
             r.checks) );
    ]

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
