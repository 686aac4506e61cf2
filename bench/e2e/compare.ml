(* [--compare A/ B/]: two sets of run records (A the parent, B the
   change), judged per workload and end-to-end metric by the rules the
   benchmark's bounds come with.  Each side gets its median and
   quartiles; B's median may be worse than A's by at most the metric's
   bound; pairs (the i-th record of each side, in file-name order, so run
   them alternately) count a win for B only when B is strictly better.
   Exits non-zero when any metric breaks its bound. *)

type metric_values = { unit : string; better : string; bound : float; values : float list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* workload -> metric name -> values, in file-name order *)
let load dir =
  let files =
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".json") |> List.sort compare
  in
  let table = Hashtbl.create 8 in
  List.iter
    (fun file ->
      let json = Json.of_string (read_file (Filename.concat dir file)) in
      match (Json.member "workload" json, Json.member "metrics" json) with
      | Some (Json.String workload), Some (Json.Assoc metrics) ->
        let per = match Hashtbl.find_opt table workload with Some t -> t | None -> Hashtbl.create 8 in
        Hashtbl.replace table workload per;
        List.iter
          (fun (name, m) ->
            match
              ( Option.bind (Json.member "value" m) Json.to_float,
                Json.member "unit" m,
                Json.member "better" m,
                Option.bind (Json.member "bound" m) Json.to_float )
            with
            | Some v, Some (Json.String unit), Some (Json.String better), Some bound ->
              let prev =
                match Hashtbl.find_opt per name with
                | Some p -> p
                | None -> { unit; better; bound; values = [] }
              in
              Hashtbl.replace per name { prev with values = prev.values @ [ v ] }
            | _ -> ())
          metrics
      | _ -> ())
    files;
  table

let summary values =
  let xs = Array.of_list values in
  if Array.length xs >= 2 then Stats.quartiles xs
  else
    let v = xs.(0) in
    (v, v, v)

(* [--summary DIR]: per workload and end-to-end metric, the median and
   quartiles of a record set, with the host it ran on. *)
let summary_json dir =
  let table = load dir in
  let workloads = Hashtbl.fold (fun w _ acc -> w :: acc) table [] |> List.sort compare in
  Json.Assoc
    [
      ("host", Host.block ());
      ( "workloads",
        Json.Assoc
          (List.map
             (fun w ->
               let per = Hashtbl.find table w in
               let names = Hashtbl.fold (fun n _ acc -> n :: acc) per [] |> List.sort compare in
               ( w,
                 Json.Assoc
                   (List.map
                      (fun name ->
                        let mv = Hashtbl.find per name in
                        let q1, med, q3 = summary mv.values in
                        ( name,
                          Json.Assoc
                            [
                              ("runs", Json.Int (List.length mv.values));
                              ("median", Json.Float med);
                              ("q1", Json.Float q1);
                              ("q3", Json.Float q3);
                              ("iqr_over_median", Json.Float ((q3 -. q1) /. med));
                              ("unit", Json.String mv.unit);
                              ("bound", Json.Float mv.bound);
                            ] ))
                      names) ))
             workloads) );
    ]

(* How much worse [b] is than [a], as a share of [a]; negative = better. *)
let worsening ~better a b = if better = "lower" then (b -. a) /. a else (a -. b) /. a

let run dir_a dir_b =
  let a = load dir_a and b = load dir_b in
  let ok = ref true in
  Printf.printf "%-12s %-18s %24s %24s %8s %7s %6s %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "bound" "B won" "verdict";
  let workloads = Hashtbl.fold (fun w _ acc -> w :: acc) a [] |> List.sort compare in
  List.iter
    (fun workload ->
      match Hashtbl.find_opt b workload with
      | None -> Printf.printf "%-12s (no records in %s)\n" workload dir_b
      | Some per_b ->
        let per_a = Hashtbl.find a workload in
        let names = Hashtbl.fold (fun n _ acc -> n :: acc) per_a [] |> List.sort compare in
        List.iter
          (fun name ->
            match Hashtbl.find_opt per_b name with
            | None -> ()
            | Some mb ->
              let ma = Hashtbl.find per_a name in
              let a1, a2, a3 = summary ma.values and b1, b2, b3 = summary mb.values in
              let change = worsening ~better:ma.better a2 b2 in
              let spread = (a3 -. a1) /. a2 in
              let rec pairs xs ys =
                match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
              in
              let ps = pairs ma.values mb.values in
              let won = List.length (List.filter (fun (x, y) -> worsening ~better:ma.better x y < 0.0) ps) in
              let better_everywhere =
                List.for_all (fun y -> List.for_all (fun x -> worsening ~better:ma.better x y < 0.0) ma.values) mb.values
              in
              (* a gain needs nine tenths of the pairs and a median move
                 wider than the parent's own spread; a parent spread wider
                 than the bound leaves the metric unresolved unless every
                 run of B beats every run of A *)
              let verdict =
                if change > ma.bound then "WORSE"
                else if ps <> [] && 10 * won >= 9 * List.length ps && -.change > spread then "gain"
                else if spread > ma.bound && not better_everywhere then "unresolved"
                else "ok"
              in
              if verdict = "WORSE" then ok := false;
              Printf.printf "%-12s %-18s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%% %6.0f%% %2d/%-3d %s  (A spread %.1f%%, %s)\n"
                workload name a2 a1 a3 b2 b1 b3 (100.0 *. change) (100.0 *. ma.bound) won (List.length ps)
                verdict (100.0 *. spread) ma.unit)
          names)
    workloads;
  if !ok then 0 else 1
