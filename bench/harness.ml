(* Shared plumbing for the benchmark harness: experiment registry, timing
   helpers, and the synthetic pairwise factor graphs used by the tradeoff
   experiments of Figure 5. *)

module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Metropolis = Dd_inference.Metropolis
module Prng = Dd_util.Prng
module Timer = Dd_util.Timer
module Table = Dd_util.Table

type experiment = {
  name : string;
  title : string;
  run : full:bool -> unit;
}

let registry : experiment list ref = ref []

let register name title run = registry := { name; title; run } :: !registry

let all_experiments () = List.rev !registry

let section title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title bar

let note fmt = Printf.ksprintf (fun line -> Printf.printf "%s\n" line) fmt

(* --- machine-readable results ------------------------------------------ *)

(* Experiments report named scalar results through [metric]; the driver
   (bench/main.ml) snapshots them per experiment and, under [--json],
   writes one BENCH_<name>.json-style file per experiment so the perf
   trajectory of the repo is diffable across commits. *)

let current_metrics : (string * float) list ref = ref []

let reset_metrics () = current_metrics := []

let metric key value = current_metrics := (key, value) :: !current_metrics

let metrics () = List.rev !current_metrics

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  (* JSON has no NaN/Infinity literals; clamp to null. *)
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

(* Host context (schema v2): bench records are compared across commits
   *and* machines, and a scaling curve measured on 1 core means something
   entirely different from the same curve on 16 — without the host block,
   cross-machine trajectory comparison is guesswork. *)
let host_cpu_count () =
  (* [Domain.recommended_domain_count] already folds in cgroup/affinity
     limits; /proc gives the raw processor count where available. *)
  try
    let ic = open_in "/proc/cpuinfo" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.length line >= 9 && String.sub line 0 9 = "processor" then incr n
           done
         with End_of_file -> ());
        if !n > 0 then !n else Domain.recommended_domain_count ())
  with _ -> Domain.recommended_domain_count ()

let write_json_record ~path ~name ~scale ~wall_clock_s ~metrics =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n";
      Printf.fprintf oc "  \"schema_version\": 2,\n";
      Printf.fprintf oc "  \"experiment\": \"%s\",\n" (json_escape name);
      Printf.fprintf oc "  \"scale\": \"%s\",\n" (json_escape scale);
      Printf.fprintf oc "  \"host\": {\n";
      Printf.fprintf oc "    \"cpu_count\": %d,\n" (host_cpu_count ());
      Printf.fprintf oc "    \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
      Printf.fprintf oc "    \"ocaml_version\": \"%s\",\n" (json_escape Sys.ocaml_version);
      Printf.fprintf oc "    \"os_type\": \"%s\",\n" (json_escape Sys.os_type);
      Printf.fprintf oc "    \"word_size\": %d\n" Sys.word_size;
      Printf.fprintf oc "  },\n";
      Printf.fprintf oc "  \"wall_clock_seconds\": %s,\n" (json_float wall_clock_s);
      Printf.fprintf oc "  \"metrics\": {";
      List.iteri
        (fun i (key, value) ->
          Printf.fprintf oc "%s\n    \"%s\": %s"
            (if i = 0 then "" else ",")
            (json_escape key) (json_float value))
        metrics;
      Printf.fprintf oc "%s}\n}\n" (if metrics = [] then "" else "\n  "))

(* Median-of-k timing to damp scheduler noise. *)
let time_median ?(repeats = 3) f =
  let times = List.init repeats (fun _ -> Timer.time_s f) in
  List.nth (List.sort compare times) (repeats / 2)

(* A synthetic factor graph in the style of the Figure 5 study: [n]
   variables, unary biases, and pairwise conjunction factors along a chain
   plus [extra] random pairs.  [sparsity] is the fraction of pairwise
   weights that are non-zero; weights are sampled from [-0.5, 0.5] as in
   the paper's footnote. *)
let synthetic_graph ?(sparsity = 1.0) ?(extra_per_var = 1) rng n =
  let g = Graph.create () in
  let vars = Graph.add_vars g n in
  Array.iter
    (fun v ->
      let w = Graph.add_weight g (Prng.float_range rng (-0.5) 0.5) in
      ignore (Graph.unary g ~weight:w v))
    vars;
  let add_edge a b =
    let value =
      if Prng.bernoulli rng sparsity then Prng.float_range rng (-0.5) 0.5 else 0.0
    in
    let w = Graph.add_weight g value in
    ignore (Graph.pairwise g ~weight:w vars.(a) vars.(b))
  in
  for k = 0 to n - 2 do
    add_edge k (k + 1)
  done;
  if n > 2 then
    for _ = 1 to extra_per_var * n / 2 do
      let a = Prng.int_below rng n in
      let b = (a + 1 + Prng.int_below rng (n - 1)) mod n in
      add_edge (min a b) (max a b)
    done;
  g

(* A synthetic scale graph for the sampler experiment's parallel modes: [n] query
   variables with unary biases plus pairwise conjunction factors — a
   chain edge v—(v+1) and [extra_per_var] random edges per variable whose
   endpoints lie within [locality] positions of each other.  The window
   mirrors the document-local factor structure KBC grounding produces
   (mentions of one document share factors; cross-document factors are
   rare).  All variables are query variables, so a sweep's work is
   exactly [n] conditionals. *)
let scale_graph ?(extra_per_var = 2) ?(locality = 512) rng n =
  let g = Graph.create () in
  let vars = Graph.add_vars g n in
  Array.iter
    (fun v ->
      let w = Graph.add_weight g (Prng.float_range rng (-0.5) 0.5) in
      ignore (Graph.unary g ~weight:w v))
    vars;
  let add_edge a b =
    if a <> b then begin
      let w = Graph.add_weight g (Prng.float_range rng (-0.5) 0.5) in
      ignore (Graph.pairwise g ~weight:w vars.(min a b) vars.(max a b))
    end
  in
  for k = 0 to n - 2 do
    add_edge k (k + 1)
  done;
  let window = max 1 locality in
  for v = 0 to n - 1 do
    for _ = 1 to extra_per_var do
      let off = 1 + Prng.int_below rng window in
      let u = if Prng.bool rng then v + off else v - off in
      if u >= 0 && u < n then add_edge v u
    done
  done;
  g

(* Perturb every pairwise/unary weight by gaussian noise of scale [delta];
   returns the change record (old weights recorded). *)
let perturb_weights rng g delta =
  let changed = ref [] in
  if delta <> 0.0 then
    for w = 0 to Graph.num_weights g - 1 do
      let old_value = Graph.weight_value g w in
      let fresh = old_value +. (delta *. Prng.gaussian rng) in
      if fresh <> old_value then begin
        Graph.set_weight g w fresh;
        changed := (w, old_value) :: !changed
      end
    done;
  { (Metropolis.unchanged g) with Metropolis.changed_weights = !changed }

let restore_weights g change =
  List.iter
    (fun (w, old_value) -> Graph.set_weight g w old_value)
    change.Metropolis.changed_weights

(* An independent-MH chain of [chain_length] proposals that reads
   [stored] round-robin: the synthetic experiments time chains longer than
   their stores, and [Metropolis.infer] itself never wraps. *)
let mh_chain rng change ~stored ~chain_length =
  let n = Array.length stored in
  Metropolis.infer rng change
    ~stored:(Array.init (chain_length + 1) (fun i -> stored.(i mod n)))
    ~first:0 ~proposals:chain_length

(* Find a perturbation scale whose independent-MH acceptance rate is close
   to [target], by bisection on delta (acceptance decreases in delta). *)
let calibrate_acceptance rng g ~stored ~target =
  let probe delta =
    let change = perturb_weights (Prng.copy rng) g delta in
    let rate =
      (mh_chain (Prng.create 99) change ~stored ~chain_length:(min 200 (Array.length stored)))
        .Metropolis.acceptance_rate
    in
    restore_weights g change;
    rate
  in
  if target >= 0.999 then 0.0
  else begin
    let lo = ref 0.0 and hi = ref 8.0 in
    for _ = 1 to 12 do
      let mid = ( !lo +. !hi ) /. 2.0 in
      if probe mid > target then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  end

(* The Fig-KBC graph of the sampler experiment: generate the News corpus,
   ground the full program, and fit weights briefly so the sweeps sample
   a realistic posterior. *)
let fig_kbc_graph ~full =
  let module Corpus = Dd_kbc.Corpus in
  let module Systems = Dd_kbc.Systems in
  let module Pipeline = Dd_kbc.Pipeline in
  let module Grounding = Dd_core.Grounding in
  let module Database = Dd_relational.Database in
  let module Learner = Dd_inference.Learner in
  let config = Systems.news in
  let config =
    if full then
      {
        config with
        Corpus.docs = config.Corpus.docs * 4;
        entities = config.Corpus.entities * 2;
      }
    else config
  in
  let corpus = Corpus.generate config in
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db (Pipeline.full_program ()) in
  let g = Grounding.graph grounding in
  Learner.train_cd
    ~options:{ Learner.default_cd with Learner.epochs = 10 }
    ~kernel:(Dd_inference.Compiled.compile g) (Prng.create 41);
  g
