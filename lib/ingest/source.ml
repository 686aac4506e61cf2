(* Deterministic document-arrival streams.

   Everything is precomputed inside [synthetic] from the config seed —
   arrival timestamps, document text, which surface variant each mention
   uses, and when each alias declaration surfaces — so a stream is a pure
   value: two sources with equal configs emit identical documents, and the
   bench's latency numbers are attributable to the pipeline, not the
   generator.

   Surface-form model per entity [e]:
     primary   "First<e> Last<e>"   (the form [known] facts are keyed to)
     surname   "Last<e>"            (needs a declared alias to merge)
     nickname  "Nick<e>"           (needs a declared alias to merge)
     shouted   "FIRST<e> LAST<e>"   (case variant: merges by normalization)

   An alias declaration (variant, primary) rides with the first document
   using the variant, or — with probability [alias_lag] — joins a pending
   queue that later documents drain, which is exactly the late-merge case
   the canonicalizer must turn into a retract + rederive delta. *)

module Value = Dd_relational.Value
module Tuple = Dd_relational.Tuple
module Prng = Dd_util.Prng
module Mention_finder = Dd_text.Mention_finder

type payload =
  | Text of {
      text : string;
      names : string list;
      aliases : (string * string) list;
    }

type doc = { id : int; arrival_s : float; payload : payload }

type config = {
  docs : int;
  entities : int;
  relations : int;
  sentences_per_doc : int;
  rate : float;
  burstiness : float;
  primary_first : float;
  alias_lag : float;
  noise_rate : float;
  truth_pairs_per_relation : int;
  known_fraction : float;
  seed : int;
}

let default =
  {
    docs = 120;
    entities = 30;
    relations = 3;
    sentences_per_doc = 2;
    rate = 200.0;
    burstiness = 0.3;
    primary_first = 0.8;
    alias_lag = 0.5;
    noise_rate = 0.2;
    truth_pairs_per_relation = 12;
    known_fraction = 0.6;
    seed = 11;
  }

type t = {
  mutable queue : doc list;  (* arrival order *)
  static : (string * Tuple.t list) list;
  truth_entities : int;
}

let s = Value.str

let primary e = Printf.sprintf "First%d Last%d" e e
let surname e = Printf.sprintf "Last%d" e
let nickname e = Printf.sprintf "Nick%d" e
let shouted e = Printf.sprintf "FIRST%d LAST%d" e e

let variants e = [| primary e; surname e; nickname e; shouted e |]

let entity_id e = "ent:" ^ Mention_finder.normalize_name (primary e)

let rel_name r = Printf.sprintf "r%d" r

let cues_per_relation = 3

let cue_phrase r k = Printf.sprintf "%s_cue%d" (rel_name r) k

let n_noise_phrases = 6

let noise_phrase k = Printf.sprintf "noise%d" k

(* Interarrival gaps: exponential with mean [1/rate]; a [burstiness]
   fraction of gaps collapse to 5% of their draw (a burst) and the rest
   stretch so the overall mean rate is preserved. *)
let next_gap rng cfg =
  let base = Prng.exponential rng cfg.rate in
  let p = cfg.burstiness in
  if p <= 0.0 then base
  else if Prng.bernoulli rng p then base *. 0.05
  else base *. ((1.0 -. (0.05 *. p)) /. (1.0 -. p))

let synthetic cfg =
  if cfg.entities < 2 then invalid_arg "Source.synthetic: need at least 2 entities";
  if cfg.relations < 1 then invalid_arg "Source.synthetic: need at least 1 relation";
  let rng = Prng.create cfg.seed in
  let nrels = cfg.relations in
  (* Hidden ground truth and the incomplete KB derived from it. *)
  let truth_set = Hashtbl.create 64 in
  let truth_by_rel =
    Array.init nrels (fun r ->
        let pairs = ref [] and made = ref 0 and attempts = ref 0 in
        while !made < cfg.truth_pairs_per_relation && !attempts < cfg.truth_pairs_per_relation * 20 do
          incr attempts;
          let e1 = Prng.int_below rng cfg.entities and e2 = Prng.int_below rng cfg.entities in
          if e1 <> e2 && not (Hashtbl.mem truth_set (r, e1, e2)) then begin
            Hashtbl.replace truth_set (r, e1, e2) ();
            pairs := (e1, e2) :: !pairs;
            incr made
          end
        done;
        Array.of_list (List.rev !pairs))
  in
  let known =
    List.concat
      (List.init nrels (fun r ->
           Array.to_list truth_by_rel.(r)
           |> List.filter_map (fun (e1, e2) ->
                  if Prng.bernoulli rng cfg.known_fraction then
                    Some [| s (rel_name r); s (entity_id e1); s (entity_id e2) |]
                  else None)))
  in
  let disjoint =
    if nrels < 2 then []
    else
      List.init nrels (fun r -> [| s (rel_name r); s (rel_name ((r + 1) mod nrels)) |])
  in
  let phrase_rel =
    List.concat
      (List.init nrels (fun r ->
           List.init cues_per_relation (fun k -> [| s (cue_phrase r k); s (rel_name r) |])))
    (* one mapped noise phrase: candidate recall over precision *)
    @ [ [| s (noise_phrase 0); s (rel_name (Prng.int_below rng nrels)) |] ]
  in
  let static =
    [
      ("rel", List.init nrels (fun r -> [| s (rel_name r) |]));
      ("phrase_rel", phrase_rel);
      ("known", known);
      ("disjoint", disjoint);
    ]
  in
  (* Per-entity stream state. *)
  let appeared = Array.make cfg.entities false in
  let name_introduced = Array.make_matrix cfg.entities 4 false in
  let alias_declared = Array.make_matrix cfg.entities 4 false in
  let pending = Queue.create () in
  let used_entities = Hashtbl.create cfg.entities in
  let clock = ref 0.0 in
  let docs = ref [] in
  for id = 0 to cfg.docs - 1 do
    clock := !clock +. next_gap rng cfg;
    let names = ref [] and aliases = ref [] in
    (* Later documents drain the deferred-alias queue. *)
    while (not (Queue.is_empty pending)) && Prng.bernoulli rng 0.6 do
      aliases := Queue.pop pending :: !aliases
    done;
    let introduce e v =
      if not name_introduced.(e).(v) then begin
        name_introduced.(e).(v) <- true;
        names := (variants e).(v) :: !names
      end
    in
    let surface_of e =
      Hashtbl.replace used_entities e ();
      let v =
        if not appeared.(e) then
          if Prng.bernoulli rng cfg.primary_first then 0 else 1 + Prng.int_below rng 3
        else Prng.int_below rng 4
      in
      appeared.(e) <- true;
      introduce e v;
      (* Variants 1 and 2 merge only through a declared alias; emit the
         declaration now or defer it. *)
      if (v = 1 || v = 2) && not alias_declared.(e).(v) then begin
        alias_declared.(e).(v) <- true;
        let declaration = ((variants e).(v), primary e) in
        if Prng.bernoulli rng cfg.alias_lag then Queue.push declaration pending
        else aliases := declaration :: !aliases
      end;
      (variants e).(v)
    in
    let sentences = ref [] in
    for _ = 1 to cfg.sentences_per_doc do
      let sentence =
        if Prng.bernoulli rng cfg.noise_rate then begin
          let e1 = Prng.int_below rng cfg.entities in
          let e2 = (e1 + 1 + Prng.int_below rng (cfg.entities - 1)) mod cfg.entities in
          Printf.sprintf "%s %s %s." (surface_of e1)
            (noise_phrase (Prng.int_below rng n_noise_phrases))
            (surface_of e2)
        end
        else begin
          let r = Prng.int_below rng nrels in
          if Array.length truth_by_rel.(r) = 0 then "nothing happened."
          else begin
            let e1, e2 = Prng.choice rng truth_by_rel.(r) in
            Printf.sprintf "%s %s %s." (surface_of e1)
              (cue_phrase r (Prng.int_below rng cues_per_relation))
              (surface_of e2)
          end
        end
      in
      sentences := sentence :: !sentences;
      (* Occasional mention-free or punctuation-only filler, so the
         pipeline's edge cases stay exercised by the stream itself. *)
      if Prng.bernoulli rng 0.1 then sentences := "meanwhile, nothing else happened." :: !sentences;
      if Prng.bernoulli rng 0.05 then sentences := "... !" :: !sentences
    done;
    docs :=
      {
        id;
        arrival_s = !clock;
        payload =
          Text
            {
              text = String.concat " " (List.rev !sentences);
              names = List.rev !names;
              aliases = List.rev !aliases;
            };
      }
      :: !docs
  done;
  {
    queue = List.rev !docs;
    static;
    truth_entities = Hashtbl.length used_entities;
  }

let next t =
  match t.queue with
  | [] -> None
  | doc :: rest ->
    t.queue <- rest;
    Some doc

let static_tables t = t.static

let true_entities t = t.truth_entities
