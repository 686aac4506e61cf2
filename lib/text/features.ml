type pair_context = {
  tokens : Tokenizer.token list;
  m1 : Mention_finder.mention;
  m2 : Mention_finder.mention;
}

let ordered ctx =
  if ctx.m1.Mention_finder.first_token <= ctx.m2.Mention_finder.first_token then
    (ctx.m1, ctx.m2)
  else (ctx.m2, ctx.m1)

let between ctx =
  let left, right = ordered ctx in
  Tokenizer.slice ctx.tokens (left.Mention_finder.last_token + 1)
    right.Mention_finder.first_token

let phrase_between ?(max_tokens = 6) ctx =
  let gap = between ctx in
  if gap = [] || List.length gap > max_tokens then None
  else
    Some
      (String.concat "_"
         (List.filter_map
            (fun t ->
              let w = Tokenizer.normalize t.Tokenizer.text in
              if w = "" then None else Some w)
            gap))

let bag_of_words_between ctx =
  between ctx
  |> List.filter_map (fun t ->
         let w = Tokenizer.normalize t.Tokenizer.text in
         if w = "" then None else Some ("bow:" ^ w))
  |> List.sort_uniq compare

let window ctx =
  let size = 1 in
  let left, right = ordered ctx in
  let before =
    Tokenizer.slice ctx.tokens
      (max 0 (left.Mention_finder.first_token - size))
      left.Mention_finder.first_token
  in
  let after =
    Tokenizer.slice ctx.tokens
      (right.Mention_finder.last_token + 1)
      (right.Mention_finder.last_token + 1 + size)
  in
  List.filter_map
    (fun (prefix, t) ->
      let w = Tokenizer.normalize t.Tokenizer.text in
      if w = "" then None else Some (prefix ^ w))
    (List.map (fun t -> ("left:", t)) before @ List.map (fun t -> ("right:", t)) after)

let inverted_order ctx =
  if ctx.m2.Mention_finder.first_token < ctx.m1.Mention_finder.first_token then
    Some "inv_order"
  else None

let mention_distance_bucket ctx =
  let left, right = ordered ctx in
  let gap = right.Mention_finder.first_token - left.Mention_finder.last_token - 1 in
  if gap <= 1 then "dist:adj" else if gap <= 5 then "dist:near" else "dist:far"

let all_features ctx =
  let phrase = match phrase_between ctx with Some p -> [ "phrase:" ^ p ] | None -> [] in
  let inv = match inverted_order ctx with Some f -> [ f ] | None -> [] in
  phrase @ bag_of_words_between ctx @ window ctx @ inv @ [ mention_distance_bucket ctx ]
