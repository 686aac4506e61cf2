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

let mention_distance_bucket ctx =
  let left, right = ordered ctx in
  let gap = right.Mention_finder.first_token - left.Mention_finder.last_token - 1 in
  if gap <= 1 then "dist:adj" else if gap <= 5 then "dist:near" else "dist:far"
