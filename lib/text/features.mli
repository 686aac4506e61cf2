(** Feature UDFs over sentences and mention pairs — the [phrase(m1, m2,
    sent)] style user-defined functions of rule FE1.

    Each extractor maps a sentence and a mention pair to feature strings;
    the grounding layer ties one learnable weight per distinct feature
    value (Example 2.3: "this allows DeepDive to support common examples of
    features such as bag-of-words to context-aware NLP features"). *)

type pair_context = {
  tokens : Tokenizer.token list;
  m1 : Mention_finder.mention;
  m2 : Mention_finder.mention;
}

val phrase_between : ?max_tokens:int -> pair_context -> string option
(** The token sequence strictly between the two mentions, joined with
    ['_'] — the paper's running example ("and_his_wife").  [None] when the
    gap is empty or longer than [max_tokens] (default 6). *)

val mention_distance_bucket : pair_context -> string
(** Coarse token-distance bucket ("dist:adj", "dist:near", "dist:far"). *)
