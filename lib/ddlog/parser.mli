(** Parser for the DDlog surface language — the textual form of a DeepDive
    program (Section 2.2 of the paper), e.g.:

    {v
      input sentence(doc int, sid int, phrase text, ctx text).
      input mention(sid int, mid text, name text, pos int).
      query q(r text, m1 text, m2 text).

      cand(r, s, m1, m2) :-
        mention(s, m1, n1, 0), mention(s, m2, n2, 1),
        sentence(d, s, p, c), phrase_rel(p, r).

      @FE1
      q(r, m1, m2) :- cand(r, s, m1, m2), sentence(d, s, p, c)
        weight = w(r, p) semantics = ratio.

      @prior
      q(r, m1, m2) :- cand(r, s, m1, m2) weight = -0.5.

      @S1
      q_ev(r, m1, m2, true) :-
        cand(r, s, m1, m2), el(n1, e1), el(n2, e2), known(r, e1, e2).
    v}

    Bare identifiers in rule bodies are variables; quoted strings, numbers
    and booleans are constants.  A rule whose head is a [query] relation and
    carries a [weight] annotation is an inference rule ([weight = w(...)]
    declares tied learnable weights, a number a fixed weight); a rule
    targeting a query relation's [_ev] companion is a supervision rule;
    everything else is a deterministic candidate/feature rule. *)

exception Parse_error of string * Lexer.position

val parse : string -> (Dd_core.Program.t, string) result
(** Parse and validate a whole program source. *)

val parse_file : string -> (Dd_core.Program.t, string) result
