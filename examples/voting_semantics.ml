(* Example 2.5 of the paper: the voting program and the three counting
   semantics (Figure 4).

   A single fact q() receives |Up| supporting and |Down| contradicting
   relation mentions.  The probability of q depends dramatically on the
   choice of g: with Linear semantics a 100-vote surplus out of a million
   pushes P(q) to 1; Ratio semantics keeps it near 0.5; Logical semantics
   ignores vote counts entirely.  We print the closed-form marginals and
   then show that Gibbs sampling agrees (and converges at very different
   speeds — the subject of Appendix A and Figure 13).

   Run with: dune exec examples/voting_semantics.exe *)

module Voting = Dd_fgraph.Voting
module Semantics = Dd_fgraph.Semantics
module Compiled = Dd_inference.Compiled
module Table = Dd_util.Table

let () =
  print_endline "Closed-form P(q) for the voting program (Example 2.5):\n";
  let table = Table.create [ "|Up|"; "|Down|"; "linear"; "ratio"; "logical" ] in
  List.iter
    (fun (up, down) ->
      let p semantics =
        Voting.exact_marginal_q
          { Voting.default with Voting.n_up = up; n_down = down; semantics }
      in
      Table.add_row table
        [
          string_of_int up;
          string_of_int down;
          Table.cell_f (p Semantics.Linear);
          Table.cell_f (p Semantics.Ratio);
          Table.cell_f (p Semantics.Logical);
        ])
    [ (5, 5); (20, 10); (100, 90); (1000, 900); (1000000, 999900) ];
  Table.print table;
  print_endline
    "\nLinear saturates on large counts; Ratio tracks the vote ratio; Logical\n\
     only asks whether any vote exists on each side.\n";
  (* Gibbs agreement and convergence speed. *)
  print_endline "Gibbs estimate vs closed form (30 up, 20 down, all vars free):\n";
  let table = Table.create [ "semantics"; "exact"; "gibbs"; "sweeps to 1%" ] in
  List.iter
    (fun semantics ->
      let cfg = { Voting.default with Voting.n_up = 30; n_down = 20; semantics } in
      let exact = Voting.exact_marginal_q cfg in
      let graph, q, _, _ = Voting.build cfg in
      let kernel = Compiled.compile graph in
      let rng = Dd_util.Prng.create 7 in
      let marginals = Compiled.marginals ~burn_in:100 rng kernel ~sweeps:4000 in
      let sweeps =
        Compiled.sweeps_to_converge (Dd_util.Prng.create 8) kernel ~target_var:q
          ~target_prob:exact
      in
      Table.add_row table
        [
          Semantics.to_string semantics;
          Table.cell_f exact;
          Table.cell_f marginals.(q);
          (match sweeps with Some s -> string_of_int s | None -> ">100000");
        ])
    Semantics.all;
  Table.print table
