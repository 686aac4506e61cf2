module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Materialize = Dd_core.Materialize
module Timer = Dd_util.Timer

let materialize ?(burn_in = 20) rng g ~seconds =
  let timer = Timer.start () in
  let st = Compiled.make_state rng (Compiled.compile g) in
  for _ = 1 to burn_in do
    Compiled.sweep rng st
  done;
  let acc = ref [] in
  while Timer.elapsed_s timer < seconds do
    Compiled.sweep rng st;
    acc := Compiled.snapshot st :: !acc
  done;
  {
    Materialize.samples = Array.of_list (List.rev !acc);
    variational = None;
    base_weights = Array.init (Graph.num_weights g) (Graph.weight_value g);
    base_bodies =
      Array.init (Graph.num_factors g) (fun f -> Array.length (Graph.factor g f).Graph.bodies);
    base_evidence = Array.init (Graph.num_vars g) (Graph.evidence_of g);
    samples_used = 0;
  }
