module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Prng = Dd_util.Prng
module Budget = Dd_util.Budget
module Union_find = Dd_util.Union_find

(* Semantics tags, kept as ints so the energy kernel branches on an
   immediate instead of loading a constructor. *)
let sem_linear = 0
let sem_logical = 1
let sem_ratio = 2

let sem_tag = function
  | Semantics.Linear -> sem_linear
  | Semantics.Logical -> sem_logical
  | Semantics.Ratio -> sem_ratio

(* The float math of a conditional stays inside this module: dev builds
   compile every module [-opaque], so a float passed to or returned from
   another module's function (e.g. [Stats.sigmoid], [Prng.bernoulli]) is
   boxed on every call.  The helpers below are [@inline] so that, within
   this module, their floats stay unboxed too. *)

(* [Ratio]'s [g = log (1 + n)] for small satisfied-body counts, computed
   with the same expression as the fallback. *)
let ratio_table_len = 64
let ratio_g = Array.init ratio_table_len (fun n -> log (1.0 +. float_of_int n))

(* Must compute exactly what [Semantics.g] computes (agreement with the
   naive Gibbs oracle in test/oracle depends on it). *)
let[@inline] g_of tag n =
  if tag = sem_linear then float_of_int n
  else if tag = sem_logical then if n > 0 then 1.0 else 0.0
  else if n < ratio_table_len then Array.unsafe_get ratio_g n
  else log (1.0 +. float_of_int n)

(* The same expression as [Stats.sigmoid], which the naive Gibbs
   oracle calls. *)
let[@inline] sigmoid x =
  if x >= 0.0 then 1.0 /. (1.0 +. exp (-.x))
  else begin
    let e = exp x in
    e /. (1.0 +. e)
  end

(* [Prng.bernoulli rng p], drawn as an immediate: [Prng.float_unit] is
   exactly [float_of_int (Prng.bits53 rng) *. 0x1p-53]. *)
let[@inline] bernoulli rng p = float_of_int (Prng.bits53 rng) *. 0x1p-53 < p

(* What [mark] derives from the layout and the evidence, for a range of
   variables and the factors that mention only them. *)
type marks = {
  query : int array;
  (* The query set split by Appendix B.1's decomposition: a query
     variable is coupled when some adjacent factor also mentions another
     query variable, and isolated otherwise (a singleton component, whose
     conditional is its exact marginal).  Both ascending. *)
  coupled : int array;
  isolated : int array;
  (* The coupled variables labelled into components (query variables
     joined by a factor), packed: component [c] is
     [comp_vars.(comp_off.(c)) .. comp_vars.(comp_off.(c + 1) - 1)],
     cheapest flip first; components are ordered by their smallest
     variable.
     [enum_states] is the sum of 2^k over the components (saturating at
     [max_int]). *)
  comp_off : int array;
  comp_vars : int array;
  enum_states : int;
  (* Learning's split, evidence included: a variable is shared when some
     factor mentions it and another variable, and lone otherwise.  The
     chains of [train_cd] sweep the shared variables ([shared_query] in
     the clamped phase, [shared] in the free one) and count the
     learnable factors that touch one ([chain_factors]); each lone
     evidence variable with a factor ([lone_evidence]) is learned in
     closed form.  All ascending. *)
  shared_query : int array;
  shared : int array;
  lone_evidence : int array;
  chain_factors : int array;
}

type t = {
  graph : Graph.t;
  nvars : int;
  nfactors : int;
  nbodies : int;
  (* factor-major view *)
  f_head : int array;  (* -1 = no head *)
  f_sem : int array;
  f_weight : int array;
  f_body_off : int array;  (* nfactors + 1; spans of global body ids *)
  b_lit_off : int array;  (* nbodies + 1; spans into l_var / l_neg *)
  l_var : int array;
  l_neg : Bytes.t;
  (* variable-major view: var -> factor groups -> body occurrences *)
  v_grp_off : int array;  (* nvars + 1 *)
  grp_factor : int array;
  grp_occ_off : int array;  (* ngroups + 1 *)
  occ_body : int array;  (* global body id *)
  occ_neg : Bytes.t;
  (* dense weight slots *)
  weights : float array;
  learnable_active : int array;
  marks : marks;
}

let graph t = t.graph
let num_vars t = t.nvars
let num_query t = Array.length t.marks.query
let query_vars t = Array.copy t.marks.query
let num_coupled t = Array.length t.marks.coupled
let coupled_vars t = Array.copy t.marks.coupled
let num_components t = Array.length t.marks.comp_off - 1
let num_shared t = Array.length t.marks.shared

(* The [c] of [enumerable]: enumerated states allowed per chain update
   replaced.  Measured crossover (DESIGN.md §8): one state costs 0.4-0.5
   chain updates on uniform synthetic components and about 1.5 on
   Pharma's components of fourteen heavy variables; 1 keeps enumeration
   at or near the chain's cost on both. *)
let exact_work_ratio = 1.0

let enumerable t ~steps =
  float_of_int t.marks.enum_states
  <= exact_work_ratio *. float_of_int steps *. float_of_int (Array.length t.marks.coupled)

let learnable_active t = Array.copy t.learnable_active

let refresh_weights t =
  for w = 0 to Array.length t.weights - 1 do
    t.weights.(w) <- Graph.weight_value t.graph w
  done

let matches_structure t g =
  t.graph == g
  && t.nvars = Graph.num_vars g
  && t.nfactors = Graph.num_factors g
  && Array.length t.weights = Graph.num_weights g

let is_query g v = match Graph.evidence_of g v with Graph.Query -> true | Graph.Evidence _ -> false

let bool_byte b = if b then '\001' else '\000'

let saturating_add a b = if a > max_int - b then max_int else a + b

(* The ids in [lo, hi) that satisfy [p], ascending. *)
let filter_range lo hi p =
  let out = Array.make (max 0 (hi - lo)) 0 and n = ref 0 in
  for i = lo to hi - 1 do
    if p i then begin
      out.(!n) <- i;
      incr n
    end
  done;
  Array.sub out 0 !n

(* The marks of the variables [v0, nvars) and the factors [f0, nfactors),
   which must mention no variable below [v0]: one pass over the factors'
   literal spans (a factor's literals are one contiguous span) reads the
   query split, the lone/shared split and the components, all from the
   flat layout plus the graph's evidence and learnable flags.  [compile]
   marks everything; [extend] marks the appended suffix, or everything
   again when the evidence moved. *)
let mark g ~v0 ~nvars ~f0 ~nfactors ~f_head ~f_weight ~f_body_off ~b_lit_off ~l_var ~v_grp_off
    ~grp_occ_off =
  let n = nvars - v0 in
  let query_flag = Bytes.init n (fun i -> bool_byte (is_query g (v0 + i))) in
  let coupled_flag = Bytes.make n '\000' and shared_flag = Bytes.make n '\000' in
  let flag b v = Bytes.get b (v - v0) <> '\000' in
  let set b v = Bytes.set b (v - v0) '\001' in
  let in_query v = v >= 0 && flag query_flag v in
  let uf = Union_find.create n in
  (* [only_var.(fid - f0)]: the one variable factor [fid] mentions, -1
     if it mentions none and -2 if several. *)
  let only_var = Array.make (nfactors - f0) (-2) in
  for fid = f0 to nfactors - 1 do
    let h = f_head.(fid) in
    let l0 = b_lit_off.(f_body_off.(fid)) and l1 = b_lit_off.(f_body_off.(fid + 1)) - 1 in
    (* [first]/[many]: the factor's first variable, and whether it
       mentions another; [first_q]/[many_q], the same over query
       variables. *)
    let first = ref h and many = ref false in
    let first_q = ref (if in_query h then h else -1) and many_q = ref false in
    for l = l0 to l1 do
      let v = l_var.(l) in
      if !first < 0 then first := v else if v <> !first then many := true;
      if in_query v then if !first_q < 0 then first_q := v else if v <> !first_q then many_q := true
    done;
    if !many then begin
      if h >= 0 then set shared_flag h;
      for l = l0 to l1 do
        set shared_flag l_var.(l)
      done
    end
    else only_var.(fid - f0) <- !first;
    if !many_q then begin
      if in_query h then begin
        set coupled_flag h;
        Union_find.union uf (!first_q - v0) (h - v0)
      end;
      for l = l0 to l1 do
        let v = l_var.(l) in
        if in_query v then begin
          set coupled_flag v;
          Union_find.union uf (!first_q - v0) (v - v0)
        end
      done
    end
  done;
  let query = filter_range v0 nvars (flag query_flag) in
  let coupled = filter_range v0 nvars (fun v -> flag coupled_flag v) in
  let isolated = filter_range v0 nvars (fun v -> flag query_flag v && not (flag coupled_flag v)) in
  let ncoupled = Array.length coupled in
  (* Number the components in order of their smallest variable, then
     counting-sort the coupled variables by component. *)
  let comp_of_root = Array.make n (-1) in
  let ncomp = ref 0 in
  let comp_of =
    Array.map
      (fun v ->
        let r = Union_find.find uf (v - v0) in
        if comp_of_root.(r) < 0 then begin
          comp_of_root.(r) <- !ncomp;
          incr ncomp
        end;
        comp_of_root.(r))
      coupled
  in
  let comp_off = Array.make (!ncomp + 1) 0 in
  Array.iter (fun c -> comp_off.(c + 1) <- comp_off.(c + 1) + 1) comp_of;
  for c = 0 to !ncomp - 1 do
    comp_off.(c + 1) <- comp_off.(c + 1) + comp_off.(c)
  done;
  let comp_vars = Array.make ncoupled 0 in
  let cursor = Array.sub comp_off 0 !ncomp in
  Array.iteri
    (fun i c ->
      comp_vars.(cursor.(c)) <- coupled.(i);
      cursor.(c) <- cursor.(c) + 1)
    comp_of;
  (* Within a component, cheapest flip first: a Gray-code walk flips its
     [j]-th variable 2^(n-1-j) times, and a flip costs the variable's
     occurrences and groups (ties keep ascending ids). *)
  let flip_cost v =
    grp_occ_off.(v_grp_off.(v + 1)) - grp_occ_off.(v_grp_off.(v)) + v_grp_off.(v + 1) - v_grp_off.(v)
  in
  let enum_states = ref 0 in
  for c = 0 to !ncomp - 1 do
    let lo = comp_off.(c) and hi = comp_off.(c + 1) in
    let part = Array.sub comp_vars lo (hi - lo) in
    Array.stable_sort (fun a b -> compare (flip_cost a) (flip_cost b)) part;
    Array.blit part 0 comp_vars lo (hi - lo);
    let size = hi - lo in
    enum_states := saturating_add !enum_states (if size >= Sys.int_size - 2 then max_int else 1 lsl size)
  done;
  let touches_shared fid =
    let v = only_var.(fid - f0) in
    v = -2 || (v >= 0 && flag shared_flag v)
  in
  {
    query;
    coupled;
    isolated;
    comp_off;
    comp_vars;
    enum_states = !enum_states;
    shared_query = filter_range v0 nvars (fun v -> flag query_flag v && flag shared_flag v);
    shared = filter_range v0 nvars (flag shared_flag);
    lone_evidence =
      filter_range v0 nvars (fun v ->
          (not (flag query_flag v)) && (not (flag shared_flag v)) && v_grp_off.(v + 1) > v_grp_off.(v));
    chain_factors =
      filter_range f0 nfactors (fun fid ->
          Graph.weight_learnable g f_weight.(fid) && touches_shared fid);
  }

(* The marks of [a]'s variables followed by those of [b]'s, which all
   come after them: [mark] of the whole range equals it, because a
   component, a sharing and a chain factor of [b]'s range never reach
   into [a]'s. *)
let concat_marks a b =
  let nc = Array.length a.coupled in
  {
    query = Array.append a.query b.query;
    coupled = Array.append a.coupled b.coupled;
    isolated = Array.append a.isolated b.isolated;
    comp_off =
      Array.append a.comp_off
        (Array.map (fun o -> o + nc) (Array.sub b.comp_off 1 (Array.length b.comp_off - 1)));
    comp_vars = Array.append a.comp_vars b.comp_vars;
    enum_states = saturating_add a.enum_states b.enum_states;
    shared_query = Array.append a.shared_query b.shared_query;
    shared = Array.append a.shared b.shared;
    lone_evidence = Array.append a.lone_evidence b.lone_evidence;
    chain_factors = Array.append a.chain_factors b.chain_factors;
  }

(* Whether a variable below [base]'s count changed between query and
   evidence since [base] was built: one pass against its packed query
   array. *)
let query_set_moved base g =
  let q = base.marks.query in
  let i = ref 0 and v = ref 0 and moved = ref false in
  while (not !moved) && !v < base.nvars do
    let was = !i < Array.length q && q.(!i) = !v in
    if was then incr i;
    if was <> is_query g !v then moved := true;
    incr v
  done;
  !moved

(* A copy of [a]'s first [keep] cells in a fresh array of [len] cells,
   the rest [fill]: the prefix of a layout array that an append keeps. *)
let grow a keep len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 keep;
  b

let grow_bytes a keep len =
  let b = Bytes.make len '\000' in
  Bytes.blit a 0 b 0 keep;
  b

(* [base]'s layout followed by the factors [base.nfactors ..] of [g] and
   the variables [base.nvars ..], which the new factors alone mention:
   each layout array is [base]'s, blitted, plus the new suffix, and only
   the new factors' records are read.  [None] when a new factor mentions
   an older variable.  The caller guarantees that [base]'s factors are
   [g]'s first ones, unchanged. *)
let append base g =
  let v0 = base.nvars and f0 = base.nfactors and b0 = base.nbodies in
  let nvars = Graph.num_vars g and nfactors = Graph.num_factors g in
  let new_factors = Array.init (nfactors - f0) (fun i -> Graph.factor g (f0 + i)) in
  let old_var v = v < v0 in
  let mentions_old f =
    (match f.Graph.head with Some h -> old_var h | None -> false)
    || Array.exists (Array.exists (fun l -> old_var l.Graph.var)) f.Graph.bodies
  in
  if v0 > 0 && Array.exists mentions_old new_factors then None
  else begin
    (* Factor-major suffix. *)
    let l0 = base.b_lit_off.(b0) in
    let nbodies = ref b0 and nlits = ref l0 in
    Array.iter
      (fun f ->
        nbodies := !nbodies + Array.length f.Graph.bodies;
        Array.iter (fun body -> nlits := !nlits + Array.length body) f.Graph.bodies)
      new_factors;
    let nbodies = !nbodies and nlits = !nlits in
    let f_head = grow base.f_head f0 nfactors (-1) in
    let f_sem = grow base.f_sem f0 nfactors 0 in
    let f_weight = grow base.f_weight f0 nfactors 0 in
    let f_body_off = grow base.f_body_off f0 (nfactors + 1) 0 in
    let b_lit_off = grow base.b_lit_off b0 (nbodies + 1) 0 in
    let l_var = grow base.l_var l0 nlits 0 in
    let l_neg = grow_bytes base.l_neg l0 nlits in
    (* [stamp.(v - v0)] remembers the last body id that mentioned [v],
       catching within-body repeats in O(1) per literal. *)
    let n = nvars - v0 in
    let stamp = Array.make n (-1) in
    let bid = ref b0 and lid = ref l0 in
    Array.iteri
      (fun i f ->
        let fid = f0 + i in
        (match f.Graph.head with Some h -> f_head.(fid) <- h | None -> ());
        f_sem.(fid) <- sem_tag f.Graph.semantics;
        f_weight.(fid) <- f.Graph.weight_id;
        f_body_off.(fid) <- !bid;
        Array.iter
          (fun body ->
            b_lit_off.(!bid) <- !lid;
            Array.iter
              (fun l ->
                let v = l.Graph.var in
                if stamp.(v - v0) = !bid then
                  invalid_arg "Compiled.compile: variable repeated within a body";
                stamp.(v - v0) <- !bid;
                l_var.(!lid) <- v;
                Bytes.set l_neg !lid (bool_byte l.Graph.negated);
                incr lid)
              body;
            incr bid)
          f.Graph.bodies)
      new_factors;
    f_body_off.(nfactors) <- nbodies;
    b_lit_off.(nbodies) <- nlits;
    (* Variable-major suffix, the new variables' groups from the new
       factors.  Pass 1 counts groups: factors are visited in ascending
       id order, so each variable's groups come out ascending, and
       [last_fid] collapses the head and every body occurrence of one
       factor into a single group. *)
    let last_fid = Array.make n (-1) in
    let grp_count = Array.make n 0 in
    let touch v fid =
      let i = v - v0 in
      if last_fid.(i) <> fid then begin
        last_fid.(i) <- fid;
        grp_count.(i) <- grp_count.(i) + 1
      end
    in
    for fid = f0 to nfactors - 1 do
      let h = f_head.(fid) in
      if h >= 0 then touch h fid;
      for l = b_lit_off.(f_body_off.(fid)) to b_lit_off.(f_body_off.(fid + 1)) - 1 do
        touch l_var.(l) fid
      done
    done;
    let g0 = base.v_grp_off.(v0) in
    let v_grp_off = grow base.v_grp_off v0 (nvars + 1) g0 in
    for v = v0 to nvars - 1 do
      v_grp_off.(v + 1) <- v_grp_off.(v) + grp_count.(v - v0)
    done;
    let ngroups = v_grp_off.(nvars) in
    let grp_factor = grow base.grp_factor g0 ngroups 0 in
    (* Passes 2 and 3 assign group slots and count each group's
       occurrences, then fill them. *)
    Array.fill last_fid 0 n (-1);
    let grp_cursor = Array.make n 0 in
    let current_grp = Array.make n (-1) in
    let group_of v fid =
      let i = v - v0 in
      if last_fid.(i) <> fid then begin
        last_fid.(i) <- fid;
        let slot = v_grp_off.(v) + grp_cursor.(i) in
        grp_cursor.(i) <- grp_cursor.(i) + 1;
        grp_factor.(slot) <- fid;
        current_grp.(i) <- slot
      end;
      current_grp.(i)
    in
    let grp_cnt = Array.make (ngroups - g0) 0 in
    for fid = f0 to nfactors - 1 do
      let h = f_head.(fid) in
      if h >= 0 then ignore (group_of h fid);
      for l = b_lit_off.(f_body_off.(fid)) to b_lit_off.(f_body_off.(fid + 1)) - 1 do
        let grp = group_of l_var.(l) fid - g0 in
        grp_cnt.(grp) <- grp_cnt.(grp) + 1
      done
    done;
    let o0 = base.grp_occ_off.(g0) in
    let grp_occ_off = grow base.grp_occ_off g0 (ngroups + 1) o0 in
    for grp = g0 to ngroups - 1 do
      grp_occ_off.(grp + 1) <- grp_occ_off.(grp) + grp_cnt.(grp - g0)
    done;
    let nocc = grp_occ_off.(ngroups) in
    let occ_body = grow base.occ_body o0 nocc 0 in
    let occ_neg = grow_bytes base.occ_neg o0 nocc in
    Array.fill last_fid 0 n (-1);
    Array.fill grp_cursor 0 n 0;
    let occ_cursor = Array.make (ngroups - g0) 0 in
    for fid = f0 to nfactors - 1 do
      let h = f_head.(fid) in
      if h >= 0 then ignore (group_of h fid);
      for b = f_body_off.(fid) to f_body_off.(fid + 1) - 1 do
        for l = b_lit_off.(b) to b_lit_off.(b + 1) - 1 do
          let grp = group_of l_var.(l) fid in
          let o = grp_occ_off.(grp) + occ_cursor.(grp - g0) in
          occ_cursor.(grp - g0) <- occ_cursor.(grp - g0) + 1;
          occ_body.(o) <- b;
          Bytes.set occ_neg o (Bytes.get l_neg l)
        done
      done
    done;
    (* A weight slot is active once a factor names it. *)
    let nweights = Graph.num_weights g in
    let active = Bytes.make nweights '\000' in
    Array.iter (fun w -> Bytes.set active w '\001') base.learnable_active;
    for fid = f0 to nfactors - 1 do
      Bytes.set active f_weight.(fid) '\001'
    done;
    let mark ~v0 ~f0 =
      mark g ~v0 ~nvars ~f0 ~nfactors ~f_head ~f_weight ~f_body_off ~b_lit_off ~l_var ~v_grp_off
        ~grp_occ_off
    in
    let marks =
      if query_set_moved base g then mark ~v0:0 ~f0:0 else concat_marks base.marks (mark ~v0 ~f0)
    in
    Some
      {
        graph = g;
        nvars;
        nfactors;
        nbodies;
        f_head;
        f_sem;
        f_weight;
        f_body_off;
        b_lit_off;
        l_var;
        l_neg;
        v_grp_off;
        grp_factor;
        grp_occ_off;
        occ_body;
        occ_neg;
        weights = Array.init nweights (Graph.weight_value g);
        learnable_active =
          filter_range 0 nweights (fun w ->
              Bytes.get active w <> '\000' && Graph.weight_learnable g w);
        marks;
      }
  end

let no_marks =
  {
    query = [||];
    coupled = [||];
    isolated = [||];
    comp_off = [| 0 |];
    comp_vars = [||];
    enum_states = 0;
    shared_query = [||];
    shared = [||];
    lone_evidence = [||];
    chain_factors = [||];
  }

(* The kernel of no variable and no factor, which [compile] appends the
   whole graph to. *)
let empty g =
  {
    graph = g;
    nvars = 0;
    nfactors = 0;
    nbodies = 0;
    f_head = [||];
    f_sem = [||];
    f_weight = [||];
    f_body_off = [| 0 |];
    b_lit_off = [| 0 |];
    l_var = [||];
    l_neg = Bytes.empty;
    v_grp_off = [| 0 |];
    grp_factor = [||];
    grp_occ_off = [| 0 |];
    occ_body = [||];
    occ_neg = Bytes.empty;
    weights = [||];
    learnable_active = [||];
    marks = no_marks;
  }

let compile g = Option.get (append (empty g) g)

let extend k g =
  if
    k.graph != g
    || Graph.num_vars g < k.nvars
    || Graph.num_factors g < k.nfactors
    || Graph.num_weights g < Array.length k.weights
  then None
  else append k g

(* --- state -------------------------------------------------------------- *)

type state = {
  k : t;
  assign : Bytes.t;  (* one byte per variable: '\000' false, '\001' true *)
  unsat : int array;  (* per global body: unsatisfied-literal count *)
  sat : int array;  (* per factor: satisfied-body count *)
}

let value st v = Bytes.unsafe_get st.assign v <> '\000'

let snapshot st = Array.init st.k.nvars (fun v -> value st v)

(* Counters for a whole-graph assignment. *)
let state_of_world k init =
  let assign = Bytes.init k.nvars (fun v -> bool_byte init.(v)) in
  let unsat = Array.make (max 1 k.nbodies) 0 in
  let sat = Array.make (max 1 k.nfactors) 0 in
  for fid = 0 to k.nfactors - 1 do
    for b = k.f_body_off.(fid) to k.f_body_off.(fid + 1) - 1 do
      let u = ref 0 in
      for l = k.b_lit_off.(b) to k.b_lit_off.(b + 1) - 1 do
        let sat_lit = init.(k.l_var.(l)) <> (Bytes.get k.l_neg l <> '\000') in
        if not sat_lit then incr u
      done;
      unsat.(b) <- !u;
      if !u = 0 then sat.(fid) <- sat.(fid) + 1
    done
  done;
  { k; assign; unsat; sat }

let make_state ?init rng k =
  let init =
    match init with
    | Some a ->
      if Array.length a <> k.nvars then
        invalid_arg "Compiled.make_state: assignment size mismatch";
      a
    | None -> Graph.freeze_assignment ~query:(fun () -> Prng.bool rng) k.graph
  in
  state_of_world k init

(* Satisfied-body count of a group's factor under a hypothetical value
   for [v], accumulated tail-recursively so the hot loop allocates
   nothing.  A literal of [v] is satisfied under hypothetical [x] iff
   [x <> neg], i.e. iff [neg = neg_sat] with [neg_sat = not x].  The
   counts are integers, so their accumulation order is irrelevant. *)
let rec n_under k st v_cur neg_sat o last n =
  if o > last then n
  else begin
    let b = Array.unsafe_get k.occ_body o in
    let neg = Bytes.unsafe_get k.occ_neg o <> '\000' in
    let u = Array.unsafe_get st.unsat b in
    (* others_sat: every literal of the body except v's is satisfied. *)
    let lit_sat_now = v_cur <> neg in
    let others_sat = u = (if lit_sat_now then 0 else 1) in
    let sat_x = others_sat && neg = neg_sat in
    let n =
      if u = 0 then if sat_x then n else n - 1
      else if sat_x then n + 1
      else n
    in
    n_under k st v_cur neg_sat (o + 1) last n
  end

(* Energy difference [E(v = true) - E(v = false)] given the rest, from
   the cached counters. *)
let[@inline] counters_delta st v =
  let k = st.k in
  let v_cur = Bytes.unsafe_get st.assign v <> '\000' in
  let delta = ref 0.0 in
  for grp = Array.unsafe_get k.v_grp_off v to Array.unsafe_get k.v_grp_off (v + 1) - 1 do
    let fid = Array.unsafe_get k.grp_factor grp in
    let base = Array.unsafe_get st.sat fid in
    let o0 = Array.unsafe_get k.grp_occ_off grp in
    let o1 = Array.unsafe_get k.grp_occ_off (grp + 1) - 1 in
    let n_true = n_under k st v_cur false o0 o1 base in
    let n_false = n_under k st v_cur true o0 o1 base in
    let w = Array.unsafe_get k.weights (Array.unsafe_get k.f_weight fid) in
    let sem = Array.unsafe_get k.f_sem fid in
    let h = Array.unsafe_get k.f_head fid in
    (* Per factor [w *. sign *. g(sem, n)], as [Graph.factor_energy]
       computes it; only the summation order differs from the naive
       Gibbs oracle's. *)
    let sign_true =
      if h < 0 || h = v then 1.0
      else if Bytes.unsafe_get st.assign h <> '\000' then 1.0
      else -1.0
    in
    let sign_false = if h < 0 then 1.0 else if h = v then -1.0 else sign_true in
    delta := !delta +. (w *. sign_true *. g_of sem n_true) -. (w *. sign_false *. g_of sem n_false)
  done;
  !delta

let conditional_true_prob st v = sigmoid (counters_delta st v)

let set_value st v x =
  if value st v <> x then begin
    Bytes.unsafe_set st.assign v (bool_byte x);
    let k = st.k in
    for grp = k.v_grp_off.(v) to k.v_grp_off.(v + 1) - 1 do
      let fid = Array.unsafe_get k.grp_factor grp in
      for o = k.grp_occ_off.(grp) to k.grp_occ_off.(grp + 1) - 1 do
        let b = Array.unsafe_get k.occ_body o in
        let lit_sat = x <> (Bytes.unsafe_get k.occ_neg o <> '\000') in
        let before = Array.unsafe_get st.unsat b in
        let after = if lit_sat then before - 1 else before + 1 in
        Array.unsafe_set st.unsat b after;
        if before = 0 && after > 0 then st.sat.(fid) <- st.sat.(fid) - 1
        else if before > 0 && after = 0 then st.sat.(fid) <- st.sat.(fid) + 1
      done
    done
  end

(* Flip [v] and return the energy change, [E(after) - E(before)], in one
   pass over its occurrences: the counter updates of [set_value], plus,
   per adjacent factor whose satisfied-body count or sign moved, the
   difference of its energies as [counters_delta] computes them (a factor
   that moved neither contributes exactly 0). *)
let[@inline] flip st v =
  let k = st.k in
  let x = not (value st v) in
  Bytes.unsafe_set st.assign v (bool_byte x);
  let delta = ref 0.0 in
  for grp = Array.unsafe_get k.v_grp_off v to Array.unsafe_get k.v_grp_off (v + 1) - 1 do
    let fid = Array.unsafe_get k.grp_factor grp in
    let before = Array.unsafe_get st.sat fid in
    for o = Array.unsafe_get k.grp_occ_off grp to Array.unsafe_get k.grp_occ_off (grp + 1) - 1 do
      let b = Array.unsafe_get k.occ_body o in
      let lit_sat = x <> (Bytes.unsafe_get k.occ_neg o <> '\000') in
      let u = Array.unsafe_get st.unsat b in
      let u' = if lit_sat then u - 1 else u + 1 in
      Array.unsafe_set st.unsat b u';
      if u = 0 then Array.unsafe_set st.sat fid (Array.unsafe_get st.sat fid - 1)
      else if u' = 0 then Array.unsafe_set st.sat fid (Array.unsafe_get st.sat fid + 1)
    done;
    let after = Array.unsafe_get st.sat fid in
    let h = Array.unsafe_get k.f_head fid in
    if after <> before || h = v then begin
      let w = Array.unsafe_get k.weights (Array.unsafe_get k.f_weight fid) in
      let sem = Array.unsafe_get k.f_sem fid in
      let sign_after =
        if h < 0 then 1.0 else if Bytes.unsafe_get st.assign h <> '\000' then 1.0 else -1.0
      in
      let sign_before = if h = v then -.sign_after else sign_after in
      delta := !delta +. ((w *. sign_after *. g_of sem after) -. (w *. sign_before *. g_of sem before))
    end
  done;
  !delta

let resample_var rng st v = set_value st v (bernoulli rng (sigmoid (counters_delta st v)))

let sweep rng st =
  let q = st.k.marks.query in
  for i = 0 to Array.length q - 1 do
    resample_var rng st (Array.unsafe_get q i)
  done

let sweep_slice rng st slice =
  for i = 0 to Array.length slice - 1 do
    resample_var rng st (Array.unsafe_get slice i)
  done

let sweep_shared_query rng st = sweep_slice rng st st.k.marks.shared_query

let sweep_shared rng st = sweep_slice rng st st.k.marks.shared

(* Variables resampled between two budget polls. *)
let poll_every = 128

(* Identical PRNG consumption to [sweep_slice]; only the budget is polled
   between chunks, so a slice much larger than [poll_every] cannot
   outlive its deadline by more than one chunk.  Safe from worker
   domains: [Budget.t] is domain-safe to poll. *)
let sweep_slice_budgeted ~budget ~site rng st slice =
  let n = Array.length slice in
  let i = ref 0 in
  while !i < n do
    Budget.check budget site;
    let stop = min n (!i + poll_every) in
    for j = !i to stop - 1 do
      resample_var rng st (Array.unsafe_get slice j)
    done;
    i := stop
  done

let accumulate_span_true st vars totals =
  for i = 0 to Array.length vars - 1 do
    let v = Array.unsafe_get vars i in
    if Bytes.unsafe_get st.assign v <> '\000' then totals.(v) <- totals.(v) + 1
  done

let closed_form_marginals st =
  let k = st.k in
  let m = Array.init k.nvars (fun v -> if value st v then 1.0 else 0.0) in
  Array.iter (fun v -> m.(v) <- sigmoid (counters_delta st v)) k.marks.isolated;
  m

(* Index of the lowest set bit of [i > 0]: the variable the [i]-th
   Gray-code step flips. *)
let rec lowest_bit i j = if i land 1 = 1 then j else lowest_bit (i lsr 1) (j + 1)

(* Walk the 2^n assignments of component [c] in Gray-code order, one
   flip per state, from the all-false assignment [state_of_world] put it
   in.  The log-weight relative to that start moves by each flip's energy
   change, which [flip] reads off the cached counters as it updates
   them.  Weights are taken as [exp (lw - top)] against the largest
   log-weight seen so far; a new maximum rescales every partial sum.
   Components share no factor, so the other components' values never
   enter.

   The sums are pairwise, in aligned blocks: variable [j] (bit [j] of
   the Gray code [i lxor (i lsr 1)]) is constant over each aligned block
   of 2^j states, so when such a block completes its sum is added to
   [j]'s accumulator if [j] is true over it, and merged upwards.  That is
   amortized two steps per state, with no cancellation.  [sums] holds
   the [n] accumulators, then the [n + 1] pending lower-half blocks; the
   last pending block is the whole walk, the partition function. *)
let enumerate_component st c sums m =
  let k = st.k in
  let lo = k.marks.comp_off.(c) in
  let n = k.marks.comp_off.(c + 1) - lo in
  Array.fill sums 0 ((2 * n) + 1) 0.0;
  let lw = ref 0.0 and lw_err = ref 0.0 and top = ref 0.0 in
  for i = 0 to (1 lsl n) - 1 do
    if i > 0 then begin
      (* Compensated (Kahan) running sum: the walk adds 2^n - 1 deltas. *)
      let y = flip st (Array.unsafe_get k.marks.comp_vars (lo + lowest_bit i 0)) -. !lw_err in
      let t = !lw +. y in
      lw_err := t -. !lw -. y;
      lw := t
    end;
    if !lw > !top then begin
      let scale = exp (!top -. !lw) in
      for j = 0 to 2 * n do
        Array.unsafe_set sums j (Array.unsafe_get sums j *. scale)
      done;
      top := !lw
    end;
    let gray = i lxor (i lsr 1) in
    (* [s]: the sum of the aligned block of 2^l states ending at [i]. *)
    let s = ref (exp (!lw -. !top)) and l = ref 0 and merging = ref true in
    while !merging do
      let j = !l in
      if j < n && (gray lsr j) land 1 = 1 then
        Array.unsafe_set sums j (Array.unsafe_get sums j +. !s);
      if j < n && (i lsr j) land 1 = 1 then begin
        s := !s +. Array.unsafe_get sums (n + j);
        Array.unsafe_set sums (n + j) 0.0;
        l := j + 1
      end
      else begin
        Array.unsafe_set sums (n + j) !s;
        merging := false
      end
    done
  done;
  let z = sums.(2 * n) in
  for j = 0 to n - 1 do
    m.(k.marks.comp_vars.(lo + j)) <- sums.(j) /. z
  done

let exact_marginals ?(budget = Budget.unlimited) k =
  let world =
    Array.init k.nvars (fun v ->
        match Graph.evidence_of k.graph v with Graph.Evidence b -> b | Graph.Query -> false)
  in
  let st = state_of_world k world in
  let m = closed_form_marginals st in
  let largest = ref 0 in
  for c = 0 to num_components k - 1 do
    largest := max !largest (k.marks.comp_off.(c + 1) - k.marks.comp_off.(c))
  done;
  let sums = Array.make ((2 * !largest) + 1) 0.0 in
  for c = 0 to num_components k - 1 do
    Budget.check budget "compiled.component";
    enumerate_component st c sums m
  done;
  m

(* The chain visits the coupled variables only; the poll stays once per
   sweep even when there are none, so a tick budget expires at the same
   sweep whatever the split. *)
let chain_marginals ~burn_in ~budget rng k ~sweeps =
  let st = make_state rng k in
  let m = closed_form_marginals st in
  let c = k.marks.coupled in
  for _ = 1 to burn_in do
    Budget.check budget "compiled.burn_in_sweep";
    sweep_slice rng st c
  done;
  let totals = Array.make k.nvars 0 in
  for _ = 1 to sweeps do
    Budget.check budget "compiled.sweep";
    sweep_slice rng st c;
    accumulate_span_true st c totals
  done;
  let denom = float_of_int (max 1 sweeps) in
  Array.iter (fun v -> m.(v) <- float_of_int totals.(v) /. denom) c;
  m

(* With nothing coupled both arms return the closed forms; the chain's
   empty sweeps keep its per-sweep budget polls. *)
let marginals ?(burn_in = 10) ?(budget = Budget.unlimited) rng k ~sweeps =
  if num_coupled k > 0 && enumerable k ~steps:(burn_in + sweeps) then exact_marginals ~budget k
  else chain_marginals ~burn_in ~budget rng k ~sweeps

let sample_worlds ?(burn_in = 10) rng k ~n =
  let st = make_state rng k in
  for _ = 1 to burn_in do
    sweep rng st
  done;
  Array.init n (fun _ ->
      sweep rng st;
      snapshot st)

let sweeps_to_converge ?(tolerance = 0.01) ?(max_sweeps = 100_000) rng k ~target_var
    ~target_prob =
  let check_every = 10 in
  let st = make_state rng k in
  let trues = ref 0 in
  let rec go i =
    if i > max_sweeps then None
    else begin
      sweep rng st;
      if value st target_var then incr trues;
      if
        i mod check_every = 0
        && abs_float ((float_of_int !trues /. float_of_int i) -. target_prob) <= tolerance
      then Some i
      else go (i + 1)
    end
  in
  go 1

let add_feature_counts st ~scale grad =
  let k = st.k in
  let fids = k.marks.chain_factors in
  for i = 0 to Array.length fids - 1 do
    let fid = fids.(i) in
    let w = k.f_weight.(fid) in
    let h = k.f_head.(fid) in
    let sign = if h < 0 || Bytes.unsafe_get st.assign h <> '\000' then 1.0 else -1.0 in
    grad.(w) <- grad.(w) +. (scale *. sign *. g_of k.f_sem.(fid) st.sat.(fid))
  done

(* The feature [sign * g(n)] of factor [fid], which mentions the lone
   variable [v] and no other, with [v] at [x]: every body of it either
   holds [v] once (the group's occurrences) or is empty, and satisfied. *)
let[@inline] lone_feature k v grp fid x =
  let o0 = k.grp_occ_off.(grp) and o1 = k.grp_occ_off.(grp + 1) in
  let n = ref (k.f_body_off.(fid + 1) - k.f_body_off.(fid) - (o1 - o0)) in
  for o = o0 to o1 - 1 do
    if x <> (Bytes.unsafe_get k.occ_neg o <> '\000') then incr n
  done;
  let sign = if x || k.f_head.(fid) <> v then 1.0 else -1.0 in
  sign *. g_of k.f_sem.(fid) !n

(* A lone variable is independent of every other variable in the free
   phase, so its marginal there is the sigmoid of its energy difference
   (summed as [counters_delta] sums it), and each of its factors'
   expected features follows. *)
let add_lone_terms k grad =
  let ev = k.marks.lone_evidence in
  for i = 0 to Array.length ev - 1 do
    let v = ev.(i) in
    let g0 = k.v_grp_off.(v) and g1 = k.v_grp_off.(v + 1) - 1 in
    let delta = ref 0.0 in
    for grp = g0 to g1 do
      let fid = k.grp_factor.(grp) in
      let w = k.weights.(k.f_weight.(fid)) in
      delta := !delta +. (w *. lone_feature k v grp fid true) -. (w *. lone_feature k v grp fid false)
    done;
    let p = sigmoid !delta in
    let clamped = match Graph.evidence_of k.graph v with Graph.Evidence b -> b | Graph.Query -> false in
    for grp = g0 to g1 do
      let fid = k.grp_factor.(grp) in
      let w = k.f_weight.(fid) in
      if Graph.weight_learnable k.graph w then begin
        let f_true = lone_feature k v grp fid true and f_false = lone_feature k v grp fid false in
        let f_clamped = if clamped then f_true else f_false in
        grad.(w) <- grad.(w) +. (f_clamped -. ((p *. f_true) +. ((1.0 -. p) *. f_false)))
      end
    done
  done
