module Graph = Dd_fgraph.Graph

type t = {
  colors : int array;
  num_colors : int;
  classes : Graph.var array array;
}

let is_query g v =
  match Graph.evidence_of g v with Graph.Query -> true | Graph.Evidence _ -> false

(* Per query variable, the set of query variables it shares a factor with.
   A factor with k variables contributes up to k*(k-1) entries; the
   hashtable dedups repeats across factors. *)
let neighbor_sets g =
  let neighbors = Array.init (Graph.num_vars g) (fun _ -> Hashtbl.create 4) in
  Graph.iter_factors
    (fun _ f ->
      let vars = List.filter (is_query g) (Graph.vars_of_factor f) in
      List.iter
        (fun v ->
          List.iter (fun u -> if u <> v then Hashtbl.replace neighbors.(v) u ()) vars)
        vars)
    g;
  neighbors

let color g =
  let n = Graph.num_vars g in
  let neighbors = neighbor_sets g in
  let order = Array.of_list (Graph.query_vars g) in
  (* Welsh–Powell: decreasing conflict degree, variable id as tiebreak so
     the partition is a pure function of the graph. *)
  Array.sort
    (fun a b ->
      let da = Hashtbl.length neighbors.(a) and db = Hashtbl.length neighbors.(b) in
      if da <> db then compare db da else compare a b)
    order;
  let colors = Array.make n (-1) in
  let num_colors = ref 0 in
  (* Scratch marks are set and unset per variable by walking its neighbor
     set twice, keeping the loop O(sum of conflict degrees). *)
  let used = Array.make (Array.length order + 1) false in
  Array.iter
    (fun v ->
      let mark value u () =
        let c = colors.(u) in
        if c >= 0 then used.(c) <- value
      in
      Hashtbl.iter (mark true) neighbors.(v);
      let c = ref 0 in
      while used.(!c) do
        incr c
      done;
      colors.(v) <- !c;
      if !c >= !num_colors then num_colors := !c + 1;
      Hashtbl.iter (mark false) neighbors.(v))
    order;
  let buckets = Array.make !num_colors [] in
  for v = n - 1 downto 0 do
    let c = colors.(v) in
    if c >= 0 then buckets.(c) <- v :: buckets.(c)
  done;
  { colors; num_colors = !num_colors; classes = Array.map Array.of_list buckets }

let validate g p =
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let n = Graph.num_vars g in
  if Array.length p.colors <> n then
    error "colors array has %d entries for %d variables" (Array.length p.colors) n
  else begin
    (* Class membership audit: where does each variable sit? *)
    let membership = Array.make n (-1) in
    let structural = ref (Ok ()) in
    Array.iteri
      (fun c cls ->
        Array.iteri
          (fun i v ->
            if !structural = Ok () then begin
              if v < 0 || v >= n then structural := error "class %d lists unknown variable %d" c v
              else if membership.(v) >= 0 then
                structural := error "variable %d appears in classes %d and %d" v membership.(v) c
              else begin
                membership.(v) <- c;
                if i > 0 && cls.(i - 1) >= v then
                  structural := error "class %d is not strictly ascending at %d" c v
              end
            end)
          cls)
      p.classes;
    let check_var v acc =
      if acc <> Ok () then acc
      else
        let c = p.colors.(v) in
        if is_query g v then
          if c < 0 || c >= p.num_colors then
            error "query variable %d has out-of-range color %d" v c
          else if membership.(v) <> c then
            error "query variable %d colored %d but listed in class %d" v c membership.(v)
          else acc
        else if c <> -1 then error "evidence variable %d carries color %d" v c
        else if membership.(v) <> -1 then
          error "evidence variable %d listed in class %d" v membership.(v)
        else acc
    in
    let vars_ok = ref (!structural) in
    for v = 0 to n - 1 do
      vars_ok := check_var v !vars_ok
    done;
    (* No factor may mention two distinct query variables of one color. *)
    let conflict = ref !vars_ok in
    Graph.iter_factors
      (fun fid f ->
        if !conflict = Ok () then begin
          let seen = Hashtbl.create 8 in
          List.iter
            (fun v ->
              let c = p.colors.(v) in
              if c >= 0 then
                match Hashtbl.find_opt seen c with
                | Some u when u <> v ->
                  conflict := error "factor %d mentions variables %d and %d, both color %d" fid u v c
                | _ -> Hashtbl.replace seen c v)
            (Graph.vars_of_factor f)
        end)
      g;
    !conflict
  end

let slices p ~domains =
  if domains < 1 then invalid_arg "Partition.slices: domains must be >= 1";
  Array.map
    (fun cls ->
      let len = Array.length cls in
      Array.init domains (fun d ->
          let lo = d * len / domains and hi = (d + 1) * len / domains in
          Array.sub cls lo (hi - lo)))
    p.classes
