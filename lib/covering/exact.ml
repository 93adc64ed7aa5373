type result = {
  solution : int list;
  cost : int;
  optimal : bool;
  nodes : int;
  lower_bound : int;
}

exception Out_of_nodes

(* Build the matrix for a branch: include column [j] (drop it and its rows)
   and exclude columns [excluded].  [None] when some remaining row would be
   left with no column — that branch is infeasible. *)
let branch_matrix m ~include_col ~excluded =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  let keep_cols = Array.make n_cols true in
  keep_cols.(include_col) <- false;
  List.iter (fun j -> keep_cols.(j) <- false) excluded;
  let keep_rows = Array.make n_rows true in
  Array.iter (fun i -> keep_rows.(i) <- false) (Matrix.col m include_col);
  let feasible = ref true in
  for i = 0 to n_rows - 1 do
    if keep_rows.(i) && not (Array.exists (fun j -> keep_cols.(j)) (Matrix.row m i)) then
      feasible := false
  done;
  if not !feasible then None
  else Some (Matrix.submatrix m ~keep_rows ~keep_cols)

(* Limit bound theorem (paper Theorem 2): given an independent row set with
   bound [lb] (already including the fixed cost), any column covering no
   independent row and satisfying lb + c_j >= ub can be discarded.  [None]
   when the filtering leaves some row uncoverable — the node is pruned. *)
let limit_bound_filter m (mis : Mis_bound.t) ~lb ~ub =
  let n_cols = Matrix.n_cols m in
  let covers_mis = Array.make n_cols false in
  List.iter
    (fun i -> Array.iter (fun j -> covers_mis.(j) <- true) (Matrix.row m i))
    mis.Mis_bound.rows;
  let keep_cols =
    Array.init n_cols (fun j -> covers_mis.(j) || lb + Matrix.cost m j < ub)
  in
  if Array.for_all Fun.id keep_cols then Some m
  else begin
    let feasible = ref true in
    for i = 0 to Matrix.n_rows m - 1 do
      if not (Array.exists (fun j -> keep_cols.(j)) (Matrix.row m i)) then feasible := false
    done;
    if not !feasible then None
    else
      Some (Matrix.submatrix m ~keep_rows:(Array.make (Matrix.n_rows m) true) ~keep_cols)
  end

let solve ?(budget = Budget.none) ?ub ?(max_nodes = 200_000) ?(gimpel = true) ?extra_bound m =
  let incumbent_cost = ref (match ub with Some u -> u | None -> max_int) in
  let incumbent_sol = ref None in
  let nodes = ref 0 in
  let root_lb = ref 0 in
  let update_incumbent cost sol =
    if cost < !incumbent_cost || (cost = !incumbent_cost && !incumbent_sol = None) then begin
      incumbent_cost := cost;
      incumbent_sol := Some (List.sort_uniq Stdlib.compare sol)
    end
  in
  (* [lift_to_root] maps a solution of [m] — expressed as column
     identifiers of [m], which may include virtual Gimpel columns of
     enclosing nodes — to a full solution of the root matrix. *)
  let rec bb m ~lift_to_root acc_cost ~at_root =
    incr nodes;
    if !nodes > max_nodes then raise Out_of_nodes;
    if Budget.tick budget Budget.Exact_bb then raise Out_of_nodes;
    let { Reduce.core; trace; fixed_cost } = Reduce2.cyclic_core ~gimpel m in
    let acc = acc_cost + fixed_cost in
    let lift_here core_sol = lift_to_root (Reduce.lift trace core_sol) in
    if Matrix.is_empty core then begin
      if at_root then root_lb := acc;
      update_incumbent acc (lift_here [])
    end
    else begin
      let mis = Mis_bound.compute core in
      let core_bound =
        match extra_bound with
        | None -> mis.Mis_bound.bound
        | Some f -> max mis.Mis_bound.bound (f core)
      in
      let lb = acc + core_bound in
      if at_root then root_lb := lb;
      if lb < !incumbent_cost then begin
        (* the limit bound theorem holds for the bound of the very
           independent rows the filter checks, not for [extra_bound] *)
        match
          limit_bound_filter core mis ~lb:(acc + mis.Mis_bound.bound)
            ~ub:!incumbent_cost
        with
        | None -> ()
        | Some core ->
          (* branch on the columns of a shortest row, cheapest rating first;
             each later child excludes the columns tried before it *)
          let pivot = ref 0 in
          for i = 1 to Matrix.n_rows core - 1 do
            if Array.length (Matrix.row core i) < Array.length (Matrix.row core !pivot)
            then pivot := i
          done;
          let rating j =
            ( float_of_int (Matrix.cost core j)
              /. float_of_int (max 1 (Array.length (Matrix.col core j))),
              j )
          in
          let cols =
            List.sort
              (fun a b -> Stdlib.compare (rating a) (rating b))
              (Array.to_list (Matrix.row core !pivot))
          in
          let rec children excluded = function
            | [] -> ()
            | j :: rest ->
              (match branch_matrix core ~include_col:j ~excluded with
              | Some child ->
                let lift sol = lift_here (Matrix.col_id core j :: sol) in
                bb child ~lift_to_root:lift (acc + Matrix.cost core j) ~at_root:false
              | None -> ());
              children (j :: excluded) rest
          in
          children [] cols
      end
    end
  in
  let exhausted =
    try
      bb m ~lift_to_root:Fun.id 0 ~at_root:true;
      false
    with Out_of_nodes -> true
  in
  (* fall back to a greedy incumbent if the node budget ran out (or a prior
     upper bound pruned everything) before any leaf was reached *)
  let solution, cost =
    match !incumbent_sol with
    | Some sol -> (sol, Matrix.cost_of_ids ~original:m sol)
    | None ->
      let g = Greedy.solve_exchange m in
      let ids = List.map (Matrix.col_id m) g in
      (List.sort_uniq Stdlib.compare ids, Matrix.cost_of m g)
  in
  (* a caller-supplied [ub] can prune every leaf; then the greedy fallback
     is not proven optimal even though the search completed *)
  let optimal = (not exhausted) && (!incumbent_sol <> None || ub = None) in
  {
    solution;
    cost;
    optimal;
    nodes = !nodes;
    lower_bound = (if optimal then cost else min !root_lb cost);
  }

let brute_force m =
  let n = Matrix.n_cols m in
  if n > 20 then invalid_arg "Exact.brute_force: too many columns";
  let best_cost = ref max_int and best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let cols = List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init n Fun.id) in
    let cost = Matrix.cost_of m cols in
    if cost < !best_cost && Matrix.covers m cols then begin
      best_cost := cost;
      best := Some cols
    end
  done;
  match !best with
  | Some cols -> List.map (Matrix.col_id m) cols
  | None -> invalid_arg "Exact.brute_force: infeasible matrix"
