type rule =
  | Cost_per_row
  | Cost_per_log
  | Cost_per_row_log
  | Weighted_rows

let all_rules = [ Cost_per_row; Cost_per_log; Cost_per_row_log; Weighted_rows ]

let ln2 = log 2.
let log2 x = log x /. ln2

let[@inline] rate rule ~cost ~n_fresh ~row_weight =
  let n = float_of_int n_fresh in
  match rule with
  | Cost_per_row -> cost /. n
  | Cost_per_log -> cost /. log2 (n +. 1.)
  | Cost_per_row_log -> cost /. (n *. log2 (n +. 1.))
  | Weighted_rows -> cost /. row_weight

(* static row importance: rows covered by few columns weigh more; a
   singleton row makes its column irresistible *)
let row_unit m i =
  let deg = Array.length (Matrix.row m i) in
  if deg <= 1 then 1e9 else 1. /. float_of_int (deg - 1)

(* Binary min-heap of (rate, column) pairs in two flat arrays, ordered
   lexicographically: rate by float [<], ties by the lower column.  Each
   column is in the heap at most once, so [n_cols] slots suffice. *)
type heap = {
  keys : float array;
  cols : int array;
  mutable size : int;
}

(* put (key, col) in slot [i] and let it sink to its place *)
let heap_sift h i key col =
  let n = h.size in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (h.keys.(r) < h.keys.(l)
             || (h.keys.(r) = h.keys.(l) && h.cols.(r) < h.cols.(l)))
        then r
        else l
      in
      let kc = h.keys.(c) in
      if kc < key || (kc = key && h.cols.(c) < col) then begin
        h.keys.(!i) <- kc;
        h.cols.(!i) <- h.cols.(c);
        i := c
      end
      else sinking := false
    end
  done;
  h.keys.(!i) <- key;
  h.cols.(!i) <- col

(* drop the minimum (read it from slot 0 first) *)
let heap_pop h =
  h.size <- h.size - 1;
  if h.size > 0 then heap_sift h 0 h.keys.(h.size) h.cols.(h.size)

(* Coverage of one greedy run: a bool per row on the sparse path, the
   row bitset of the mirror on the dense one (the other array is empty).
   The paths differ only in how a column's fresh rows are counted,
   weighed and folded in: a walk of the column list, or word operations
   on the bitset. *)
type frontier = {
  m : Matrix.t;
  dense : Dense.t option;
  covered : bool array;
  bits : int array;
  units : float array;  (* row_unit per row; empty unless Weighted_rows *)
  mutable left : int;
}

let take f j =
  match f.dense with
  | Some d -> f.left <- f.left - Dense.cover_col d j ~covered:f.bits
  | None ->
    let col = Matrix.col f.m j in
    for k = 0 to Array.length col - 1 do
      let i = col.(k) in
      if not f.covered.(i) then begin
        f.covered.(i) <- true;
        f.left <- f.left - 1
      end
    done

let first_uncovered f =
  let row = ref 0 in
  (match f.dense with
  | Some _ -> while Dense.mem_bit f.bits !row do incr row done
  | None -> while f.covered.(!row) do incr row done);
  !row

(* Weighted_rows weight: [units] summed over the fresh rows of [j] in
   ascending row order, on either path *)
let fresh_weight f j =
  match f.dense with
  | Some d -> Dense.fresh_sum d j ~covered:f.bits f.units
  | None ->
    let col = Matrix.col f.m j in
    let w = ref 0. in
    for k = 0 to Array.length col - 1 do
      let i = col.(k) in
      if not f.covered.(i) then w := !w +. f.units.(i)
    done;
    !w

(* The current rate of column [j], or +∞ when it covers no fresh row.
   Columns of non-positive cost are rated c·n (more coverage, more
   negative — the Balas–Ho convention the Lagrangian costs need). *)
let[@inline] rate_col rule f ~costs j =
  let n_fresh =
    match f.dense with
    | Some d -> Dense.col_fresh d j ~covered:f.bits
    | None ->
      let col = Matrix.col f.m j in
      let n = ref 0 in
      for k = 0 to Array.length col - 1 do
        if not f.covered.(col.(k)) then incr n
      done;
      !n
  in
  if n_fresh = 0 then infinity
  else begin
    let c = costs.(j) in
    if c <= 0. then c *. float_of_int n_fresh
    else
      let row_weight = if rule = Weighted_rows then fresh_weight f j else 0. in
      rate rule ~cost:c ~n_fresh ~row_weight
  end

let cover ~rule ?dense m ~costs =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  if Array.length costs <> n_cols then invalid_arg "Greedy: cost length mismatch";
  (match dense with
  | Some d when Dense.matrix d != m ->
    invalid_arg "Greedy: dense mirror of a different matrix"
  | _ -> ());
  let f =
    {
      m;
      dense;
      covered = (if Option.is_none dense then Array.make n_rows false else [||]);
      bits = (match dense with Some d -> Dense.make_row_set d | None -> [||]);
      units = (if rule = Weighted_rows then Array.init n_rows (row_unit m) else [||]);
      left = n_rows;
    }
  in
  let chosen = ref [] in
  let pick j =
    chosen := j :: !chosen;
    take f j
  in
  for j = 0 to n_cols - 1 do
    if costs.(j) <= 0. then pick j
  done;
  if f.left > 0 then begin
    let h = { keys = Array.make n_cols 0.; cols = Array.make n_cols 0; size = 0 } in
    for j = 0 to n_cols - 1 do
      let r = rate_col rule f ~costs j in
      if r < infinity then begin
        h.keys.(h.size) <- r;
        h.cols.(h.size) <- j;
        h.size <- h.size + 1
      end
    done;
    for i = (h.size / 2) - 1 downto 0 do
      heap_sift h i h.keys.(i) h.cols.(i)
    done;
    while f.left > 0 do
      if h.size = 0 then begin
        let row = first_uncovered f in
        raise (Infeasible.Infeasible { row; row_id = Matrix.row_id m row })
      end;
      (* rates only grow as rows get covered, so the key of the minimum is
         a lower bound on its column's current rate: equal means the column
         is the (rate, index) minimum; otherwise it sinks with its new rate *)
      let key = h.keys.(0) and j = h.cols.(0) in
      let r = rate_col rule f ~costs j in
      if r = key then begin
        heap_pop h;
        pick j
      end
      else if r < infinity then heap_sift h 0 r j
      else heap_pop h
    done
  end;
  List.rev !chosen

let solve ?(rule = Cost_per_row) ?dense m =
  if Matrix.n_rows m = 0 then []
  else
    let costs = Array.init (Matrix.n_cols m) (fun j -> float_of_int (Matrix.cost m j)) in
    Matrix.irredundant m (cover ~rule ?dense m ~costs)

let solve_best ?dense m =
  let candidates = List.map (fun rule -> solve ~rule ?dense m) all_rules in
  match candidates with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun best sol -> if Matrix.cost_of m sol < Matrix.cost_of m best then sol else best)
      first rest

let one_exchange m sol =
  (* try to swap each chosen column for a strictly cheaper substitute that
     covers all the rows the column covers uniquely *)
  let n_rows = Matrix.n_rows m in
  let times = Array.make n_rows 0 in
  let in_sol = Hashtbl.create 16 in
  List.iter
    (fun j ->
      Hashtbl.replace in_sol j ();
      Array.iter (fun i -> times.(i) <- times.(i) + 1) (Matrix.col m j))
    sol;
  let improved = ref false in
  let try_swap j =
    let unique = Array.to_list (Matrix.col m j) |> List.filter (fun i -> times.(i) = 1) in
    match unique with
    | [] ->
      (* redundant column: drop it *)
      Hashtbl.remove in_sol j;
      Array.iter (fun i -> times.(i) <- times.(i) - 1) (Matrix.col m j);
      improved := true
    | first :: _ ->
      let unique_arr = Array.of_list unique in
      let candidate = ref None in
      Array.iter
        (fun k ->
          if
            k <> j
            && (not (Hashtbl.mem in_sol k))
            && Matrix.cost m k < Matrix.cost m j
            && Array.for_all
                 (fun i -> Array.exists (fun i' -> i' = i) (Matrix.col m k))
                 unique_arr
          then
            match !candidate with
            | Some best when Matrix.cost m best <= Matrix.cost m k -> ()
            | Some _ | None -> candidate := Some k)
        (Matrix.row m first);
      match !candidate with
      | None -> ()
      | Some k ->
        Hashtbl.remove in_sol j;
        Array.iter (fun i -> times.(i) <- times.(i) - 1) (Matrix.col m j);
        Hashtbl.replace in_sol k ();
        Array.iter (fun i -> times.(i) <- times.(i) + 1) (Matrix.col m k);
        improved := true
  in
  List.iter (fun j -> if Hashtbl.mem in_sol j then try_swap j) sol;
  let sol' = Hashtbl.fold (fun j () acc -> j :: acc) in_sol [] in
  (List.sort Stdlib.compare sol', !improved)

(* 2-for-1 exchange: replace two chosen columns by one column covering all
   the rows only they cover — the move that actually pays off under
   uniform costs, where single swaps can never be strictly cheaper. *)
let two_for_one m sol =
  let n_rows = Matrix.n_rows m in
  let times = Array.make n_rows 0 in
  List.iter
    (fun j -> Array.iter (fun i -> times.(i) <- times.(i) + 1) (Matrix.col m j))
    sol;
  let in_sol = Hashtbl.create 16 in
  List.iter (fun j -> Hashtbl.replace in_sol j ()) sol;
  let covers_all k rows =
    List.for_all (fun i -> Array.exists (fun i' -> i' = i) (Matrix.col m k)) rows
  in
  let covers j i = Array.exists (fun i' -> i' = i) (Matrix.col m j) in
  (* rows that lose every chosen cover when both j1 and j2 leave *)
  let orphans j1 j2 =
    List.sort_uniq Stdlib.compare
      (Array.to_list (Matrix.col m j1) @ Array.to_list (Matrix.col m j2))
    |> List.filter (fun i ->
           let by_pair = (if covers j1 i then 1 else 0) + if covers j2 i then 1 else 0 in
           times.(i) = by_pair)
  in
  let rec try_pairs = function
    | [] -> None
    | j1 :: rest ->
      let found =
        List.find_map
          (fun j2 ->
            let need = orphans j1 j2 in
            match need with
            | [] -> None (* both redundant; irredundancy handles it *)
            | first :: _ ->
              let candidate =
                Array.to_list (Matrix.row m first)
                |> List.find_opt (fun k ->
                       (not (Hashtbl.mem in_sol k))
                       && Matrix.cost m k < Matrix.cost m j1 + Matrix.cost m j2
                       && covers_all k need)
              in
              Option.map (fun k -> (j1, j2, k)) candidate)
          rest
      in
      (match found with
      | Some _ as r -> r
      | None -> try_pairs rest)
  in
  match try_pairs sol with
  | None -> (sol, false)
  | Some (j1, j2, k) ->
    (k :: List.filter (fun j -> j <> j1 && j <> j2) sol, true)

let solve_exchange ?(rounds = 3) ?dense m =
  let sol = ref (solve_best ?dense m) in
  (try
     for _ = 1 to rounds do
       let sol', improved = one_exchange m !sol in
       let sol'', improved' = two_for_one m sol' in
       sol := Matrix.irredundant m sol'';
       if not (improved || improved') then raise Exit
     done
   with Exit -> ());
  Matrix.irredundant m !sol
