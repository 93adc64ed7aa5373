(* The pass engine: the explicit reductions (essential columns, row and
   column dominance, Gimpel's reduction) one kind per pass, each pass
   rebuilding the immutable matrix, iterated to the fixpoint.  It is the
   straightforward reading of the paper's [Explicit_Reductions] and the
   reference the worklist engine [Covering.Reduce2] is tested against:
   both must reach the same core, fixed cost and trace events. *)

open Covering
open Reduce

let essential_columns m =
  let acc = ref [] in
  for i = Matrix.n_rows m - 1 downto 0 do
    let r = Matrix.row m i in
    if Array.length r = 1 then acc := r.(0) :: !acc
  done;
  List.sort_uniq Stdlib.compare !acc

(* sorted-array subset test *)
let array_subset small big =
  let ns = Array.length small and nb = Array.length big in
  let rec go i j =
    if i = ns then true
    else if j = nb then false
    else if small.(i) = big.(j) then go (i + 1) (j + 1)
    else if small.(i) > big.(j) then go i (j + 1)
    else false
  in
  ns <= nb && go 0 0

let dominated_rows m =
  let n = Matrix.n_rows m in
  let removed = Array.make n false in
  for i = 0 to n - 1 do
    let r = Matrix.row m i in
    (* candidates: rows sharing r's rarest column *)
    let rarest =
      Array.fold_left
        (fun best j ->
          match best with
          | None -> Some j
          | Some b ->
            if Array.length (Matrix.col m j) < Array.length (Matrix.col m b) then Some j
            else best)
        None r
    in
    match rarest with
    | None -> ()
    | Some jr ->
      Array.iter
        (fun t ->
          if t <> i && not removed.(t) then begin
            let rt = Matrix.row m t in
            let len_r = Array.length r and len_t = Array.length rt in
            (* remove t when it strictly contains r, or duplicates r with a
               larger index (keep the first copy) *)
            if (len_t > len_r || (len_t = len_r && t > i)) && array_subset r rt then
              removed.(t) <- true
          end)
        (Matrix.col m jr)
  done;
  removed

let dominated_columns m =
  let n = Matrix.n_cols m in
  let removed = Array.make n false in
  for j = 0 to n - 1 do
    let cj = Matrix.col m j in
    if Array.length cj = 0 then removed.(j) <- true
    else begin
      (* candidates: columns of the row (among j's rows) with fewest columns *)
      let shortest_row =
        Array.fold_left
          (fun best i ->
            match best with
            | None -> Some i
            | Some b ->
              if Array.length (Matrix.row m i) < Array.length (Matrix.row m b) then Some i
              else best)
          None cj
      in
      match shortest_row with
      | None -> ()
      | Some ir ->
        Array.iter
          (fun k ->
            if k <> j && not removed.(j) then begin
              let ck = Matrix.col m k in
              let dominates =
                Matrix.cost m k <= Matrix.cost m j
                && array_subset cj ck
                && (Array.length ck > Array.length cj
                   || Matrix.cost m k < Matrix.cost m j
                   || k < j)
              in
              if dominates then removed.(j) <- true
            end)
          (Matrix.row m ir)
    end
  done;
  removed

let apply_essentials m ess =
  let keep_rows = Array.make (Matrix.n_rows m) true in
  let keep_cols = Array.make (Matrix.n_cols m) true in
  List.iter
    (fun j ->
      keep_cols.(j) <- false;
      Array.iter (fun i -> keep_rows.(i) <- false) (Matrix.col m j))
    ess;
  let trace =
    List.map (fun j -> Essential { id = Matrix.col_id m j; cost = Matrix.cost m j }) ess
  in
  let fixed = List.fold_left (fun acc j -> acc + Matrix.cost m j) 0 ess in
  (* columns that end up covering no kept row become empty; keep them — the
     next column-dominance pass deletes them without risk *)
  (Matrix.submatrix m ~keep_rows ~keep_cols, trace, fixed)

let find_gimpel m =
  (* a row {a, b} where the cheaper column covers only that row and is
     strictly cheaper (otherwise column dominance applies instead) *)
  let n = Matrix.n_rows m in
  let rec go i =
    if i = n then None
    else
      let r = Matrix.row m i in
      if Array.length r <> 2 then go (i + 1)
      else begin
        let a = r.(0) and b = r.(1) in
        let pick cheap dear =
          if
            Array.length (Matrix.col m cheap) = 1
            && Matrix.cost m cheap < Matrix.cost m dear
          then Some (i, cheap, dear)
          else None
        in
        match pick a b with
        | Some g -> Some g
        | None -> (
          match pick b a with
          | Some g -> Some g
          | None -> go (i + 1))
      end
  in
  go 0

let apply_gimpel m ~next_virtual_id (i, cheap, dear) =
  let virtual_id = !next_virtual_id in
  incr next_virtual_id;
  let base_cost = Matrix.cost m cheap in
  let vcost = Matrix.cost m dear - base_cost in
  let rows_a =
    Array.to_list (Matrix.col m dear) |> List.filter (fun i' -> i' <> i)
  in
  assert (rows_a <> []);
  (* after dominance, [dear] covers some other row *)
  let m' = Matrix.add_virtual_column m ~cost:vcost ~id:virtual_id ~rows:rows_a in
  let keep_rows = Array.make (Matrix.n_rows m') true in
  keep_rows.(i) <- false;
  let keep_cols = Array.make (Matrix.n_cols m') true in
  keep_cols.(cheap) <- false;
  keep_cols.(dear) <- false;
  let core = Matrix.submatrix m' ~keep_rows ~keep_cols in
  let item =
    Gimpel
      { virtual_id; cheap_id = Matrix.col_id m cheap; dear_id = Matrix.col_id m dear; base_cost }
  in
  (core, item, base_cost)

let step ?(gimpel = true) ~next_virtual_id m =
  if Matrix.is_empty m then None
  else
    match essential_columns m with
    | _ :: _ as ess ->
      let core, trace, fixed = apply_essentials m ess in
      Some { core; trace; fixed_cost = fixed }
    | [] ->
      let dr = dominated_rows m in
      if Array.exists Fun.id dr then
        let keep_rows = Array.map not dr in
        let keep_cols = Array.make (Matrix.n_cols m) true in
        Some { core = Matrix.submatrix m ~keep_rows ~keep_cols; trace = []; fixed_cost = 0 }
      else begin
        let dc = dominated_columns m in
        if Array.exists Fun.id dc then
          let keep_rows = Array.make (Matrix.n_rows m) true in
          let keep_cols = Array.map not dc in
          Some { core = Matrix.submatrix m ~keep_rows ~keep_cols; trace = []; fixed_cost = 0 }
        else if gimpel then
          match find_gimpel m with
          | Some g ->
            let core, item, fixed = apply_gimpel m ~next_virtual_id g in
            Some { core; trace = [ item ]; fixed_cost = fixed }
          | None -> None
        else None
      end

let cyclic_core ?(gimpel = true) m =
  let max_id = Array.fold_left max (-1) (Array.init (Matrix.n_cols m) (Matrix.col_id m)) in
  let next_virtual_id = ref (max_id + 1) in
  let rec go core trace fixed =
    match step ~gimpel ~next_virtual_id core with
    | None -> { core; trace = List.rev trace; fixed_cost = fixed }
    | Some r -> go r.core (List.rev_append r.trace trace) (fixed + r.fixed_cost)
  in
  go m [] 0
