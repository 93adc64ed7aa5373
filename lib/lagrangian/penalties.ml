module Matrix = Covering.Matrix

type outcome = {
  forced_in : int list;
  forced_out : int list;
}

let nothing = { forced_in = []; forced_out = [] }

let eps = 1e-9

let lagrangian m ~lp_value ~reduced_costs ~z_best =
  let zb = float_of_int z_best in
  let forced_in = ref [] and forced_out = ref [] in
  for j = Matrix.n_cols m - 1 downto 0 do
    let c = reduced_costs.(j) in
    if c <= 0. then begin
      (* (LP0) costs z_LP − c̃_j: prune the p_j = 0 branch *)
      if lp_value -. c >= zb -. eps then forced_in := j :: !forced_in
    end
    else if lp_value +. c >= zb -. eps then forced_out := j :: !forced_out
  done;
  { forced_in = !forced_in; forced_out = !forced_out }

(* Stand-in for +∞ that keeps dual-ascent arithmetic finite; any value
   above the sum of all costs behaves as "constraint dropped". *)
let big m =
  let total = ref 1. in
  for j = 0 to Matrix.n_cols m - 1 do
    total := !total +. float_of_int (Matrix.cost m j)
  done;
  !total *. 4.

let dual ?(max_cols = 100) ?upper_dual m ~z_best =
  if Matrix.n_cols m > max_cols then nothing
  else begin
    let zb = float_of_int z_best in
    (* by weak duality the (6) pass's value is at most the LP with
       c_j = 0, hence at most the LP, hence at most any w_LD(μ): with
       [upper_dual + c_j] short of [z_best] by a margin far above the
       rounding of either sum and far below a unit of cost, (6) cannot
       fire *)
    let skip_6 c =
      match upper_dual with
      | Some u -> u +. c < zb -. eps -. (1e-6 *. (1. +. Float.abs zb))
      | None -> false
    in
    let costs = Array.init (Matrix.n_cols m) (fun j -> float_of_int (Matrix.cost m j)) in
    let infinite = big m in
    let order = Dual_ascent.row_order m in
    let value () = (Dual_ascent.run_with_costs ~order m ~costs).Dual_ascent.value in
    let forced_in = ref [] and forced_out = ref [] in
    for j = Matrix.n_cols m - 1 downto 0 do
      let c = costs.(j) in
      (* (5): relax constraint j away; a high dual value means every
         solution avoiding column j is too expensive *)
      costs.(j) <- infinite;
      let w0 = value () in
      if w0 >= zb -. eps then forced_in := j :: !forced_in
      else if not (skip_6 c) then begin
        (* (6): make column j free; if even then the dual pushes past
           z_best − c_j, taking j cannot beat the incumbent *)
        costs.(j) <- 0.;
        let w1 = value () in
        if w1 +. c >= zb -. eps then forced_out := j :: !forced_out
      end;
      costs.(j) <- c
    done;
    { forced_in = !forced_in; forced_out = !forced_out }
  end

let apply m outcome =
  if outcome.forced_in = [] && outcome.forced_out = [] then Some (m, [])
  else begin
    let keep_cols = Array.make (Matrix.n_cols m) true in
    List.iter (fun j -> keep_cols.(j) <- false) outcome.forced_out;
    List.iter (fun j -> keep_cols.(j) <- false) outcome.forced_in;
    let keep_rows = Array.make (Matrix.n_rows m) true in
    List.iter
      (fun j -> Array.iter (fun i -> keep_rows.(i) <- false) (Matrix.col m j))
      outcome.forced_in;
    (* a kept row whose every column was forced out proves the incumbent
       unbeatable on this branch *)
    let feasible = ref true in
    for i = 0 to Matrix.n_rows m - 1 do
      if keep_rows.(i) && not (Array.exists (fun j -> keep_cols.(j)) (Matrix.row m i))
      then feasible := false
    done;
    if not !feasible then None
    else begin
      let ids = List.map (Matrix.col_id m) outcome.forced_in in
      Some (Matrix.submatrix m ~keep_rows ~keep_cols, ids)
    end
  end
