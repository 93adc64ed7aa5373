module Matrix = Covering.Matrix
module Dense = Covering.Dense

type eval = {
  reduced_costs : float array;
  in_solution : bool array;
  value : float;
  subgradient : float array;
  violated : int;
}

type values = {
  mutable z_lp : float;
  mutable w_ld : float;
}

type workspace = {
  matrix : Matrix.t;
  dense : Dense.t option;
  caps : float array;
  c_tilde : float array;
  p_star : bool array;
  s : float array;
  m_star : float array;
  g : float array;
  sol : int array;
  values : values;
  mutable n_violated : int;
}

let check_lambda m lambda =
  let n = Matrix.n_rows m in
  if Array.length lambda <> n then invalid_arg "Relax: multiplier length mismatch";
  for i = 0 to n - 1 do
    if lambda.(i) < 0. then invalid_arg "Relax: negative multiplier"
  done

let check_mu m mu =
  if Array.length mu <> Matrix.n_cols m then invalid_arg "Relax: mu length mismatch"

(* c̄_i = min over the row's columns, from +∞: [min a b = if a <= b then a
   else b] on floats, as the polymorphic [min] computes it *)
let caps_of m =
  let rows = m.Matrix.rows and cost = m.Matrix.cost in
  Array.init (Matrix.n_rows m) (fun i ->
      let row = rows.(i) in
      let acc = ref infinity in
      for k = 0 to Array.length row - 1 do
        let c = float_of_int cost.(row.(k)) in
        acc := if !acc <= c then !acc else c
      done;
      !acc)

let make ?dense ~dual m =
  (match dense with
  | Some d when Dense.matrix d != m ->
    invalid_arg "Relax: dense mirror of a different matrix"
  | _ -> ());
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  {
    matrix = m;
    dense;
    caps = (if dual then caps_of m else [||]);
    c_tilde = Array.make n_cols 0.;
    p_star = Array.make n_cols false;
    s = Array.make n_rows 0.;
    m_star = (if dual then Array.make n_rows 0. else [||]);
    g = (if dual then Array.make n_cols 0. else [||]);
    sol = (match dense with Some d -> Dense.make_col_set d | None -> [||]);
    values = { z_lp = 0.; w_ld = 0. };
    n_violated = 0;
  }

let workspace ?dense m = make ?dense ~dual:true m

(* c̃_j = c_j − Σ_{i ∈ rows(j)} λ_i, folded in ascending row order *)
let reduce_costs m lambda c_tilde =
  let cols = m.Matrix.cols and cost = m.Matrix.cost in
  for j = 0 to Array.length cols - 1 do
    let col = cols.(j) in
    let c = ref (float_of_int cost.(j)) in
    for k = 0 to Array.length col - 1 do
      c := !c -. lambda.(col.(k))
    done;
    c_tilde.(j) <- !c
  done

(* One column pass (c̃, p*, the Σ min(c̃_j, 0) part of z_LP) and one row
   pass (the Σ λ_i part, s, the violated count).  The additions into
   z_LP come in the order of the definition: columns ascending, then
   rows ascending. *)
let primal ws lambda =
  let m = ws.matrix in
  check_lambda m lambda;
  reduce_costs m lambda ws.c_tilde;
  let c_tilde = ws.c_tilde and p_star = ws.p_star and s = ws.s in
  let z = ref 0. in
  for j = 0 to Array.length c_tilde - 1 do
    let c = c_tilde.(j) in
    let taken = c <= 0. in
    p_star.(j) <- taken;
    if taken then z := !z +. c
  done;
  let violated = ref 0 in
  (match ws.dense with
  | Some d ->
    (* word-parallel covered counts: |row ∩ p*| by popcount against the
       in-solution column bitset — integer counts, so exactly the sparse
       count below *)
    let sol = ws.sol in
    Array.fill sol 0 (Array.length sol) 0;
    for j = 0 to Array.length p_star - 1 do
      if p_star.(j) then Dense.set_bit sol j
    done;
    for i = 0 to Array.length s - 1 do
      z := !z +. lambda.(i);
      let si = 1. -. float_of_int (Dense.row_hits d i ~cols:sol) in
      s.(i) <- si;
      if si > 0. then incr violated
    done
  | None ->
    let rows = m.Matrix.rows in
    for i = 0 to Array.length s - 1 do
      z := !z +. lambda.(i);
      let row = rows.(i) in
      let covered = ref 0 in
      for k = 0 to Array.length row - 1 do
        if p_star.(row.(k)) then incr covered
      done;
      let si = 1. -. float_of_int !covered in
      s.(i) <- si;
      if si > 0. then incr violated
    done);
  ws.values.z_lp <- !z;
  ws.n_violated <- !violated

(* One row pass computes ẽ_i once, the inner maximiser m*_i and the
   Σ max(ẽ_i, 0)·c̄_i part of w_LD; one column pass adds Σ μ_j c_j and
   writes g_j = c_j − Σ_{i ∈ rows(j)} m*_i. *)
let dual ws mu =
  let m = ws.matrix in
  check_mu m mu;
  let rows = m.Matrix.rows and cols = m.Matrix.cols and cost = m.Matrix.cost in
  let caps = ws.caps and m_star = ws.m_star and g = ws.g in
  let w = ref 0. in
  for i = 0 to Array.length rows - 1 do
    let row = rows.(i) in
    let e = ref 1. in
    for k = 0 to Array.length row - 1 do
      e := !e -. mu.(row.(k))
    done;
    let e = !e in
    if e > 0. then begin
      let cap = caps.(i) in
      m_star.(i) <- cap;
      w := !w +. (e *. cap)
    end
    else m_star.(i) <- 0.
  done;
  for j = 0 to Array.length cols - 1 do
    let c = float_of_int cost.(j) in
    w := !w +. (mu.(j) *. c);
    let col = cols.(j) in
    let gj = ref c in
    for k = 0 to Array.length col - 1 do
      gj := !gj -. m_star.(col.(k))
    done;
    g.(j) <- !gj
  done;
  ws.values.w_ld <- !w

let lagrangian_costs m lambda =
  check_lambda m lambda;
  let c_tilde = Array.make (Matrix.n_cols m) 0. in
  reduce_costs m lambda c_tilde;
  c_tilde

let evaluate ?dense m lambda =
  let ws = make ?dense ~dual:false m in
  primal ws lambda;
  {
    reduced_costs = ws.c_tilde;
    in_solution = ws.p_star;
    value = ws.values.z_lp;
    subgradient = ws.s;
    violated = ws.n_violated;
  }

let min_covering_costs = caps_of

let dual_value m_vec = Array.fold_left ( +. ) 0. m_vec

let dual_feasible ?(eps = 1e-9) m m_vec =
  Array.length m_vec = Matrix.n_rows m
  && Array.for_all (fun v -> v >= -.eps) m_vec
  && (let ok = ref true in
      for j = 0 to Matrix.n_cols m - 1 do
        let s = Array.fold_left (fun acc i -> acc +. m_vec.(i)) 0. (Matrix.col m j) in
        if s > float_of_int (Matrix.cost m j) +. eps then ok := false
      done;
      !ok)

let dual_lagrangian_value m ~mu =
  let ws = workspace m in
  dual ws mu;
  ws.values.w_ld

let dual_lagrangian_subgradient m ~mu =
  let ws = workspace m in
  dual ws mu;
  ws.g
