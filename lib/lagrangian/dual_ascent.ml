module Matrix = Covering.Matrix

type t = {
  m : float array;
  value : float;
}

type order = {
  mat : Matrix.t;
  rows : int array;
}

(* phase 1 walks the rows most-covered first, ties by index; phase 2
   walks the same order backwards *)
let row_order mat =
  let rows = Array.init (Matrix.n_rows mat) Fun.id in
  let degree i = Array.length (Matrix.row mat i) in
  Array.stable_sort (fun a b -> Int.compare (degree b) (degree a)) rows;
  { mat; rows }

(* Stdlib's polymorphic [min]/[max], specialised to floats: same
   results, nan and ±0 included, without boxing *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

(* c̄ of a row under [costs]: the min over its columns, from +∞ *)
let cap costs row =
  let c = ref infinity in
  for k = 0 to Array.length row - 1 do
    c := fmin !c costs.(row.(k))
  done;
  !c

let run_with_costs ?(budget = Budget.none) ?start ?order mat ~costs =
  if Array.length costs <> Matrix.n_cols mat then
    invalid_arg "Dual_ascent.run_with_costs: cost length mismatch";
  let order =
    match order with
    | Some o when o.mat == mat -> o.rows
    | Some _ -> invalid_arg "Dual_ascent.run_with_costs: order of a different matrix"
    | None -> (row_order mat).rows
  in
  let n_rows = Matrix.n_rows mat and n_cols = Matrix.n_cols mat in
  let rows = mat.Matrix.rows and cols = mat.Matrix.cols in
  let m =
    match start with
    | Some v ->
      if Array.length v <> n_rows then invalid_arg "Dual_ascent: start length mismatch";
      Array.copy v
    | None ->
      (* the caps under the modified costs *)
      Array.init n_rows (fun i ->
          let c = cap costs rows.(i) in
          if Float.is_finite c then c else 0.)
  in
  (* column loads: Σ_{i ∈ cols(j)} m_i, maintained incrementally *)
  let load = Array.make n_cols 0. in
  for j = 0 to n_cols - 1 do
    let col = cols.(j) in
    let l = ref 0. in
    for k = 0 to Array.length col - 1 do
      l := !l +. m.(col.(k))
    done;
    load.(j) <- !l
  done;
  (* phase 1: most-covered rows first, shrink by the worst violation.  A
     single sweep can leave a constraint violated when a variable bottoms
     out at 0, so sweep until feasible (total violation strictly decreases,
     and every variable is 0 after finitely many sweeps at the latest). *)
  let eps = 1e-9 in
  let violated () =
    let v = ref false in
    for j = 0 to n_cols - 1 do
      if load.(j) > costs.(j) +. eps then v := true
    done;
    !v
  in
  let tripped = ref false in
  while (not !tripped) && violated () do
    if Budget.tick budget Budget.Dual_ascent then begin
      (* trip: fall back to the trivially feasible dual point m = 0
         (costs are non-negative), so phase 2 below still starts from a
         feasible vector and only raises within slack — the result stays
         dual-feasible and the bound stays valid, merely weaker *)
      tripped := true;
      Array.fill m 0 n_rows 0.;
      Array.fill load 0 n_cols 0.
    end
    else
      for o = 0 to n_rows - 1 do
        let i = order.(o) in
        let row = rows.(i) in
        let worst = ref 0. in
        for k = 0 to Array.length row - 1 do
          let j = row.(k) in
          worst := fmax !worst (load.(j) -. costs.(j))
        done;
        let worst = !worst in
        if worst > eps && m.(i) > 0. then begin
          let delta = fmin worst m.(i) in
          m.(i) <- m.(i) -. delta;
          for k = 0 to Array.length row - 1 do
            let j = row.(k) in
            load.(j) <- load.(j) -. delta
          done
        end
      done
  done;
  (* phase 2: least-covered rows first, raise by the smallest slack *)
  for o = n_rows - 1 downto 0 do
    let i = order.(o) in
    let row = rows.(i) in
    let slack = ref infinity in
    for k = 0 to Array.length row - 1 do
      let j = row.(k) in
      slack := fmin !slack (costs.(j) -. load.(j))
    done;
    let slack = !slack in
    if slack > 0. && Float.is_finite slack then begin
      m.(i) <- m.(i) +. slack;
      for k = 0 to Array.length row - 1 do
        let j = row.(k) in
        load.(j) <- load.(j) +. slack
      done
    end
  done;
  (* no clipping follows: phase 2 raises a variable only by the smallest
     slack through it, so a point feasible within [eps] after phase 1
     stays so up to rounding *)
  let value = ref 0. in
  for i = 0 to n_rows - 1 do
    value := !value +. m.(i)
  done;
  { m; value = !value }

let run ?(budget = Budget.none) mat =
  let order = row_order mat in
  let costs = Array.init (Matrix.n_cols mat) (fun j -> float_of_int (Matrix.cost mat j)) in
  let from_caps = run_with_costs ~budget ~order mat ~costs in
  (* Proposition 1 requires dominating the independent-set bound, which
     holds when the ascent is seeded with the MIS dual solution (phase 1 is
     a no-op on it; phase 2 only raises).  Take the better of both seeds. *)
  let mis = Covering.Mis_bound.compute mat in
  let start = Array.make (Matrix.n_rows mat) 0. in
  List.iter (fun i -> start.(i) <- cap costs (Matrix.row mat i)) mis.Covering.Mis_bound.rows;
  let from_mis = run_with_costs ~budget ~start ~order mat ~costs in
  if from_mis.value > from_caps.value then from_mis else from_caps

let to_lambda t = Array.copy t.m
