type t = {
  rows : int list;
  bound : int;
}

let min_row_cost m i =
  Array.fold_left (fun acc j -> Int.min acc (Matrix.cost m j)) max_int (Matrix.row m i)

let intersects m i i' =
  (* do rows i and i' share a column?  both arrays are sorted *)
  let a = Matrix.row m i and b = Matrix.row m i' in
  let na = Array.length a and nb = Array.length b in
  let rec go x y =
    if x = na || y = nb then false
    else if a.(x) = b.(y) then true
    else if a.(x) < b.(y) then go (x + 1) y
    else go x (y + 1)
  in
  go 0 0

let is_independent m rows =
  let rec go = function
    | [] -> true
    | i :: rest -> List.for_all (fun i' -> not (intersects m i i')) rest && go rest
  in
  go rows

let bound_of_rows m rows =
  if not (is_independent m rows) then invalid_arg "Mis_bound.bound_of_rows: rows intersect";
  List.fold_left (fun acc i -> acc + min_row_cost m i) 0 rows

let compute m =
  let n = Matrix.n_rows m in
  if n = 0 then { rows = []; bound = 0 }
  else begin
    let rows = m.Matrix.rows and cols = m.Matrix.cols in
    let cheapest = Array.init n (min_row_cost m) in
    (* [stamp.(r) = g]: generation g has counted row r already.
       Generation i counts row i's neighbours; each dead row's update
       then takes a fresh one *)
    let stamp = Array.make n (-1) in
    let degree = Array.make n 0 in
    for i = 0 to n - 1 do
      stamp.(i) <- i;
      let row = rows.(i) in
      for a = 0 to Array.length row - 1 do
        let col = cols.(row.(a)) in
        for b = 0 to Array.length col - 1 do
          let r = col.(b) in
          if stamp.(r) <> i then begin
            stamp.(r) <- i;
            degree.(i) <- degree.(i) + 1
          end
        done
      done
    done;
    let gen = ref n in
    let alive = Array.make n true and remaining = ref n in
    (* the live rows in ascending order, compacted by each pick's scan *)
    let live = Array.init n Fun.id and n_live = ref n in
    let live_in_col = Array.map Array.length cols in
    let dead = Array.make n 0 and n_dead = ref 0 in
    let kill r =
      alive.(r) <- false;
      decr remaining;
      dead.(!n_dead) <- r;
      incr n_dead;
      let row = rows.(r) in
      for a = 0 to Array.length row - 1 do
        live_in_col.(row.(a)) <- live_in_col.(row.(a)) - 1
      done
    in
    let chosen = ref [] and bound = ref 0 in
    while !remaining > 0 do
      (* fewest live neighbours; ties: higher cheapest cost, then the
         lower index, which the ascending scan meets first *)
      let best = ref (-1) and k = ref 0 in
      for p = 0 to !n_live - 1 do
        let i = live.(p) in
        if alive.(i) then begin
          live.(!k) <- i;
          incr k;
          let b = !best in
          if
            b < 0
            || degree.(i) < degree.(b)
            || (degree.(i) = degree.(b) && cheapest.(i) > cheapest.(b))
          then best := i
        end
      done;
      n_live := !k;
      let i = !best in
      chosen := i :: !chosen;
      bound := !bound + cheapest.(i);
      n_dead := 0;
      kill i;
      let row = rows.(i) in
      for a = 0 to Array.length row - 1 do
        let col = cols.(row.(a)) in
        for b = 0 to Array.length col - 1 do
          if alive.(col.(b)) then kill col.(b)
        done
      done;
      (* each dead row costs each distinct survivor it touches one
         degree; a column with no live row left has no survivor
         (doc/ALGORITHMS.md §16) *)
      for d = 0 to !n_dead - 1 do
        let g = !gen in
        incr gen;
        let row = rows.(dead.(d)) in
        for a = 0 to Array.length row - 1 do
          let j = row.(a) in
          if live_in_col.(j) > 0 then begin
            let col = cols.(j) in
            for b = 0 to Array.length col - 1 do
              let r = col.(b) in
              if alive.(r) && stamp.(r) <> g then begin
                stamp.(r) <- g;
                degree.(r) <- degree.(r) - 1
              end
            done
          end
        done
      done
    done;
    { rows = List.rev !chosen; bound = !bound }
  end
