(* The greedy maximal-independent-set bound as first written: one
   Hashtbl of neighbours per row, polymorphic (degree, -cost, index)
   keys, each row's cheapest cost refolded on every compare.  The
   reference [Covering.Mis_bound.compute] is tested against: both must
   pick the same rows in the same order. *)

open Covering

let min_row_cost m i =
  Array.fold_left (fun acc j -> min acc (Matrix.cost m j)) max_int (Matrix.row m i)

let compute m =
  let n = Matrix.n_rows m in
  if n = 0 then { Mis_bound.rows = []; bound = 0 }
  else begin
    (* neighbour counts via column lists: rows sharing any column *)
    let alive = Array.make n true in
    let degree = Array.make n 0 in
    let neighbours i =
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun j ->
          Array.iter
            (fun i' -> if i' <> i then Hashtbl.replace seen i' ())
            (Matrix.col m j))
        (Matrix.row m i);
      seen
    in
    let neigh = Array.init n neighbours in
    for i = 0 to n - 1 do
      degree.(i) <- Hashtbl.length neigh.(i)
    done;
    let chosen = ref [] and bound = ref 0 in
    let remaining = ref n in
    while !remaining > 0 do
      (* fewest live neighbours; ties: higher cheapest-cost, then low index *)
      let best = ref (-1) in
      for i = n - 1 downto 0 do
        if alive.(i) then
          match !best with
          | -1 -> best := i
          | b ->
            let key i = (degree.(i), -min_row_cost m i, i) in
            if key i < key b then best := i
      done;
      let i = !best in
      chosen := i :: !chosen;
      bound := !bound + min_row_cost m i;
      alive.(i) <- false;
      decr remaining;
      Hashtbl.iter
        (fun i' () ->
          if alive.(i') then begin
            alive.(i') <- false;
            decr remaining;
            (* removing i' lowers its neighbours' degrees *)
            Hashtbl.iter
              (fun i'' () -> if alive.(i'') then degree.(i'') <- degree.(i'') - 1)
              neigh.(i')
          end)
        neigh.(i)
    done;
    { Mis_bound.rows = List.rev !chosen; bound = !bound }
  end
