type component = {
  rows : int list;
  cols : int list;
}

(* Union-find over rows; two rows are joined when they share a column. *)
let components m =
  let n_rows = Matrix.n_rows m in
  let parent = Array.init n_rows Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i i' =
    let ri = find i and ri' = find i' in
    if ri <> ri' then parent.(ri) <- ri'
  in
  for j = 0 to Matrix.n_cols m - 1 do
    let c = Matrix.col m j in
    for k = 1 to Array.length c - 1 do
      union c.(0) c.(k)
    done
  done;
  let groups = Hashtbl.create 16 in
  for i = n_rows - 1 downto 0 do
    let root = find i in
    let rows = try Hashtbl.find groups root with Not_found -> [] in
    Hashtbl.replace groups root (i :: rows)
  done;
  let comps =
    Hashtbl.fold
      (fun _root rows acc ->
        let in_rows = Hashtbl.create 16 in
        List.iter (fun i -> Hashtbl.replace in_rows i ()) rows;
        let cols = ref [] in
        for j = Matrix.n_cols m - 1 downto 0 do
          let c = Matrix.col m j in
          if Array.length c > 0 && Hashtbl.mem in_rows c.(0) then cols := j :: !cols
        done;
        { rows; cols = !cols } :: acc)
      groups []
  in
  List.sort
    (fun a b ->
      match (a.rows, b.rows) with
      | i :: _, i' :: _ -> Stdlib.compare i i'
      | _ -> 0)
    comps

let split m =
  List.map
    (fun { rows; cols } ->
      let keep_rows = Array.make (Matrix.n_rows m) false in
      List.iter (fun i -> keep_rows.(i) <- true) rows;
      let keep_cols = Array.make (Matrix.n_cols m) false in
      List.iter (fun j -> keep_cols.(j) <- true) cols;
      Matrix.submatrix m ~keep_rows ~keep_cols)
    (components m)
