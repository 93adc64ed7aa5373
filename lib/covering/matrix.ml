type t = {
  n_rows : int;
  n_cols : int;
  rows : int array array;
  cols : int array array;
  cost : int array;
  row_ids : int array;
  col_ids : int array;
  id_index : (int, int) Hashtbl.t Lazy.t;
  drop_order : int array Atomic.t;
}

(* id -> column index, built on first use; col_ids is never mutated after
   construction so the table stays valid for the lifetime of the matrix *)
let id_index_of col_ids =
  lazy
    (let tbl = Hashtbl.create (Array.length col_ids) in
     Array.iteri (fun j id -> Hashtbl.replace tbl id j) col_ids;
     tbl)

let cols_of_rows n_cols rows =
  let counts = Array.make n_cols 0 in
  Array.iter (fun r -> Array.iter (fun j -> counts.(j) <- counts.(j) + 1) r) rows;
  let cols = Array.init n_cols (fun j -> Array.make counts.(j) 0) in
  let fill = Array.make n_cols 0 in
  Array.iteri
    (fun i r ->
      Array.iter
        (fun j ->
          cols.(j).(fill.(j)) <- i;
          fill.(j) <- fill.(j) + 1)
        r)
    rows;
  cols

let create ?cost ~n_cols row_lists =
  if n_cols < 0 then invalid_arg "Matrix.create: negative column count";
  let cost =
    match cost with
    | Some c ->
      if Array.length c <> n_cols then invalid_arg "Matrix.create: cost length mismatch";
      Array.iter (fun x -> if x <= 0 then invalid_arg "Matrix.create: non-positive cost") c;
      Array.copy c
    | None -> Array.make n_cols 1
  in
  let rows =
    Array.of_list
      (List.map
         (fun r ->
           let a = Array.of_list (List.sort_uniq Stdlib.compare r) in
           if Array.length a <> List.length r then
             invalid_arg "Matrix.create: duplicate column in row";
           if Array.length a = 0 then invalid_arg "Matrix.create: empty row";
           Array.iter
             (fun j -> if j < 0 || j >= n_cols then invalid_arg "Matrix.create: column out of range")
             a;
           a)
         row_lists)
  in
  let n_rows = Array.length rows in
  let col_ids = Array.init n_cols Fun.id in
  {
    n_rows;
    n_cols;
    rows;
    cols = cols_of_rows n_cols rows;
    cost;
    row_ids = Array.init n_rows Fun.id;
    col_ids;
    id_index = id_index_of col_ids;
    drop_order = Atomic.make [||];
  }

let of_parts ~n_cols ~rows ~cost ~row_ids ~col_ids =
  if
    Array.length cost <> n_cols
    || Array.length col_ids <> n_cols
    || Array.length row_ids <> Array.length rows
  then invalid_arg "Matrix.of_parts: length mismatch";
  {
    n_rows = Array.length rows;
    n_cols;
    rows;
    cols = cols_of_rows n_cols rows;
    cost;
    row_ids;
    col_ids;
    id_index = id_index_of col_ids;
    drop_order = Atomic.make [||];
  }

let of_sets ?cost ~n_cols zdd =
  create ?cost ~n_cols (Zdd.to_sets zdd)

let to_zdd m = Zdd.of_arrays m.rows

(* The order [of_sets] decodes a rows family in: [Zdd.to_sets] takes a
   node's hi branch (sets with its element) before its lo branch (sets
   with larger elements only), and the empty suffix ends a lo chain.  So
   rows compare element by element, the smaller element first, and a
   proper prefix sorts after its extensions. *)
let compare_decoded (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la then if i = lb then 0 else 1
    else if i = lb then -1
    else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
    else go (i + 1)
  in
  go 0

let canonical m =
  let sorted = Array.copy m.rows in
  (* [compare_decoded] is 0 only on equal rows, so every sort gives the
     same array; the merge sort takes half the heap sort's time *)
  Array.stable_sort compare_decoded sorted;
  let n = Array.length sorted in
  if n > 0 && Array.length sorted.(n - 1) = 0 then
    invalid_arg "Matrix.canonical: empty row";
  let rows =
    Array.fold_right
      (fun r acc ->
        match acc with
        | r' :: _ when compare_decoded r r' = 0 -> acc
        | _ -> r :: acc)
      sorted []
    |> Array.of_list
  in
  of_parts ~n_cols:m.n_cols ~rows ~cost:m.cost
    ~row_ids:(Array.init (Array.length rows) Fun.id)
    ~col_ids:m.col_ids

let n_rows m = m.n_rows
let n_cols m = m.n_cols
let row m i = m.rows.(i)
let col m j = m.cols.(j)
let cost m j = m.cost.(j)
let row_id m i = m.row_ids.(i)
let col_id m j = m.col_ids.(j)

let col_index_of_id m id = Hashtbl.find_opt (Lazy.force m.id_index) id

let is_empty m = m.n_rows = 0
let nnz m = Array.fold_left (fun acc r -> acc + Array.length r) 0 m.rows

let density m =
  if m.n_rows = 0 || m.n_cols = 0 then 0.
  else float_of_int (nnz m) /. (float_of_int m.n_rows *. float_of_int m.n_cols)

let submatrix m ~keep_rows ~keep_cols =
  if Array.length keep_rows <> m.n_rows || Array.length keep_cols <> m.n_cols then
    invalid_arg "Matrix.submatrix: mask length mismatch";
  (* new index of each kept column *)
  let col_index = Array.make m.n_cols (-1) in
  let n_cols' = ref 0 in
  Array.iteri
    (fun j keep ->
      if keep then begin
        col_index.(j) <- !n_cols';
        incr n_cols'
      end)
    keep_cols;
  let rows' = ref [] and row_ids' = ref [] in
  for i = m.n_rows - 1 downto 0 do
    if keep_rows.(i) then begin
      let r =
        Array.of_list
          (List.filter_map
             (fun j -> if keep_cols.(j) then Some col_index.(j) else None)
             (Array.to_list m.rows.(i)))
      in
      if Array.length r = 0 then
        invalid_arg "Matrix.submatrix: kept row loses every column";
      rows' := r :: !rows';
      row_ids' := m.row_ids.(i) :: !row_ids'
    end
  done;
  let rows = Array.of_list !rows' in
  let cost' = Array.make !n_cols' 0 and col_ids' = Array.make !n_cols' 0 in
  Array.iteri
    (fun j keep ->
      if keep then begin
        cost'.(col_index.(j)) <- m.cost.(j);
        col_ids'.(col_index.(j)) <- m.col_ids.(j)
      end)
    keep_cols;
  let col_ids = col_ids' in
  {
    n_rows = Array.length rows;
    n_cols = !n_cols';
    rows;
    cols = cols_of_rows !n_cols' rows;
    cost = cost';
    row_ids = Array.of_list !row_ids';
    col_ids;
    id_index = id_index_of col_ids;
    drop_order = Atomic.make [||];
  }

let add_virtual_column m ~cost ~id ~rows =
  if cost <= 0 then invalid_arg "Matrix.add_virtual_column: non-positive cost";
  let rows = List.sort_uniq Stdlib.compare rows in
  List.iter
    (fun i -> if i < 0 || i >= m.n_rows then invalid_arg "Matrix.add_virtual_column: row out of range")
    rows;
  let j = m.n_cols in
  let member = Array.make m.n_rows false in
  List.iter (fun i -> member.(i) <- true) rows;
  let rows_arr =
    Array.mapi (fun i r -> if member.(i) then Array.append r [| j |] else r) m.rows
  in
  let col_ids = Array.append m.col_ids [| id |] in
  {
    n_rows = m.n_rows;
    n_cols = m.n_cols + 1;
    rows = rows_arr;
    cols = cols_of_rows (m.n_cols + 1) rows_arr;
    cost = Array.append m.cost [| cost |];
    row_ids = m.row_ids;
    col_ids;
    id_index = id_index_of col_ids;
    drop_order = Atomic.make [||];
  }

let covers m cols =
  let hit = Array.make m.n_rows false in
  List.iter
    (fun j ->
      if j < 0 || j >= m.n_cols then invalid_arg "Matrix.covers: column out of range";
      Array.iter (fun i -> hit.(i) <- true) m.cols.(j))
    cols;
  Array.for_all Fun.id hit

let cost_of m cols = List.fold_left (fun acc j -> acc + m.cost.(j)) 0 cols

let cost_of_ids ~original ids =
  List.fold_left
    (fun acc id ->
      match col_index_of_id original id with
      | Some j -> acc + original.cost.(j)
      | None -> invalid_arg "Matrix.cost_of_ids: unknown identifier")
    0 ids

let uncovered m cols =
  let hit = Array.make m.n_rows false in
  List.iter (fun j -> Array.iter (fun i -> hit.(i) <- true) m.cols.(j)) cols;
  let acc = ref [] in
  for i = m.n_rows - 1 downto 0 do
    if not hit.(i) then acc := i :: !acc
  done;
  !acc

(* [irredundant]'s drop order: columns by cost descending, ties by index
   descending.  Sorted on the first call and kept with the matrix; [[||]]
   until then, which is also the order of a matrix without columns.  An
   atomic rather than a lazy, so domains sharing a matrix at worst sort
   the same order twice instead of racing on a lazy. *)
let drop_order m =
  let order = Atomic.get m.drop_order in
  if Array.length order = m.n_cols then order
  else begin
    let order = Array.init m.n_cols (fun k -> m.n_cols - 1 - k) in
    Array.stable_sort (fun a b -> Int.compare m.cost.(b) m.cost.(a)) order;
    Atomic.set m.drop_order order;
    order
  end

let prune m ~chosen ~times =
  if Array.length chosen <> m.n_cols || Array.length times <> m.n_rows then
    invalid_arg "Matrix.prune: buffer length mismatch";
  (* [times.(i)]: how many chosen columns cover row [i] *)
  Array.fill times 0 m.n_rows 0;
  for j = 0 to m.n_cols - 1 do
    if chosen.(j) then begin
      let col = m.cols.(j) in
      for k = 0 to Array.length col - 1 do
        times.(col.(k)) <- times.(col.(k)) + 1
      done
    end
  done;
  (* walk the drop order once: a chosen column whose rows are all
     covered twice is redundant and leaves *)
  let order = drop_order m in
  let cost = ref 0 in
  for o = 0 to Array.length order - 1 do
    let j = order.(o) in
    if chosen.(j) then begin
      let col = m.cols.(j) in
      let k = ref 0 in
      while !k < Array.length col && times.(col.(!k)) >= 2 do
        incr k
      done;
      if !k = Array.length col then begin
        chosen.(j) <- false;
        for k = 0 to Array.length col - 1 do
          times.(col.(k)) <- times.(col.(k)) - 1
        done
      end
      else cost := !cost + m.cost.(j)
    end
  done;
  !cost

let irredundant m sol =
  if not (covers m sol) then invalid_arg "Matrix.irredundant: not a cover";
  let chosen = Array.make m.n_cols false in
  List.iter (fun j -> chosen.(j) <- true) sol;
  ignore (prune m ~chosen ~times:(Array.make m.n_rows 0));
  let kept = ref [] in
  for j = m.n_cols - 1 downto 0 do
    if chosen.(j) then kept := j :: !kept
  done;
  !kept

let transpose_check m =
  assert (Array.length m.rows = m.n_rows);
  assert (Array.length m.cols = m.n_cols);
  Array.iteri
    (fun i r ->
      Array.iter
        (fun j -> assert (Array.exists (fun i' -> i' = i) m.cols.(j)))
        r;
      (* sortedness *)
      Array.iteri (fun k j -> if k > 0 then assert (r.(k - 1) < j)) r)
    m.rows;
  Array.iteri
    (fun j c -> Array.iter (fun i -> assert (Array.exists (fun j' -> j' = j) m.rows.(i))) c)
    m.cols

let pp ppf m =
  let ints = Fmt.(hbox (list ~sep:(any " ") int)) in
  Fmt.pf ppf "@[<v>covering matrix %dx%d (nnz %d)@," m.n_rows m.n_cols (nnz m);
  Array.iteri
    (fun i r -> Fmt.pf ppf "row %d (id %d): %a@," i m.row_ids.(i) ints (Array.to_list r))
    m.rows;
  Fmt.pf ppf "costs: %a@]" ints (Array.to_list m.cost)
