(* Doubly-linked sparse matrix in the espresso mincov tradition: every
   nonzero is on a circular row list and a circular column list, each
   anchored by a sentinel, so line deletion is a pointer splice per
   element. *)

type elem = {
  e_row : int;
  e_col : int;
  mutable left : elem;
  mutable right : elem;
  mutable up : elem;
  mutable down : elem;
}

type t = {
  n_rows : int;
  mutable n_cols : int;  (* used column slots, dead ones included *)
  mutable rows_alive : int;
  mutable cols_alive : int;
  row_head : elem array;
  mutable col_head : elem array;
  row_len : int array;
  mutable col_len : int array;
  row_ok : bool array;
  mutable col_ok : bool array;
  mutable cost : int array;
  row_ids : int array;
  mutable col_ids : int array;
  mirror : Dense.Mut.t option;
      (* word-parallel bitset mirror for the dominance subset tests;
         kept in sync by every mutation *)
}

let sentinel row col =
  let rec h = { e_row = row; e_col = col; left = h; right = h; up = h; down = h } in
  h

let link_row_tail h e =
  e.left <- h.left;
  e.right <- h;
  h.left.right <- e;
  h.left <- e

let link_col_tail h e =
  e.up <- h.up;
  e.down <- h;
  h.up.down <- e;
  h.up <- e

let of_matrix ?(dense = false) m =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  let t =
    {
      n_rows;
      n_cols;
      rows_alive = n_rows;
      cols_alive = n_cols;
      row_head = Array.init n_rows (fun i -> sentinel i (-1));
      col_head = Array.init n_cols (fun j -> sentinel (-1) j);
      row_len = Array.make n_rows 0;
      col_len = Array.make n_cols 0;
      row_ok = Array.make n_rows true;
      col_ok = Array.make n_cols true;
      cost = Array.init n_cols (Matrix.cost m);
      row_ids = Array.init n_rows (Matrix.row_id m);
      col_ids = Array.init n_cols (Matrix.col_id m);
      mirror = (if dense then Some (Dense.Mut.create ~n_rows ~n_cols) else None);
    }
  in
  for i = 0 to n_rows - 1 do
    Array.iter
      (fun j ->
        let rec e = { e_row = i; e_col = j; left = e; right = e; up = e; down = e } in
        link_row_tail t.row_head.(i) e;
        link_col_tail t.col_head.(j) e;
        t.row_len.(i) <- t.row_len.(i) + 1;
        t.col_len.(j) <- t.col_len.(j) + 1)
      (Matrix.row m i)
  done;
  (match t.mirror with
  | None -> ()
  | Some d ->
    for i = 0 to n_rows - 1 do
      Array.iter (fun j -> Dense.Mut.set d i j) (Matrix.row m i)
    done);
  t

let has_mirror t = t.mirror <> None

(* ---- accessors ---- *)

let n_rows t = t.n_rows
let n_cols t = t.n_cols
let rows_alive t = t.rows_alive
let cols_alive t = t.cols_alive
let row_alive t i = i < t.n_rows && t.row_ok.(i)
let col_alive t j = j < t.n_cols && t.col_ok.(j)
let row_len t i = t.row_len.(i)
let col_len t j = t.col_len.(j)
let cost t j = t.cost.(j)
let row_id t i = t.row_ids.(i)
let col_id t j = t.col_ids.(j)

let iter_row t i f =
  let h = t.row_head.(i) in
  let rec go e =
    if e != h then begin
      f e.e_col;
      go e.right
    end
  in
  go h.right

let iter_col t j f =
  let h = t.col_head.(j) in
  let rec go e =
    if e != h then begin
      f e.e_row;
      go e.down
    end
  in
  go h.down

let row_list t i =
  let acc = ref [] in
  iter_row t i (fun j -> acc := j :: !acc);
  List.rev !acc

let col_list t j =
  let acc = ref [] in
  iter_col t j (fun i -> acc := i :: !acc);
  List.rev !acc

let first_col_of_row t i =
  let h = t.row_head.(i) in
  if h.right == h then invalid_arg "Sparse.first_col_of_row: empty row";
  h.right.e_col

let rarest_col_of_row t i =
  let h = t.row_head.(i) in
  if h.right == h then invalid_arg "Sparse.rarest_col_of_row: empty row";
  let best = ref h.right.e_col in
  iter_row t i (fun j -> if t.col_len.(j) < t.col_len.(!best) then best := j);
  !best

let shortest_row_of_col t j =
  let h = t.col_head.(j) in
  if h.down == h then invalid_arg "Sparse.shortest_row_of_col: empty column";
  let best = ref h.down.e_row in
  iter_col t j (fun i -> if t.row_len.(i) < t.row_len.(!best) then best := i);
  !best

(* Subset tests dispatch to the bitset mirror when one is attached: a
   word-wise [a AND NOT b = 0] scan instead of the element merge walk.
   The O(1) length precheck stays in front of both. *)

let row_subset t i i' =
  t.row_len.(i) <= t.row_len.(i')
  &&
  match t.mirror with
  | Some d -> Dense.Mut.row_subset d i i'
  | None ->
    let h = t.row_head.(i) and h' = t.row_head.(i') in
    let rec go e e' =
      if e == h then true
      else if e' == h' then false
      else if e.e_col = e'.e_col then go e.right e'.right
      else if e.e_col > e'.e_col then go e e'.right
      else false
    in
    go h.right h'.right

let col_subset t j j' =
  t.col_len.(j) <= t.col_len.(j')
  &&
  match t.mirror with
  | Some d -> Dense.Mut.col_subset d j j'
  | None ->
    let h = t.col_head.(j) and h' = t.col_head.(j') in
    let rec go e e' =
      if e == h then true
      else if e' == h' then false
      else if e.e_row = e'.e_row then go e.down e'.down
      else if e.e_row > e'.e_row then go e e'.down
      else false
    in
    go h.down h'.down

(* ---- mutation ---- *)

let delete_row t i =
  if not (row_alive t i) then invalid_arg "Sparse.delete_row: dead row";
  t.row_ok.(i) <- false;
  t.rows_alive <- t.rows_alive - 1;
  let h = t.row_head.(i) in
  let rec go e =
    if e != h then begin
      e.up.down <- e.down;
      e.down.up <- e.up;
      t.col_len.(e.e_col) <- t.col_len.(e.e_col) - 1;
      (match t.mirror with
      | Some d -> Dense.Mut.clear_in_col d i e.e_col
      | None -> ());
      go e.right
    end
  in
  go h.right

let delete_col t j =
  if not (col_alive t j) then invalid_arg "Sparse.delete_col: dead column";
  t.col_ok.(j) <- false;
  t.cols_alive <- t.cols_alive - 1;
  let h = t.col_head.(j) in
  let rec go e =
    if e != h then begin
      e.left.right <- e.right;
      e.right.left <- e.left;
      t.row_len.(e.e_row) <- t.row_len.(e.e_row) - 1;
      (match t.mirror with
      | Some d -> Dense.Mut.clear_in_row d e.e_row j
      | None -> ());
      go e.down
    end
  in
  go h.down

let grow_cols t =
  let cap = Array.length t.col_head in
  if t.n_cols >= cap then begin
    let cap' = (2 * cap) + 4 in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.col_len <- extend t.col_len 0;
    t.col_ok <- extend t.col_ok false;
    t.cost <- extend t.cost 0;
    t.col_ids <- extend t.col_ids 0;
    let heads = Array.init cap' (fun j -> sentinel (-1) j) in
    Array.blit t.col_head 0 heads 0 cap;
    t.col_head <- heads
  end

let add_col t ~cost ~id ~rows =
  if cost <= 0 then invalid_arg "Sparse.add_col: non-positive cost";
  grow_cols t;
  let j = t.n_cols in
  t.n_cols <- t.n_cols + 1;
  t.cols_alive <- t.cols_alive + 1;
  t.col_head.(j) <- sentinel (-1) j;
  t.col_len.(j) <- 0;
  t.col_ok.(j) <- true;
  t.cost.(j) <- cost;
  t.col_ids.(j) <- id;
  (match t.mirror with Some d -> Dense.Mut.ensure_col d j | None -> ());
  let prev = ref (-1) in
  List.iter
    (fun i ->
      if i <= !prev then invalid_arg "Sparse.add_col: rows not strictly ascending";
      prev := i;
      if not (row_alive t i) then invalid_arg "Sparse.add_col: dead row";
      let rec e = { e_row = i; e_col = j; left = e; right = e; up = e; down = e } in
      (* j exceeds every existing column index, so the row tail keeps the
         row list sorted *)
      link_row_tail t.row_head.(i) e;
      link_col_tail t.col_head.(j) e;
      t.row_len.(i) <- t.row_len.(i) + 1;
      t.col_len.(j) <- t.col_len.(j) + 1;
      match t.mirror with Some d -> Dense.Mut.set d i j | None -> ())
    rows;
  j

(* ---- conversion ---- *)

let to_matrix t =
  let col_index = Array.make (max 1 t.n_cols) (-1) in
  let n_cols' = ref 0 in
  for j = 0 to t.n_cols - 1 do
    if t.col_ok.(j) then begin
      col_index.(j) <- !n_cols';
      incr n_cols'
    end
  done;
  let rows = ref [] and row_ids = ref [] in
  for i = t.n_rows - 1 downto 0 do
    if t.row_ok.(i) then begin
      let r = Array.make t.row_len.(i) 0 in
      let k = ref 0 in
      iter_row t i (fun j ->
          r.(!k) <- col_index.(j);
          incr k);
      rows := r :: !rows;
      row_ids := t.row_ids.(i) :: !row_ids
    end
  done;
  let cost = Array.make !n_cols' 0 and col_ids = Array.make !n_cols' 0 in
  for j = 0 to t.n_cols - 1 do
    if t.col_ok.(j) then begin
      cost.(col_index.(j)) <- t.cost.(j);
      col_ids.(col_index.(j)) <- t.col_ids.(j)
    end
  done;
  Matrix.of_parts ~n_cols:!n_cols' ~rows:(Array.of_list !rows) ~cost
    ~row_ids:(Array.of_list !row_ids) ~col_ids

(* ---- invariants ---- *)

let check t =
  let live_rows = ref 0 and live_cols = ref 0 in
  let nnz_rows = ref 0 and nnz_cols = ref 0 in
  for i = 0 to t.n_rows - 1 do
    if t.row_ok.(i) then begin
      incr live_rows;
      let h = t.row_head.(i) in
      let count = ref 0 and prev = ref (-1) in
      let rec go e =
        if e != h then begin
          assert (e.e_row = i);
          assert (e.e_col > !prev);
          prev := e.e_col;
          assert (t.col_ok.(e.e_col));
          assert (e.right.left == e && e.left.right == e);
          assert (e.down.up == e && e.up.down == e);
          incr count;
          go e.right
        end
      in
      go h.right;
      assert (!count = t.row_len.(i));
      nnz_rows := !nnz_rows + !count
    end
  done;
  for j = 0 to t.n_cols - 1 do
    if t.col_ok.(j) then begin
      incr live_cols;
      assert (t.cost.(j) > 0);
      let h = t.col_head.(j) in
      let count = ref 0 and prev = ref (-1) in
      let rec go e =
        if e != h then begin
          assert (e.e_col = j);
          assert (e.e_row > !prev);
          prev := e.e_row;
          assert (t.row_ok.(e.e_row));
          incr count;
          go e.down
        end
      in
      go h.down;
      assert (!count = t.col_len.(j));
      nnz_cols := !nnz_cols + !count
    end
  done;
  assert (!live_rows = t.rows_alive);
  assert (!live_cols = t.cols_alive);
  assert (!nnz_rows = !nnz_cols);
  (* the bitset mirror must agree with the element lists, bit for bit,
     on every live line (dead lines' bits are unspecified) *)
  match t.mirror with
  | None -> ()
  | Some d ->
    for i = 0 to t.n_rows - 1 do
      if t.row_ok.(i) then begin
        let present = Array.make (max 1 t.n_cols) false in
        iter_row t i (fun j -> present.(j) <- true);
        for j = 0 to t.n_cols - 1 do
          assert (Dense.Mut.row_mem d i j = present.(j))
        done
      end
    done;
    for j = 0 to t.n_cols - 1 do
      if t.col_ok.(j) then begin
        let present = Array.make (max 1 t.n_rows) false in
        iter_col t j (fun i -> present.(i) <- true);
        for i = 0 to t.n_rows - 1 do
          assert (Dense.Mut.col_mem d j i = present.(i))
        done
      end
    done
