(* Packed bitset mirror of a covering matrix, DenseQMC-style: every row
   is a bitset over columns and every column a bitset over rows, both in
   one flat [int array] (row-major and column-major mirrors), so the hot
   loops of the cyclic-core engines — dominance subset tests, greedy
   fresh-row counts, the subgradient's covered-count sweep — become a
   handful of word operations instead of a pointer or index walk per
   nonzero.

   Words are native OCaml ints, [Sys.int_size] bits each (63 on 64-bit),
   so no boxing and no Int64 dispatch.  A set bit 62 makes the word
   negative; all the kernels below use only [land]/[lor]/[lxor]/[lsr]
   (logical, sign-free) plus the two's-complement lowest-bit trick
   [w land (-w)], which is correct for every bit pattern including the
   min-int one. *)

let word_bits = Sys.int_size

(* Popcount via a 16-bit lookup table: the SWAR constants do not fit the
   63-bit int literal range, and four byte-table lookups beat a branchy
   loop by a wide margin.  The top chunk [x lsr 48] is at most 15 bits
   wide, so it indexes the same table.  Each entry extends the one for
   [i lsr 1] by the dropped low bit, so the table fills in one pass at
   process start. *)
let pop16 =
  let t = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.unsafe_set t i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let[@inline] popcount x =
  Char.code (Bytes.unsafe_get pop16 (x land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((x lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((x lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 (x lsr 48))

let words_for n = (n + word_bits - 1) / word_bits

(* Global accounting for the dense.components / dense.words telemetry
   gauges: how many dense mirrors this process has built and how many
   words they hold.  Atomics because mirrors are built on worker
   domains during parallel solves. *)
let built_total = Atomic.make 0
let words_total = Atomic.make 0

let note_alloc words =
  Atomic.incr built_total;
  ignore (Atomic.fetch_and_add words_total words)

type t = {
  matrix : Matrix.t;
  n_rows : int;
  n_cols : int;
  rw : int;  (* words per row bitset *)
  cw : int;  (* words per column bitset *)
  rowb : int array;  (* n_rows * rw, row-major: bit j of row i *)
  colb : int array;  (* n_cols * cw, column-major: bit i of column j *)
}

let matrix t = t.matrix
let words t = Array.length t.rowb + Array.length t.colb

let of_matrix m =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  let rw = words_for n_cols and cw = words_for n_rows in
  let rowb = Array.make (n_rows * rw) 0 in
  let colb = Array.make (n_cols * cw) 0 in
  for i = 0 to n_rows - 1 do
    let base = i * rw in
    Array.iter
      (fun j ->
        rowb.(base + (j / word_bits)) <-
          rowb.(base + (j / word_bits)) lor (1 lsl (j mod word_bits));
        let k = (j * cw) + (i / word_bits) in
        colb.(k) <- colb.(k) lor (1 lsl (i mod word_bits)))
      (Matrix.row m i)
  done;
  note_alloc (Array.length rowb + Array.length colb);
  { matrix = m; n_rows; n_cols; rw; cw; rowb; colb }

(* The dispatch policy: dense pays off only when a line's element walk is
   longer than its word scan, i.e. above ~1/word_bits density, and the
   two mirrors must stay small (≈ 2·cells/word_bits words).  [threshold]
   caps rows·cols; 0 disables dense entirely. *)
let default_threshold = 1 lsl 20
let min_density = 1.0 /. float_of_int word_bits

let eligible ?(threshold = default_threshold) m =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  threshold > 0 && n_rows > 0 && n_cols > 0
  && n_rows <= threshold / n_cols
  && Matrix.density m >= min_density

let attach ?threshold m = if eligible ?threshold m then Some (of_matrix m) else None

(* ---- membership ---- *)

let row_mem t i j =
  t.rowb.((i * t.rw) + (j / word_bits)) land (1 lsl (j mod word_bits)) <> 0

let col_mem t j i =
  t.colb.((j * t.cw) + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0

(* ---- dominance subset tests ---- *)

let subset_words buf a b len =
  let k = ref 0 and ok = ref true in
  while !ok && !k < len do
    if Array.unsafe_get buf (a + !k) land lnot (Array.unsafe_get buf (b + !k)) <> 0
    then ok := false;
    incr k
  done;
  !ok

let row_subset t i i' = subset_words t.rowb (i * t.rw) (i' * t.rw) t.rw
let col_subset t j j' = subset_words t.colb (j * t.cw) (j' * t.cw) t.cw

(* ---- row/column scratch sets ---- *)

let make_row_set t = Array.make t.cw 0 (* a set of rows *)
let make_col_set t = Array.make t.rw 0 (* a set of columns *)
let set_bit set idx = set.(idx / word_bits) <- set.(idx / word_bits) lor (1 lsl (idx mod word_bits))
let mem_bit set idx = set.(idx / word_bits) land (1 lsl (idx mod word_bits)) <> 0

(* ---- greedy kernels ---- *)

(* rows of column [j] not in [covered] *)
let col_fresh t j ~covered =
  let base = j * t.cw in
  let acc = ref 0 in
  for k = 0 to t.cw - 1 do
    acc :=
      !acc
      + popcount
          (Array.unsafe_get t.colb (base + k)
          land lnot (Array.unsafe_get covered k))
  done;
  !acc

(* Σ w.(i) over those rows in the same ascending order, without a
   closure, so the float accumulator stays unboxed *)
let fresh_sum t j ~covered w =
  let base = j * t.cw in
  let acc = ref 0. in
  for k = 0 to t.cw - 1 do
    let x = ref (t.colb.(base + k) land lnot covered.(k)) in
    while !x <> 0 do
      let b = !x land (- !x) in
      acc := !acc +. w.((k * word_bits) + popcount (b - 1));
      x := !x lxor b
    done
  done;
  !acc

(* fold column [j] into [covered]; returns how many rows were fresh *)
let cover_col t j ~covered =
  let base = j * t.cw in
  let fresh = ref 0 in
  for k = 0 to t.cw - 1 do
    let w = Array.unsafe_get t.colb (base + k) in
    let nw = w land lnot (Array.unsafe_get covered k) in
    if nw <> 0 then begin
      fresh := !fresh + popcount nw;
      Array.unsafe_set covered k (Array.unsafe_get covered k lor w)
    end
  done;
  !fresh

(* ---- subgradient kernel ---- *)

(* |row i ∩ cols|: the per-row covered count of the reduced-cost sweep *)
let row_hits t i ~cols =
  let base = i * t.rw in
  let acc = ref 0 in
  for k = 0 to t.rw - 1 do
    acc :=
      !acc
      + popcount (Array.unsafe_get t.rowb (base + k) land Array.unsafe_get cols k)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Mutable mirror for the Sparse reduction substrate                  *)
(* ------------------------------------------------------------------ *)

(* Sparse needs the same two bitset planes but kept in sync through
   deletions and Gimpel column appends.  Row count is
   fixed for the lifetime of a Sparse matrix; columns can grow, so the
   row-bitset stride [rw] and the column-plane capacity are mutable.

   Liveness is not tracked here: Sparse guarantees that subset tests
   only ever compare live lines, and deletions eagerly clear the dead
   line's bits from the surviving plane (delete_row clears its bit from
   every column; delete_col from every row), so the planes always hold
   exactly the live-line incidences those tests need. *)
module Mut = struct
  type t = {
    n_rows : int;
    cw : int;
    mutable rw : int;
    mutable cap : int; (* column slots allocated in colb *)
    mutable rowb : int array;
    mutable colb : int array;
  }

  let create ~n_rows ~n_cols =
    let cw = words_for n_rows in
    let rw = max 1 (words_for n_cols) in
    let cap = max 1 n_cols in
    let t =
      { n_rows; cw; rw; cap; rowb = Array.make (n_rows * rw) 0;
        colb = Array.make (cap * cw) 0 }
    in
    note_alloc (Array.length t.rowb + Array.length t.colb);
    t

  let words t = Array.length t.rowb + Array.length t.colb

  let set t i j =
    let r = (i * t.rw) + (j / word_bits) in
    t.rowb.(r) <- t.rowb.(r) lor (1 lsl (j mod word_bits));
    let c = (j * t.cw) + (i / word_bits) in
    t.colb.(c) <- t.colb.(c) lor (1 lsl (i mod word_bits))

  (* directional updates on element (i, j): deleting a row erases its
     bit from the column plane but keeps its own row bitset (Sparse
     likewise keeps the dead row's element list), and symmetrically for
     columns *)
  let clear_in_col t i j =
    let c = (j * t.cw) + (i / word_bits) in
    t.colb.(c) <- t.colb.(c) land lnot (1 lsl (i mod word_bits))

  let clear_in_row t i j =
    let r = (i * t.rw) + (j / word_bits) in
    t.rowb.(r) <- t.rowb.(r) land lnot (1 lsl (j mod word_bits))

  (* make column slot [j] usable: grow the column plane and widen the
     row bitsets if needed.  Sparse never reuses a column index, so the
     slot's bits are still zero. *)
  let ensure_col t j =
    if j >= t.cap then begin
      let cap' = max (j + 1) (2 * t.cap) in
      let colb' = Array.make (cap' * t.cw) 0 in
      Array.blit t.colb 0 colb' 0 (Array.length t.colb);
      t.colb <- colb';
      t.cap <- cap'
    end;
    if j / word_bits >= t.rw then begin
      let rw' = max ((j / word_bits) + 1) (2 * t.rw) in
      let rowb' = Array.make (t.n_rows * rw') 0 in
      for i = 0 to t.n_rows - 1 do
        Array.blit t.rowb (i * t.rw) rowb' (i * rw') t.rw
      done;
      t.rowb <- rowb';
      t.rw <- rw'
    end

  let row_subset t i i' = subset_words t.rowb (i * t.rw) (i' * t.rw) t.rw
  let col_subset t j j' = subset_words t.colb (j * t.cw) (j' * t.cw) t.cw

  let row_mem t i j =
    t.rowb.((i * t.rw) + (j / word_bits)) land (1 lsl (j mod word_bits)) <> 0

  let col_mem t j i =
    t.colb.((j * t.cw) + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0
end
