(* Worklist-driven cyclic-core extraction on the mutable Sparse matrix.

   A pass engine applies one reduction kind per pass and rebuilds the
   whole immutable matrix after each, so a cascade of k generations
   costs O(k * nnz) even when each generation removes a handful of
   lines.  Here a deletion enqueues exactly the lines whose
   neighbourhood changed:

   - deleting a column shrinks the rows it covered -> those rows are
     re-checked for essentiality and for newly dominating other rows;
   - deleting a row shrinks the columns that covered it -> those columns
     are re-checked for being dominated (or empty).

   Soundness of the one-directional checks: a row can only *become*
   dominated by a shrinking row, and a column can only *become*
   dominated when its own row set shrinks, so re-checking the shrunk
   line from its own perspective covers every newly created dominance;
   the initial full seeding covers the static ones.

   To keep the fixpoint (and its tie-breaks) aligned with the pass
   engine the tests compare against, the phase order mirrors its
   per-pass priorities: drain the row worklist (essentials + row
   dominance) to a fixpoint, then run one batched column-dominance
   round evaluated against a frozen state — exactly like an all-at-once
   pass, where an already-marked column may still serve as a
   dominator — then return to the rows.  Gimpel's reduction fires only
   with both worklists empty, scanning live rows in index order, and
   the engine stops the instant no row is left (a pass engine sees an
   empty matrix and keeps whatever columns remain). *)

type engine = {
  s : Sparse.t;
  budget : Budget.t;
  tl : Telemetry.t;
  gimpel : bool;
  row_q : int Queue.t;
  col_q : int Queue.t;
  row_dirty : bool array;
  mutable col_dirty : bool array; (* grows with Gimpel's virtual columns *)
  mutable trace_rev : Reduce.trace_item list;
  mutable fixed : int;
  mutable next_virtual_id : int;
  mutable in_batch : bool array; (* column-dominance batch membership *)
}

let engine ?(budget = Budget.none) ?(telemetry = Telemetry.null) ?(gimpel = true) s =
  let max_id = ref (-1) in
  for j = 0 to Sparse.n_cols s - 1 do
    max_id := max !max_id (Sparse.col_id s j)
  done;
  {
    s;
    budget;
    tl = telemetry;
    gimpel;
    row_q = Queue.create ();
    col_q = Queue.create ();
    row_dirty = Array.make (Sparse.n_rows s) false;
    col_dirty = Array.make (max 4 (Sparse.n_cols s)) false;
    trace_rev = [];
    fixed = 0;
    next_virtual_id = !max_id + 1;
    in_batch = Array.make (max 4 (Sparse.n_cols s)) false;
  }

let col_flag e j =
  if j >= Array.length e.col_dirty then begin
    let a = Array.make (max (j + 1) (2 * Array.length e.col_dirty)) false in
    Array.blit e.col_dirty 0 a 0 (Array.length e.col_dirty);
    e.col_dirty <- a
  end;
  e.col_dirty

let push_row e i =
  if Sparse.row_alive e.s i && not e.row_dirty.(i) then begin
    e.row_dirty.(i) <- true;
    Queue.add i e.row_q
  end

let push_col e j =
  let a = col_flag e j in
  if Sparse.col_alive e.s j && not a.(j) then begin
    a.(j) <- true;
    Queue.add j e.col_q
  end

(* Deleting a line splices its elements out of the crossing lists but
   never clears the elements' own pointers (the mincov idiom), so
   walking a line's list — even a freshly dead one — survives deletions
   performed mid-walk.  That makes these traversals allocation-free. *)

let del_row e i =
  Sparse.delete_row e.s i;
  Sparse.iter_row e.s i (fun c -> if Sparse.col_alive e.s c then push_col e c)

let del_col e j =
  Sparse.delete_col e.s j;
  Sparse.iter_col e.s j (fun r ->
      if Sparse.row_alive e.s r then begin
        assert (Sparse.row_len e.s r > 0);
        push_row e r
      end)

(* take column [j] into the solution: delete it and every row it covers *)
let take_col e j =
  Sparse.iter_col e.s j (fun r -> if Sparse.row_alive e.s r then del_row e r);
  if Sparse.col_alive e.s j then del_col e j

let seed_all e =
  for i = 0 to Sparse.n_rows e.s - 1 do
    push_row e i
  done;
  for j = 0 to Sparse.n_cols e.s - 1 do
    push_col e j
  done

let select_essential e c =
  e.trace_rev <-
    Reduce.Essential { id = Sparse.col_id e.s c; cost = Sparse.cost e.s c }
    :: e.trace_rev;
  e.fixed <- e.fixed + Sparse.cost e.s c;
  Telemetry.incr e.tl "reduce.cols_essential";
  Telemetry.add e.tl "reduce.rows_covered_essential" (Sparse.col_len e.s c);
  take_col e c

let process_row e i =
  if Sparse.row_alive e.s i then begin
    let len = Sparse.row_len e.s i in
    assert (len > 0);
    if len = 1 then select_essential e (Sparse.first_col_of_row e.s i)
    else begin
      (* delete live supersets of row i; candidates must share its
         rarest column *)
      let jr = Sparse.rarest_col_of_row e.s i in
      Sparse.iter_col e.s jr (fun t ->
          if t <> i && Sparse.row_alive e.s t then begin
            let lt = Sparse.row_len e.s t in
            if (lt > len || (lt = len && t > i)) && Sparse.row_subset e.s i t then begin
              Telemetry.incr e.tl "reduce.rows_dominated";
              del_row e t
            end
          end)
    end
  end

(* one batched column-dominance round: evaluate every dirty column
   against the current (frozen) state, then delete the whole batch.
   Marked columns still serve as dominators during evaluation, as in an
   all-at-once dominance pass. *)
let col_phase e =
  if Array.length e.in_batch < Array.length e.col_dirty then
    e.in_batch <- Array.make (Array.length e.col_dirty) false;
  let batch = ref [] in
  let mark j =
    e.in_batch.(j) <- true;
    batch := j :: !batch
  in
  while not (Queue.is_empty e.col_q) do
    let j = Queue.pop e.col_q in
    e.col_dirty.(j) <- false;
    if Sparse.col_alive e.s j && not e.in_batch.(j) then begin
      if Sparse.col_len e.s j = 0 then mark j
      else begin
        let len_j = Sparse.col_len e.s j and cost_j = Sparse.cost e.s j in
        let ir = Sparse.shortest_row_of_col e.s j in
        let dominated = ref false in
        Sparse.iter_row e.s ir (fun k ->
            if (not !dominated) && k <> j then begin
              let cost_k = Sparse.cost e.s k in
              if
                cost_k <= cost_j
                && Sparse.col_subset e.s j k
                && (Sparse.col_len e.s k > len_j || cost_k < cost_j || k < j)
              then dominated := true
            end);
        if !dominated then mark j
      end
    end
  done;
  Telemetry.add e.tl "reduce.cols_dominated" (List.length !batch);
  List.iter
    (fun j ->
      e.in_batch.(j) <- false;
      if Sparse.col_alive e.s j then del_col e j)
    !batch

let find_gimpel e =
  let res = ref None in
  let i = ref 0 in
  let n = Sparse.n_rows e.s in
  while !res = None && !i < n do
    if Sparse.row_alive e.s !i && Sparse.row_len e.s !i = 2 then begin
      match Sparse.row_list e.s !i with
      | [ a; b ] ->
        let pick cheap dear =
          Sparse.col_len e.s cheap = 1 && Sparse.cost e.s cheap < Sparse.cost e.s dear
        in
        if pick a b then res := Some (!i, a, b)
        else if pick b a then res := Some (!i, b, a)
      | _ -> assert false
    end;
    incr i
  done;
  !res

let apply_gimpel e (i, cheap, dear) =
  let virtual_id = e.next_virtual_id in
  e.next_virtual_id <- virtual_id + 1;
  let base_cost = Sparse.cost e.s cheap in
  let vcost = Sparse.cost e.s dear - base_cost in
  let rows_a = List.filter (fun r -> r <> i) (Sparse.col_list e.s dear) in
  (* after dominance, [dear] covers some other row *)
  assert (rows_a <> []);
  e.trace_rev <-
    Reduce.Gimpel
      {
        virtual_id;
        cheap_id = Sparse.col_id e.s cheap;
        dear_id = Sparse.col_id e.s dear;
        base_cost;
      }
    :: e.trace_rev;
  e.fixed <- e.fixed + base_cost;
  Telemetry.incr e.tl "reduce.gimpel";
  (* add the virtual twin before removing [dear] so no row of [rows_a]
     transiently drops to a misleading length *)
  let v = Sparse.add_col e.s ~cost:vcost ~id:virtual_id ~rows:rows_a in
  del_row e i;
  if Sparse.col_alive e.s cheap then del_col e cheap;
  del_col e dear;
  push_col e v;
  (* any column sharing a row with v may now be dominated by it *)
  List.iter (fun r -> Sparse.iter_row e.s r (fun k -> push_col e k)) rows_a

(* A budget trip stops the fixpoint mid-drain.  The matrix left behind is
   a partially reduced — but exactly equivalent — covering problem: every
   reduction already applied preserves at least one optimal solution, and
   stopping merely leaves further reductions undone.  The trace and
   fixed_cost stay consistent with the survivors. *)
let run e =
  let running = ref true in
  let stop () = Budget.tick e.budget Budget.Explicit_reduce in
  while !running && Sparse.rows_alive e.s > 0 do
    while !running && (not (Queue.is_empty e.row_q)) && Sparse.rows_alive e.s > 0 do
      if stop () then running := false
      else begin
        let i = Queue.pop e.row_q in
        e.row_dirty.(i) <- false;
        process_row e i
      end
    done;
    if Sparse.rows_alive e.s = 0 then running := false
    else if !running then begin
      if not (Queue.is_empty e.col_q) then begin
        if stop () then running := false else col_phase e
      end
      else if e.gimpel then begin
        if stop () then running := false
        else
          match find_gimpel e with
          | Some g -> apply_gimpel e g
          | None -> running := false
      end
      else running := false
    end
  done

let cyclic_core ?(budget = Budget.none) ?(telemetry = Telemetry.null) ?(gimpel = true)
    ?(dense_threshold = Dense.default_threshold) m =
  if Matrix.n_rows m = 0 then { Reduce.core = m; trace = []; fixed_cost = 0 }
  else begin
    (* adaptive dispatch: small dense inputs get a bitset mirror so the
       dominance subset tests run word-parallel; results are identical *)
    let dense = Dense.eligible ~threshold:dense_threshold m in
    let e = engine ~budget ~telemetry ~gimpel (Sparse.of_matrix ~dense m) in
    seed_all e;
    run e;
    let core =
      (* already a cyclic core: hand the input back instead of
         rebuilding an identical copy *)
      if
        Sparse.rows_alive e.s = Matrix.n_rows m
        && Sparse.cols_alive e.s = Matrix.n_cols m
        && Sparse.n_cols e.s = Matrix.n_cols m
      then m
      else Sparse.to_matrix e.s
    in
    { Reduce.core; trace = List.rev e.trace_rev; fixed_cost = e.fixed }
  end
