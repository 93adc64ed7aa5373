(* Differential tests for the dense bit-slice kernels: every Dense
   kernel is an exact integer/word replacement for a sparse loop, so the
   dense and sparse paths must agree bit for bit — on word-level unit
   properties, on boundary widths around the 63-bit word size, and on
   the registry suites end to end (reductions, greedy covers,
   subgradient bounds, full solves). *)

open Covering

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* deterministic word generator: OCaml's Random gives 30 random bits per
   draw, so splice three draws into a full-width word *)
let word_rng = Random.State.make [| 0xD15E; 42 |]

let random_word () =
  let b () = Random.State.bits word_rng in
  (b () lsl 40) lxor (b () lsl 20) lxor b ()

let naive_popcount x =
  let n = ref 0 in
  for k = 0 to Dense.word_bits - 1 do
    if x land (1 lsl k) <> 0 then incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Word-level unit properties                                          *)
(* ------------------------------------------------------------------ *)

let test_popcount_random () =
  for _ = 1 to 2000 do
    let w = random_word () in
    check_int (Printf.sprintf "popcount %x" w) (naive_popcount w)
      (Dense.popcount w)
  done

let test_popcount_edges () =
  check_int "zero" 0 (Dense.popcount 0);
  check_int "one" 1 (Dense.popcount 1);
  check_int "all bits" Dense.word_bits (Dense.popcount (-1));
  check_int "max_int" (Dense.word_bits - 1) (Dense.popcount max_int);
  (* the top usable bit makes the word negative; popcount must not care *)
  check_int "top bit" 1 (Dense.popcount (1 lsl (Dense.word_bits - 1)));
  check_int "min_int" 1 (Dense.popcount min_int)

(* every entry of the 16-bit table behind [popcount], against the
   shift-and-add bit loop, read through each 16-bit chunk of the word *)
let test_popcount_table () =
  let bit_loop i =
    let n = ref 0 and x = ref i in
    while !x <> 0 do
      n := !n + (!x land 1);
      x := !x lsr 1
    done;
    !n
  in
  let wrong = ref [] in
  for i = 0 to 0xffff do
    List.iter
      (fun shift ->
        (* the top chunk holds only [word_bits - 48] bits *)
        let fits = shift < 48 || i < 1 lsl (Dense.word_bits - 48) in
        if fits && Dense.popcount (i lsl shift) <> bit_loop i then
          wrong := (i, shift) :: !wrong)
      [ 0; 16; 32; 48 ]
  done;
  check_int "entries differing from the bit loop" 0 (List.length !wrong)

let test_words_for () =
  check_int "0" 0 (Dense.words_for 0);
  check_int "1" 1 (Dense.words_for 1);
  check_int "word_bits" 1 (Dense.words_for Dense.word_bits);
  check_int "word_bits+1" 2 (Dense.words_for (Dense.word_bits + 1))

(* ------------------------------------------------------------------ *)
(* Mirror vs matrix on random instances, boundary widths               *)
(* ------------------------------------------------------------------ *)

let random_matrix ~name ~n_rows ~n_cols ~density =
  Benchsuite.Randucp.dense_cyclic ~name ~n_rows ~n_cols ~density ()

let naive_subset a b =
  List.for_all (fun x -> Array.exists (( = ) x) b) (Array.to_list a)

(* exhaustively compare every Dense kernel against its sparse-walk
   definition on one matrix *)
let agree_on name m =
  let d = Dense.of_matrix m in
  let nr = Matrix.n_rows m and nc = Matrix.n_cols m in
  for i = 0 to nr - 1 do
    let row = Matrix.row m i in
    for j = 0 to nc - 1 do
      check (name ^ " row_mem") true
        (Dense.row_mem d i j = Array.exists (( = ) j) row);
      check (name ^ " col_mem") true
        (Dense.col_mem d j i = Array.exists (( = ) i) (Matrix.col m j))
    done
  done;
  for i = 0 to nr - 1 do
    for i' = 0 to nr - 1 do
      check (name ^ " row_subset") true
        (Dense.row_subset d i i' = naive_subset (Matrix.row m i) (Matrix.row m i'))
    done
  done;
  for j = 0 to nc - 1 do
    for j' = 0 to nc - 1 do
      check (name ^ " col_subset") true
        (Dense.col_subset d j j' = naive_subset (Matrix.col m j) (Matrix.col m j'))
    done
  done;
  (* greedy kernels against a random covered-set *)
  let covered = Dense.make_row_set d in
  let covered_list = ref [] in
  for i = 0 to nr - 1 do
    if Random.State.bool word_rng then begin
      Dense.set_bit covered i;
      covered_list := i :: !covered_list
    end
  done;
  let is_covered i = List.mem i !covered_list in
  for i = 0 to nr - 1 do
    check (name ^ " mem_bit") true (Dense.mem_bit covered i = is_covered i)
  done;
  for j = 0 to nc - 1 do
    let fresh =
      Array.to_list (Matrix.col m j) |> List.filter (fun i -> not (is_covered i))
    in
    check_int (name ^ " col_fresh") (List.length fresh)
      (Dense.col_fresh d j ~covered)
  done;
  (* row_hits against an explicit column set *)
  let cols = Dense.make_col_set d in
  let in_cols = Array.make nc false in
  for j = 0 to nc - 1 do
    if Random.State.bool word_rng then begin
      Dense.set_bit cols j;
      in_cols.(j) <- true
    end
  done;
  for i = 0 to nr - 1 do
    let hits =
      Array.fold_left (fun acc j -> if in_cols.(j) then acc + 1 else acc) 0
        (Matrix.row m i)
    in
    check_int (name ^ " row_hits") hits (Dense.row_hits d i ~cols)
  done;
  (* cover_col returns the fresh count and folds the column in *)
  if nc > 0 then begin
    let covered' = Dense.make_row_set d in
    Array.blit covered 0 covered' 0 (Array.length covered);
    let before = Dense.col_fresh d 0 ~covered:covered' in
    check_int (name ^ " cover_col fresh") before
      (Dense.cover_col d 0 ~covered:covered');
    check_int (name ^ " cover_col after") 0 (Dense.col_fresh d 0 ~covered:covered')
  end

let test_boundary_widths () =
  (* widths straddling the 63-bit word: one word exactly, one bit over,
     and the 64/65 sizes that would trip an Int64-width assumption *)
  List.iter
    (fun n ->
      agree_on
        (Printf.sprintf "rows%d" n)
        (random_matrix ~name:(Printf.sprintf "bw-r%d" n) ~n_rows:n ~n_cols:20
           ~density:0.3);
      agree_on
        (Printf.sprintf "cols%d" n)
        (random_matrix ~name:(Printf.sprintf "bw-c%d" n) ~n_rows:20 ~n_cols:n
           ~density:0.3))
    [ 62; 63; 64; 65 ]

let test_small_shapes () =
  (* single row, single column *)
  agree_on "single-row" (Matrix.create ~n_cols:5 [ [ 0; 2; 4 ] ]);
  agree_on "single-col" (Matrix.create ~n_cols:1 [ [ 0 ]; [ 0 ]; [ 0 ] ]);
  agree_on "1x1" (Matrix.create ~n_cols:1 [ [ 0 ] ])

let test_eligibility () =
  let m = random_matrix ~name:"elig" ~n_rows:40 ~n_cols:30 ~density:0.3 in
  check "dense enough" true (Dense.eligible m);
  check "threshold 0 disables" false (Dense.eligible ~threshold:0 m);
  check "size cap" false (Dense.eligible ~threshold:(40 * 30 - 1) m);
  check "size cap boundary" true (Dense.eligible ~threshold:(40 * 30) m);
  (* k = 2 of 400 columns sits far below the 1/word density floor *)
  let sparse_m =
    Benchsuite.Randucp.cyclic ~name:"elig-sparse" ~n_rows:50 ~n_cols:400 ~k:2 ()
  in
  check "too sparse" false (Dense.eligible ~threshold:max_int sparse_m);
  let empty = Matrix.create ~n_cols:0 [] in
  check "empty never eligible" false (Dense.eligible ~threshold:max_int empty);
  check "attach mirrors eligible" true (Dense.attach m <> None);
  check "attach declines sparse" true (Dense.attach sparse_m = None)

let test_greedy_rejects_foreign_mirror () =
  let a = random_matrix ~name:"fma" ~n_rows:20 ~n_cols:15 ~density:0.3 in
  let b = random_matrix ~name:"fmb" ~n_rows:20 ~n_cols:15 ~density:0.3 in
  let da = Dense.of_matrix a in
  check "foreign mirror rejected" true
    (try
       ignore (Greedy.solve ~dense:da b);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Sparse mirror maintenance through deletions and column appends      *)
(* ------------------------------------------------------------------ *)

let test_mirror_through_mutations () =
  let m = random_matrix ~name:"mut" ~n_rows:40 ~n_cols:30 ~density:0.25 in
  let s = Sparse.of_matrix ~dense:true m in
  check "mirror present" true (Sparse.has_mirror s);
  Sparse.check s;
  (* the same mutations on a mirrorless twin give the reference subset
     answers *)
  let plain = Sparse.of_matrix m in
  let both f =
    f s;
    f plain;
    (* Sparse.check verifies every live row/column bit of the mirror *)
    Sparse.check s
  in
  both (fun t -> Sparse.delete_row t 3);
  both (fun t -> Sparse.delete_row t 17);
  both (fun t -> Sparse.delete_col t 5);
  both (fun t -> ignore (Sparse.add_col t ~cost:2 ~id:1000 ~rows:[ 1; 7; 20; 39 ]));
  (* the appended column is the last slot *)
  both (fun t -> Sparse.delete_col t (Sparse.n_cols t - 1));
  for i = 0 to Sparse.n_rows s - 1 do
    for i' = 0 to Sparse.n_rows s - 1 do
      if Sparse.row_alive s i && Sparse.row_alive s i' then
        check "row_subset after mutations" true
          (Sparse.row_subset s i i' = Sparse.row_subset plain i i')
    done
  done;
  for j = 0 to Sparse.n_cols s - 1 do
    for j' = 0 to Sparse.n_cols s - 1 do
      if Sparse.col_alive s j && Sparse.col_alive s j' then
        check "col_subset after mutations" true
          (Sparse.col_subset s j j' = Sparse.col_subset plain j j')
    done
  done

let test_mirror_through_reduction () =
  (* the real workload: a full worklist reduction (deletions and Gimpel
     appends) on the bitset mirror must reach exactly the core, fixed
     cost and trace of the forced sparse path *)
  List.iter
    (fun (inst : Benchsuite.Registry.instance) ->
      let m = Benchsuite.Registry.matrix inst in
      let name = inst.Benchsuite.Registry.name in
      check (name ^ " mirrored") true (Dense.eligible m);
      let a = Reduce2.cyclic_core ~gimpel:true m
      and b = Reduce2.cyclic_core ~gimpel:true ~dense_threshold:0 m in
      let ca = a.Reduce.core and cb = b.Reduce.core in
      check (name ^ " same core") true
        (Matrix.n_rows ca = Matrix.n_rows cb
        && Matrix.n_cols ca = Matrix.n_cols cb
        && Array.init (Matrix.n_rows ca) (Matrix.row ca)
           = Array.init (Matrix.n_rows cb) (Matrix.row cb)
        && Array.init (Matrix.n_cols ca) (Matrix.col_id ca)
           = Array.init (Matrix.n_cols cb) (Matrix.col_id cb));
      check_int (name ^ " same fixed cost") b.Reduce.fixed_cost a.Reduce.fixed_cost;
      check (name ^ " same trace") true
        (List.sort Stdlib.compare a.Reduce.trace
        = List.sort Stdlib.compare b.Reduce.trace))
    (Benchsuite.Registry.easy () @ Benchsuite.Registry.difficult ()
    @ Benchsuite.Registry.dense ())

(* ------------------------------------------------------------------ *)
(* Registry differential: greedy, subgradient, full solves             *)
(* ------------------------------------------------------------------ *)

let core_of m = (Reduce2.cyclic_core ~gimpel:true m).Reduce.core

let test_greedy_identity () =
  List.iter
    (fun (inst : Benchsuite.Registry.instance) ->
      let m = Benchsuite.Registry.matrix inst in
      let gm = if Matrix.is_empty (core_of m) then m else core_of m in
      let d = Dense.of_matrix gm in
      List.iter
        (fun rule ->
          check
            (inst.Benchsuite.Registry.name ^ " greedy rule")
            true
            (Greedy.solve ~rule ~dense:d gm = Greedy.solve ~rule gm))
        Greedy.all_rules;
      check (inst.Benchsuite.Registry.name ^ " solve_best") true
        (Greedy.solve_best ~dense:d gm = Greedy.solve_best gm);
      check (inst.Benchsuite.Registry.name ^ " solve_exchange") true
        (Greedy.solve_exchange ~dense:d gm = Greedy.solve_exchange gm))
    (Benchsuite.Registry.difficult () @ Benchsuite.Registry.dense ())

let test_subgradient_identity () =
  List.iter
    (fun (inst : Benchsuite.Registry.instance) ->
      let m = Benchsuite.Registry.matrix inst in
      let gm = if Matrix.is_empty (core_of m) then m else core_of m in
      let config =
        { Lagrangian.Subgradient.default_config with max_steps = 120 }
      in
      let dense = Lagrangian.Subgradient.run ~config ~dense_threshold:max_int gm in
      let sparse = Lagrangian.Subgradient.run ~config ~dense_threshold:0 gm in
      let open Lagrangian.Subgradient in
      check (inst.Benchsuite.Registry.name ^ " lower bound") true
        (dense.lower_bound = sparse.lower_bound);
      check (inst.Benchsuite.Registry.name ^ " upper dual") true
        (dense.upper_dual = sparse.upper_dual);
      check (inst.Benchsuite.Registry.name ^ " incumbent") true
        (dense.best_solution = sparse.best_solution
        && dense.best_cost = sparse.best_cost);
      check (inst.Benchsuite.Registry.name ^ " multipliers") true
        (dense.lambda = sparse.lambda && dense.mu = sparse.mu);
      check (inst.Benchsuite.Registry.name ^ " steps") true
        (dense.steps = sparse.steps))
    (Benchsuite.Registry.difficult () @ Benchsuite.Registry.dense ())

let test_solve_identity () =
  (* end to end through Scg.solve: the adaptive dispatch (default
     threshold) vs the forced sparse path.  The challenging suite gets a
     shortened descent: identity holds for any configuration, and the
     full default descent on the pdc-class instances would dominate the
     suite's runtime for no extra signal. *)
  let quick =
    {
      Scg.Config.default with
      num_iter = 1;
      subgradient = { Lagrangian.Subgradient.default_config with max_steps = 100 };
    }
  in
  List.iter
    (fun (config, (inst : Benchsuite.Registry.instance)) ->
      let m = Benchsuite.Registry.matrix inst in
      let a = Scg.solve ~config m in
      let b = Scg.solve ~config:{ config with dense_threshold = 0 } m in
      check (inst.Benchsuite.Registry.name ^ " solution") true
        (a.Scg.solution = b.Scg.solution);
      check (inst.Benchsuite.Registry.name ^ " cost") true
        (a.Scg.cost = b.Scg.cost && a.Scg.lower_bound = b.Scg.lower_bound);
      check (inst.Benchsuite.Registry.name ^ " status") true
        (a.Scg.proven_optimal = b.Scg.proven_optimal))
    (List.map
       (fun i -> (Scg.Config.default, i))
       (Benchsuite.Registry.easy () @ Benchsuite.Registry.difficult ()
       @ Benchsuite.Registry.dense ())
    @ List.map (fun i -> (quick, i)) (Benchsuite.Registry.challenging ()))

(* The end-to-end benchmark times the dense kernels through its
   cyclic-cores workload, so they must actually run there: at the
   default threshold every component of the cyclic core is eligible, on
   the dense suite and on one input of each cyclic-cores shape (named as
   perfbench/tool/pb.ml names its seed-1 inputs, since the name seeds
   the generator). *)
let test_cores_eligible () =
  let open Benchsuite.Randucp in
  let shapes =
    [
      ("cc-cyclic-s1-0-00", cyclic ~name:"cc-cyclic-s1-0-00" ~n_rows:35 ~n_cols:24 ~k:3 ());
      ("cc-cyclic-s1-0-01", cyclic ~name:"cc-cyclic-s1-0-01" ~n_rows:38 ~n_cols:26 ~k:3 ());
      ("cc-cyclic-s1-0-02", cyclic ~name:"cc-cyclic-s1-0-02" ~n_rows:35 ~n_cols:21 ~k:4 ());
      ( "cc-dense-s1-0-00",
        dense_cyclic ~name:"cc-dense-s1-0-00" ~n_rows:40 ~n_cols:30 ~density:0.25 () );
      ( "cc-multi-s1-0-00",
        multi_component ~name:"cc-multi-s1-0-00" ~parts:2 ~rows_per_part:30
          ~cols_per_part:20 () );
      ( "cc-multi-s1-0-01",
        multi_component ~name:"cc-multi-s1-0-01" ~parts:3 ~rows_per_part:25
          ~cols_per_part:18 () );
    ]
  in
  List.iter
    (fun (name, m) ->
      let components = Partition.split (core_of m) in
      check (name ^ " has a cyclic core") true (components <> []);
      List.iteri
        (fun k c ->
          check (Printf.sprintf "%s component %d eligible" name k) true (Dense.eligible c))
        components)
    (List.map
       (fun (i : Benchsuite.Registry.instance) ->
         (i.Benchsuite.Registry.name, Benchsuite.Registry.matrix i))
       (Benchsuite.Registry.dense ())
    @ shapes)

(* the Weighted_rows weight of the greedy: an order-sensitive float sum
   over the fresh rows must equal the ascending fold over the sparse
   column bit for bit, across word boundaries *)
let test_fresh_sum () =
  List.iter
    (fun (name, n_rows, n_cols, density) ->
      let m = random_matrix ~name ~n_rows ~n_cols ~density in
      let d = Dense.of_matrix m in
      let w = Array.init n_rows (fun i -> 1. /. float_of_int (i + 3)) in
      let covered = Dense.make_row_set d in
      for i = 0 to n_rows - 1 do
        if Random.State.bool word_rng then Dense.set_bit covered i
      done;
      for j = 0 to n_cols - 1 do
        let want =
          Array.fold_left
            (fun acc i -> if Dense.mem_bit covered i then acc else acc +. w.(i))
            0. (Matrix.col m j)
        in
        check (name ^ " fresh_sum") true
          (Int64.equal
             (Int64.bits_of_float (Dense.fresh_sum d j ~covered w))
             (Int64.bits_of_float want))
      done)
    [ ("fs-small", 40, 30, 0.3); ("fs-wide", 200, 60, 0.25); ("fs-edge", 126, 20, 0.5) ]

let () =
  Alcotest.run "dense"
    [
      ( "words",
        [
          Alcotest.test_case "popcount random" `Quick test_popcount_random;
          Alcotest.test_case "popcount edges" `Quick test_popcount_edges;
          Alcotest.test_case "popcount table" `Quick test_popcount_table;
          Alcotest.test_case "words_for" `Quick test_words_for;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "boundary widths" `Quick test_boundary_widths;
          Alcotest.test_case "small shapes" `Quick test_small_shapes;
          Alcotest.test_case "eligibility" `Quick test_eligibility;
          Alcotest.test_case "foreign mirror" `Quick
            test_greedy_rejects_foreign_mirror;
          Alcotest.test_case "fresh_sum" `Quick test_fresh_sum;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "mutations" `Quick test_mirror_through_mutations;
          Alcotest.test_case "full reduction" `Quick test_mirror_through_reduction;
        ] );
      ( "differential",
        [
          Alcotest.test_case "greedy" `Quick test_greedy_identity;
          Alcotest.test_case "subgradient" `Quick test_subgradient_identity;
          Alcotest.test_case "full solve" `Quick test_solve_identity;
          Alcotest.test_case "cyclic cores eligible" `Quick test_cores_eligible;
        ] );
    ]
