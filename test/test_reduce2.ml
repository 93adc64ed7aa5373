(* Differential tests for the worklist reduction engine: Reduce2 must
   reproduce the pass engine kept as the test oracle
   (Test_support.Reduce_oracle) byte for byte — same core, same fixed
   cost, same trace events (order within a generation may differ) —
   plus invariant checks for the Sparse substrate it runs on. *)

open Covering
module TS = Test_support

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let matrices_equal a b =
  Matrix.n_rows a = Matrix.n_rows b
  && Matrix.n_cols a = Matrix.n_cols b
  && (let ok = ref true in
      for i = 0 to Matrix.n_rows a - 1 do
        if
          Matrix.row_id a i <> Matrix.row_id b i
          || Matrix.row a i <> Matrix.row b i
        then ok := false
      done;
      for j = 0 to Matrix.n_cols a - 1 do
        if
          Matrix.col_id a j <> Matrix.col_id b j
          || Matrix.cost a j <> Matrix.cost b j
          || Matrix.col a j <> Matrix.col b j
        then ok := false
      done;
      !ok)

let sorted_trace t = List.sort Stdlib.compare t

let engines_agree ?(gimpel = true) name m =
  let oracle = TS.Reduce_oracle.cyclic_core ~gimpel m in
  let incr = Reduce2.cyclic_core ~gimpel m in
  Matrix.transpose_check incr.Reduce.core;
  if oracle.Reduce.fixed_cost <> incr.Reduce.fixed_cost then
    Alcotest.failf "%s: fixed_cost %d vs %d" name oracle.Reduce.fixed_cost
      incr.Reduce.fixed_cost;
  if sorted_trace oracle.Reduce.trace <> sorted_trace incr.Reduce.trace then
    Alcotest.failf "%s: traces differ (%d vs %d events)" name
      (List.length oracle.Reduce.trace)
      (List.length incr.Reduce.trace);
  if not (matrices_equal oracle.Reduce.core incr.Reduce.core) then
    Alcotest.failf "%s: cores differ (%dx%d vs %dx%d)" name
      (Matrix.n_rows oracle.Reduce.core)
      (Matrix.n_cols oracle.Reduce.core)
      (Matrix.n_rows incr.Reduce.core)
      (Matrix.n_cols incr.Reduce.core)

(* ------------------------------------------------------------------ *)
(* Engine equivalence on the benchmark generators                     *)
(* ------------------------------------------------------------------ *)

(* ~200 generator instances spanning both benchmark profiles: the
   reduction-friendly ones exercise long essential/dominance cascades
   and Gimpel folds, the row-regular cyclic ones the nothing-applies
   fixpoint and partial dominance. *)
let test_equiv_randucp () =
  for seed = 0 to 99 do
    let name = Printf.sprintf "red-%d" seed in
    let m =
      Benchsuite.Randucp.reducible ~name
        ~n_rows:(8 + (seed * 7 mod 40))
        ~n_cols:(6 + (seed * 5 mod 25))
        ()
    in
    engines_agree ~gimpel:true (name ^ "/g") m;
    engines_agree ~gimpel:false (name ^ "/ng") m
  done;
  for seed = 0 to 99 do
    let name = Printf.sprintf "cyc-%d" seed in
    let m =
      Benchsuite.Randucp.cyclic ~name
        ~n_rows:(10 + (seed * 11 mod 50))
        ~n_cols:(8 + (seed * 3 mod 30))
        ~k:(2 + (seed mod 3))
        ~cost_spread:(seed mod 4)
        ()
    in
    engines_agree ~gimpel:true (name ^ "/g") m;
    engines_agree ~gimpel:false (name ^ "/ng") m
  done

(* the registry's difficult and dense instances, the cores the bench
   tables and the golden corpus solve *)
let test_equiv_registry () =
  List.iter
    (fun (inst : Benchsuite.Registry.instance) ->
      let m = Benchsuite.Registry.matrix inst in
      let name = inst.Benchsuite.Registry.name in
      engines_agree ~gimpel:true (name ^ "/g") m;
      engines_agree ~gimpel:false (name ^ "/ng") m)
    (Benchsuite.Registry.difficult () @ Benchsuite.Registry.dense ())

let prop_equiv_random =
  QCheck.Test.make ~name:"incremental engine = legacy engine" ~count:150
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      engines_agree ~gimpel:true (Printf.sprintf "seed-%d" seed) m;
      let m2 = TS.medium_matrix_of_seed seed in
      engines_agree ~gimpel:false (Printf.sprintf "mseed-%d" seed) m2;
      true)

let prop_lift_agrees =
  QCheck.Test.make ~name:"lifting through either trace gives the optimum"
    ~count:80 TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let direct = Matrix.cost_of m (Exact.brute_force m) in
      let r = Reduce2.cyclic_core ~gimpel:true m in
      let core_sol =
        if Matrix.is_empty r.Reduce.core then []
        else Exact.brute_force r.Reduce.core
      in
      let lifted = Reduce.lift r.Reduce.trace core_sol in
      Matrix.covers m lifted && Matrix.cost_of m lifted = direct)

let test_equiv_empty_and_trivial () =
  (* no rows: both engines hand the matrix back untouched *)
  let empty = Matrix.create ~n_cols:3 [] in
  engines_agree "empty" empty;
  (* fully essential chain *)
  let chain = Matrix.create ~n_cols:3 [ [ 2 ]; [ 1; 2 ]; [ 0; 1 ] ] in
  engines_agree "chain" chain;
  (* odd cycle: nothing reduces, the core is the input *)
  engines_agree "c5" (TS.c5_matrix ())

(* ------------------------------------------------------------------ *)
(* Sparse invariants                                                  *)
(* ------------------------------------------------------------------ *)

let sq_matrix () =
  (* rows {0,1,2}, {1,2}, {0,2}; costs 2,3,4 *)
  Matrix.create ~cost:[| 2; 3; 4 |] ~n_cols:3 [ [ 0; 1; 2 ]; [ 1; 2 ]; [ 0; 2 ] ]

let test_sparse_round_trip () =
  let m = TS.medium_matrix_of_seed 42 in
  let s = Sparse.of_matrix m in
  Sparse.check s;
  Alcotest.(check int) "rows" (Matrix.n_rows m) (Sparse.rows_alive s);
  Alcotest.(check int) "cols" (Matrix.n_cols m) (Sparse.cols_alive s);
  check "round trip" true (matrices_equal m (Sparse.to_matrix s))

let test_sparse_deletion () =
  let m = sq_matrix () in
  let s = Sparse.of_matrix m in
  Sparse.delete_row s 0;
  Sparse.check s;
  Alcotest.(check int) "col 1 shrank" 1 (Sparse.col_len s 1);
  Sparse.delete_col s 1;
  Sparse.check s;
  Alcotest.(check int) "row 1 shrank" 1 (Sparse.row_len s 1);
  check "row 1 alive" true (Sparse.row_alive s 1);
  let sub =
    Matrix.submatrix m ~keep_rows:[| false; true; true |]
      ~keep_cols:[| true; false; true |]
  in
  check "matches submatrix" true (matrices_equal sub (Sparse.to_matrix s))

let prop_sparse_check_random =
  QCheck.Test.make
    ~name:"invariants hold under random deletions; survivors = submatrix"
    ~count:120 TS.arb_seed (fun seed ->
      let m = TS.medium_matrix_of_seed seed in
      let s = Sparse.of_matrix m in
      Sparse.check s;
      let rng = Random.State.make [| seed |] in
      (* random row deletions plus column deletions that keep every live
         row non-empty (the Reduce2 contract) *)
      for _ = 1 to 12 do
        if Random.State.bool rng then begin
          let i = Random.State.int rng (Sparse.n_rows s) in
          if Sparse.row_alive s i && Sparse.rows_alive s > 1 then begin
            Sparse.delete_row s i;
            Sparse.check s
          end
        end
        else begin
          let j = Random.State.int rng (Sparse.n_cols s) in
          if Sparse.col_alive s j then begin
            let safe = ref true in
            Sparse.iter_col s j (fun i ->
                if Sparse.row_len s i = 1 then safe := false);
            if !safe then begin
              Sparse.delete_col s j;
              Sparse.check s
            end
          end
        end
      done;
      (* the survivors are exactly the submatrix over the live lines *)
      let keep_rows = Array.init (Sparse.n_rows s) (Sparse.row_alive s)
      and keep_cols = Array.init (Sparse.n_cols s) (Sparse.col_alive s) in
      matrices_equal (Matrix.submatrix m ~keep_rows ~keep_cols) (Sparse.to_matrix s))

let () =
  Alcotest.run "reduce2"
    [
      ( "equivalence",
        [
          Alcotest.test_case "randucp suite" `Quick test_equiv_randucp;
          Alcotest.test_case "edge cases" `Quick test_equiv_empty_and_trivial;
          Alcotest.test_case "registry suites" `Quick test_equiv_registry;
          QCheck_alcotest.to_alcotest prop_equiv_random;
          QCheck_alcotest.to_alcotest prop_lift_agrees;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "round trip" `Quick test_sparse_round_trip;
          Alcotest.test_case "deletion" `Quick test_sparse_deletion;
          QCheck_alcotest.to_alcotest prop_sparse_check_random;
        ] );
    ]
