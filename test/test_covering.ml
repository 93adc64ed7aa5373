(* Tests for the covering substrate: matrix mechanics, reductions,
   bounds, greedy, partitioning, the exact solver, and the implicit
   (ZDD) reduction phase — each checked against brute force or a model. *)

open Covering
module TS = Test_support

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Matrix                                                             *)
(* ------------------------------------------------------------------ *)

let m_abc () =
  (* rows: {0,1}, {1,2}, {2}; costs 1,2,3 *)
  Matrix.create ~cost:[| 1; 2; 3 |] ~n_cols:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2 ] ]

let test_matrix_create () =
  let m = m_abc () in
  Alcotest.(check int) "rows" 3 (Matrix.n_rows m);
  Alcotest.(check int) "cols" 3 (Matrix.n_cols m);
  Alcotest.(check int) "nnz" 5 (Matrix.nnz m);
  Alcotest.(check (list int)) "col 1" [ 0; 1 ] (Array.to_list (Matrix.col m 1));
  Matrix.transpose_check m;
  check "covers" true (Matrix.covers m [ 0; 2 ]);
  check "row 2 needs col 2" false (Matrix.covers m [ 0; 1 ]);
  Alcotest.(check int) "cost_of" 4 (Matrix.cost_of m [ 0; 2 ])

let test_matrix_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "empty row" true (raises (fun () -> ignore (Matrix.create ~n_cols:2 [ [] ])));
  check "out of range" true (raises (fun () -> ignore (Matrix.create ~n_cols:2 [ [ 2 ] ])));
  check "dup col" true (raises (fun () -> ignore (Matrix.create ~n_cols:2 [ [ 0; 0 ] ])));
  check "bad cost" true
    (raises (fun () -> ignore (Matrix.create ~cost:[| 0 |] ~n_cols:1 [ [ 0 ] ])))

let test_matrix_submatrix () =
  let m = m_abc () in
  let sub =
    Matrix.submatrix m ~keep_rows:[| true; false; true |] ~keep_cols:[| true; false; true |]
  in
  Alcotest.(check int) "rows" 2 (Matrix.n_rows sub);
  Alcotest.(check int) "cols" 2 (Matrix.n_cols sub);
  Alcotest.(check int) "row id" 2 (Matrix.row_id sub 1);
  Alcotest.(check int) "col id" 2 (Matrix.col_id sub 1);
  Alcotest.(check int) "cost preserved" 3 (Matrix.cost sub 1);
  Matrix.transpose_check sub

let test_matrix_irredundant () =
  let m = Matrix.create ~n_cols:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  let sol = Matrix.irredundant m [ 0; 1; 2 ] in
  check "still covers" true (Matrix.covers m sol);
  Alcotest.(check int) "dropped one" 2 (List.length sol)

let test_matrix_zdd_round_trip () =
  let m = TS.small_matrix_of_seed 7 in
  let z = Matrix.to_zdd m in
  Alcotest.(check int)
    "row count"
    (* duplicate rows collapse in the set representation *)
    (List.sort_uniq Stdlib.compare
       (List.init (Matrix.n_rows m) (fun i -> Array.to_list (Matrix.row m i)))
    |> List.length)
    (int_of_float (Zdd.count z))

let test_matrix_virtual_column () =
  let m = m_abc () in
  let m' = Matrix.add_virtual_column m ~cost:7 ~id:99 ~rows:[ 0; 2 ] in
  Alcotest.(check int) "cols" 4 (Matrix.n_cols m');
  Alcotest.(check int) "virtual id" 99 (Matrix.col_id m' 3);
  Alcotest.(check int) "virtual cost" 7 (Matrix.cost m' 3);
  Alcotest.(check (list int)) "virtual rows" [ 0; 2 ] (Array.to_list (Matrix.col m' 3));
  Matrix.transpose_check m';
  Alcotest.(check (option int)) "lookup by id" (Some 3) (Matrix.col_index_of_id m' 99)

let test_matrix_submatrix_infeasible () =
  let m = m_abc () in
  (* dropping column 2 strands row {2} *)
  match
    Matrix.submatrix m ~keep_rows:[| true; true; true |]
      ~keep_cols:[| true; true; false |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_matrix_density () =
  let m = m_abc () in
  Alcotest.(check (float 1e-9)) "density" (5. /. 9.) (Matrix.density m);
  let empty = Matrix.create ~n_cols:4 [] in
  Alcotest.(check (float 0.)) "empty density" 0. (Matrix.density empty)

let test_irredundant_rejects_non_cover () =
  let m = m_abc () in
  match Matrix.irredundant m [ 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Reduce                                                             *)
(*                                                                    *)
(* The single reduction rules on the pass-engine oracle; the cyclic   *)
(* core and its lift on Reduce2, the engine both solvers run.         *)
(* ------------------------------------------------------------------ *)

module Oracle = TS.Reduce_oracle

let test_essential_detection () =
  let m = m_abc () in
  Alcotest.(check (list int)) "essential" [ 2 ] (Oracle.essential_columns m)

let test_row_dominance () =
  (* row {0,1,2} is a superset of row {1} and must go *)
  let m = Matrix.create ~n_cols:3 [ [ 0; 1; 2 ]; [ 1 ]; [ 0; 2 ] ] in
  let dr = Oracle.dominated_rows m in
  Alcotest.(check (list bool)) "dominated" [ true; false; false ] (Array.to_list dr)

let test_col_dominance () =
  (* col 0 ⊂ col 1 with equal costs: 0 is dominated *)
  let m = Matrix.create ~n_cols:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 1 ] ] in
  let dc = Oracle.dominated_columns m in
  check "col 0 dominated" true dc.(0);
  check "col 1 kept" true (not dc.(1))

let test_cyclic_core_solves_triangle () =
  (* essential then cascade: classic fully-reducible instance *)
  let m = Matrix.create ~n_cols:3 [ [ 2 ]; [ 1; 2 ]; [ 0; 1 ] ] in
  let r = Reduce2.cyclic_core m in
  check "core empty" true (Matrix.is_empty r.Reduce.core);
  let sol = Reduce.lift r.Reduce.trace [] in
  check "lifted covers" true (Matrix.covers m sol);
  Alcotest.(check int) "cost" r.Reduce.fixed_cost (Matrix.cost_of m sol)

let test_cyclic_core_of_cycle () =
  (* odd cycle: nothing reduces *)
  let m = TS.c5_matrix () in
  let r = Reduce2.cyclic_core m in
  Alcotest.(check int) "rows kept" 5 (Matrix.n_rows r.Reduce.core);
  Alcotest.(check int) "cols kept" 5 (Matrix.n_cols r.Reduce.core);
  Alcotest.(check int) "no fixed cost" 0 r.Reduce.fixed_cost

let test_gimpel_triggers () =
  (* row {0,1} with col 0 only there and strictly cheaper: Gimpel folds.
     rows: {0,1}, {1,2}, {2,3}; costs: c0=1 c1=3 c2=1 c3=2 *)
  let m =
    Matrix.create ~cost:[| 1; 3; 1; 2 |] ~n_cols:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]
  in
  let opt_direct = Exact.brute_force m in
  let r = Reduce2.cyclic_core ~gimpel:true m in
  (* solving the core then lifting must reproduce the optimal cost *)
  let core_opt = if Matrix.is_empty r.Reduce.core then [] else Exact.brute_force r.Reduce.core in
  let lifted = Reduce.lift r.Reduce.trace core_opt in
  check "lifted covers" true (Matrix.covers m lifted);
  Alcotest.(check int)
    "lifted optimal"
    (Matrix.cost_of m opt_direct)
    (Matrix.cost_of m lifted)

let test_step_none_on_cyclic_core () =
  let m = TS.c5_matrix () in
  let next_virtual_id = ref 100 in
  check "no step applies" true (Oracle.step ~next_virtual_id m = None);
  check "empty matrix: no step" true
    (Oracle.step ~next_virtual_id (Matrix.create ~n_cols:2 []) = None)

let prop_reductions_preserve_optimum =
  QCheck.Test.make ~name:"cyclic core preserves the optimum" ~count:120 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let direct = Matrix.cost_of m (Exact.brute_force m) in
      let r = Reduce2.cyclic_core ~gimpel:true m in
      let core_sol =
        if Matrix.is_empty r.Reduce.core then [] else Exact.brute_force r.Reduce.core
      in
      let lifted = Reduce.lift r.Reduce.trace core_sol in
      Matrix.covers m lifted && Matrix.cost_of m lifted = direct)

let prop_lift_cost_consistent =
  QCheck.Test.make ~name:"fixed_cost + core cost = lifted cost" ~count:120 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let r = Reduce2.cyclic_core ~gimpel:true m in
      let core_sol =
        if Matrix.is_empty r.Reduce.core then []
        else Exact.brute_force r.Reduce.core
      in
      let core_cost =
        if Matrix.is_empty r.Reduce.core then 0
        else Matrix.cost_of_ids ~original:r.Reduce.core core_sol
      in
      Reduce.lifted_cost ~original:m r.Reduce.trace core_sol
      = r.Reduce.fixed_cost + core_cost)

(* ------------------------------------------------------------------ *)
(* Bounds, greedy, partition                                          *)
(* ------------------------------------------------------------------ *)

let test_mis_on_fig1 () =
  let m = TS.fig1_matrix () in
  let mis = Mis_bound.compute m in
  check "independent" true (Mis_bound.is_independent m mis.Mis_bound.rows);
  Alcotest.(check int) "bound is 1" 1 mis.Mis_bound.bound

let test_mis_on_c5 () =
  let m = TS.c5_matrix () in
  let mis = Mis_bound.compute m in
  Alcotest.(check int) "bound is 2" 2 mis.Mis_bound.bound

let prop_mis_below_optimum =
  QCheck.Test.make ~name:"MIS bound <= optimum" ~count:150 TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let mis = Mis_bound.compute m in
      Mis_bound.is_independent m mis.Mis_bound.rows
      && mis.Mis_bound.bound <= Matrix.cost_of m (Exact.brute_force m))

let prop_greedy_feasible =
  QCheck.Test.make ~name:"greedy covers, irredundant, >= optimum" ~count:150 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let opt = Matrix.cost_of m (Exact.brute_force m) in
      List.for_all
        (fun rule ->
          let sol = Greedy.solve ~rule m in
          Matrix.covers m sol && Matrix.cost_of m sol >= opt)
        Greedy.all_rules)

let test_greedy_infeasible () =
  (* a matrix with an uncoverable row (only constructible through
     of_parts — create rejects empty rows): the greedy must raise the
     typed Infeasible naming the offending row, not an Assert_failure *)
  let m =
    Matrix.of_parts ~n_cols:2
      ~rows:[| [| 0 |]; [||]; [| 1 |] |]
      ~cost:[| 1; 1 |] ~row_ids:[| 10; 11; 12 |] ~col_ids:[| 0; 1 |]
  in
  let expects_infeasible f =
    match f m with
    | _ -> Alcotest.fail "expected Covering.Infeasible"
    | exception Infeasible { row; row_id } ->
      Alcotest.(check int) "row index" 1 row;
      Alcotest.(check int) "row identifier" 11 row_id
  in
  expects_infeasible Greedy.solve;
  expects_infeasible Greedy.solve_best;
  expects_infeasible Greedy.solve_exchange;
  (* the exception prints usefully (registered printer) *)
  check "printer" true
    (try
       ignore (Greedy.solve m);
       false
     with e ->
       let s = Printexc.to_string e in
       String.length s > 0 && s <> "Covering__Infeasible.Infeasible")

let prop_exchange_no_worse =
  QCheck.Test.make ~name:"1-exchange never worse than plain greedy" ~count:100
    TS.arb_seed (fun seed ->
      let m = TS.medium_matrix_of_seed seed in
      let base = Matrix.cost_of m (Greedy.solve_best m) in
      let improved = Matrix.cost_of m (Greedy.solve_exchange m) in
      Matrix.covers m (Greedy.solve_exchange m) && improved <= base)

let test_partition_blocks () =
  (* two independent blocks *)
  let m = Matrix.create ~n_cols:4 [ [ 0; 1 ]; [ 0 ]; [ 2; 3 ]; [ 3 ] ] in
  let comps = Partition.components m in
  Alcotest.(check int) "two components" 2 (List.length comps);
  let subs = Partition.split m in
  List.iter (fun s -> check "non-empty" true (Matrix.n_rows s > 0)) subs;
  let sol, cost =
    Partition.solve_componentwise
      (fun sub ->
        let ids = Exact.brute_force sub in
        (ids, Matrix.cost_of_ids ~original:sub ids))
      m
  in
  check "combined covers" true (Matrix.covers m sol);
  Alcotest.(check int) "combined optimal" (Matrix.cost_of m (Exact.brute_force m)) cost

(* ------------------------------------------------------------------ *)
(* Strengthened bounds                                                *)
(* ------------------------------------------------------------------ *)

let prop_row_induced_is_lower_bound =
  QCheck.Test.make ~name:"row-induced bound <= optimum, any row set" ~count:120
    (QCheck.pair TS.arb_seed TS.arb_seed) (fun (seed, rseed) ->
      let m = TS.small_matrix_of_seed seed in
      let rng = Random.State.make [| rseed |] in
      let rows =
        List.filter
          (fun _ -> Random.State.bool rng)
          (List.init (Matrix.n_rows m) Fun.id)
      in
      Bounds.row_induced m ~rows <= Matrix.cost_of m (Exact.brute_force m))

let prop_strengthened_dominates_mis =
  QCheck.Test.make ~name:"strengthened MIS in [MIS, OPT]" ~count:120 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let mis = (Mis_bound.compute m).Mis_bound.bound in
      let s = Bounds.strengthened_mis m in
      mis <= s && s <= Matrix.cost_of m (Exact.brute_force m))

let test_row_induced_full_is_optimum () =
  let m = TS.c5_matrix () in
  let all_rows = List.init (Matrix.n_rows m) Fun.id in
  Alcotest.(check int) "full set = optimum" 3 (Bounds.row_induced m ~rows:all_rows);
  Alcotest.(check int) "empty set = 0" 0 (Bounds.row_induced m ~rows:[])

let test_strengthened_beats_mis_on_c5 () =
  (* plain MIS on C5 is 2; the induced subproblem on MIS + extra rows is
     the whole odd cycle, whose optimum is 3 *)
  let m = TS.c5_matrix () in
  Alcotest.(check int) "strengthened reaches 3" 3 (Bounds.strengthened_mis m)

let prop_exact_with_extra_bound_agrees =
  QCheck.Test.make ~name:"exact with strengthened bound stays exact" ~count:60
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let plain = Exact.solve m in
      let strong = Exact.solve ~extra_bound:(Bounds.strengthened_mis ~extra_rows:3) m in
      strong.Exact.optimal && strong.Exact.cost = plain.Exact.cost)

(* ------------------------------------------------------------------ *)
(* Exact                                                              *)
(* ------------------------------------------------------------------ *)

let prop_exact_matches_brute_force =
  QCheck.Test.make ~name:"branch and bound = brute force" ~count:150 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let bf = Matrix.cost_of m (Exact.brute_force m) in
      let r = Exact.solve m in
      r.Exact.optimal && r.Exact.cost = bf && Matrix.covers m r.Exact.solution
      && r.Exact.lower_bound = r.Exact.cost)

let prop_exact_uniform =
  QCheck.Test.make ~name:"branch and bound = brute force (uniform)" ~count:100
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed ~uniform:true seed in
      let bf = Matrix.cost_of m (Exact.brute_force m) in
      let r = Exact.solve m in
      r.Exact.optimal && r.Exact.cost = bf)

let test_exact_fig1 () =
  let r = Exact.solve (TS.fig1_matrix ()) in
  Alcotest.(check int) "optimum 3" 3 r.Exact.cost;
  check "optimal" true r.Exact.optimal

let test_exact_ub_parameter () =
  let m = TS.c5_matrix () in
  (* priming with the true optimum still returns a solution and proves it *)
  let r = Exact.solve ~ub:3 m in
  check "solution found at ub" true (r.Exact.cost = 3 && r.Exact.optimal);
  (* an unreachable ub prunes everything: no proven solution *)
  let r2 = Exact.solve ~ub:2 m in
  check "not proven under tight ub" true (not r2.Exact.optimal);
  check "fallback still covers" true (Matrix.covers m r2.Exact.solution)

let test_exact_node_budget () =
  (* two disjoint odd cycles: irreducible, so the root must branch and the
     one-node budget runs out *)
  let rows5 base = List.init 5 (fun i -> [ base + i; base + ((i + 1) mod 5) ]) in
  let m = Matrix.create ~n_cols:10 (rows5 0 @ rows5 5) in
  let r = Exact.solve ~max_nodes:1 m in
  check "not proven" true (not r.Exact.optimal);
  check "still feasible" true (Matrix.covers m r.Exact.solution);
  check "lb <= cost" true (r.Exact.lower_bound <= r.Exact.cost)

(* ------------------------------------------------------------------ *)
(* Implicit                                                           *)
(* ------------------------------------------------------------------ *)

let test_implicit_essentials () =
  let m = m_abc () in
  let t = Implicit.reduce (Implicit.of_matrix m) in
  let rest, ess = Implicit.decode t in
  Alcotest.(check (list int)) "essential col" [ 2 ] ess;
  (* only row {0,1} survives: essentiality killed the others, and column
     dominance is deliberately left to the explicit phase *)
  Alcotest.(check int) "one row left" 1 (Matrix.n_rows rest);
  Alcotest.(check (list int)) "row content" [ 0; 1 ] (Array.to_list (Matrix.row rest 0))

let prop_implicit_agrees_with_explicit =
  QCheck.Test.make ~name:"implicit reductions preserve the optimum" ~count:120
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let direct = Matrix.cost_of m (Exact.brute_force m) in
      let t = Implicit.reduce ~max_rows:0 (Implicit.of_matrix m) in
      let rest, ess = Implicit.decode t in
      let ess_cost = List.fold_left (fun a j -> a + Matrix.cost m j) 0 ess in
      let rest_cost =
        if Matrix.is_empty rest then 0
        else Matrix.cost_of_ids ~original:rest (Exact.brute_force rest)
      in
      (* essentials + the optimum of the residual = the optimum; note the
         residual may still contain redundant columns, which is fine *)
      ess_cost + rest_cost = direct)

let prop_implicit_row_dominance_is_minimal =
  QCheck.Test.make ~name:"dominance step yields an antichain" ~count:100 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let t = Implicit.of_matrix m in
      let t = match Implicit.dominance_step t with Some t' -> t' | None -> t in
      Zdd.equal (Zdd.minimal t.Implicit.rows) t.Implicit.rows)

(* ------------------------------------------------------------------ *)
(* Instance format                                                    *)
(* ------------------------------------------------------------------ *)

let test_instance_round_trip () =
  let m = TS.small_matrix_of_seed 5 in
  let m2 = Instance.parse (Instance.to_string m) in
  Alcotest.(check int) "rows" (Matrix.n_rows m) (Matrix.n_rows m2);
  Alcotest.(check int) "cols" (Matrix.n_cols m) (Matrix.n_cols m2);
  for i = 0 to Matrix.n_rows m - 1 do
    Alcotest.(check (list int))
      "row" (Array.to_list (Matrix.row m i))
      (Array.to_list (Matrix.row m2 i))
  done;
  for j = 0 to Matrix.n_cols m - 1 do
    Alcotest.(check int) "cost" (Matrix.cost m j) (Matrix.cost m2 j)
  done

let test_orlib_round_trip () =
  let m = TS.small_matrix_of_seed 17 in
  let m2 = Instance.parse_orlib (Instance.to_orlib m) in
  Alcotest.(check int) "rows" (Matrix.n_rows m) (Matrix.n_rows m2);
  Alcotest.(check int) "cols" (Matrix.n_cols m) (Matrix.n_cols m2);
  for i = 0 to Matrix.n_rows m - 1 do
    Alcotest.(check (list int))
      "row" (Array.to_list (Matrix.row m i))
      (Array.to_list (Matrix.row m2 i))
  done;
  for j = 0 to Matrix.n_cols m - 1 do
    Alcotest.(check int) "cost" (Matrix.cost m j) (Matrix.cost m2 j)
  done

let test_orlib_literal () =
  (* hand-written tiny instance in Beasley's layout *)
  let text = "2 3\n5 1 9\n2\n1 2\n1\n3\n" in
  let m = Instance.parse_orlib text in
  Alcotest.(check int) "rows" 2 (Matrix.n_rows m);
  Alcotest.(check (list int)) "row 0" [ 0; 1 ] (Array.to_list (Matrix.row m 0));
  Alcotest.(check (list int)) "row 1" [ 2 ] (Array.to_list (Matrix.row m 1));
  Alcotest.(check int) "cost 1" 1 (Matrix.cost m 1)

let test_orlib_errors () =
  let raises s =
    try ignore (Instance.parse_orlib s); false
    with Logic.Parse_error.Parse_error _ -> true
  in
  check "truncated" true (raises "2 3\n1 1 1\n2\n1 2\n");
  check "out of range" true (raises "1 2\n1 1\n1\n3\n");
  check "trailing" true (raises "1 1\n1\n1\n1\n99\n");
  check "bad token" true (raises "1 x\n");
  check "negative count" true (raises "1 1\n1\n-1\n")

let test_orlib_infeasible () =
  (* a zero column count is well-formed orlib data declaring a row no
     column covers — semantic infeasibility, typed as such rather than
     as a syntax error *)
  match Instance.parse_orlib "2 2\n1 1\n1\n1\n0\n" with
  | _ -> Alcotest.fail "expected Covering.Infeasible"
  | exception Infeasible { row = 1; row_id = 1 } -> ()

let test_instance_errors () =
  let raises s =
    try ignore (Instance.parse s); false
    with Logic.Parse_error.Parse_error _ -> true
  in
  check "no p line" true (raises "r 0 1\n");
  check "row count" true (raises "p ucp 2 3\nr 0\n");
  check "bad token" true (raises "p ucp 1 1\nq 0\n")

(* ------------------------------------------------------------------ *)
(* From_logic                                                         *)
(* ------------------------------------------------------------------ *)

let test_from_logic_small () =
  (* f = x0 x1 + x0' x2 over 3 vars *)
  let on =
    Logic.Cover.of_cubes 3 [ Logic.Cube.of_string "11-"; Logic.Cube.of_string "0-1" ]
  in
  let dc = Logic.Cover.empty 3 in
  let b = From_logic.build ~on ~dc () in
  let r = Exact.solve b.From_logic.matrix in
  check "optimal" true r.Exact.optimal;
  Alcotest.(check int) "two products suffice" 2 r.Exact.cost;
  check "verifies" true (From_logic.verify_solution b r.Exact.solution);
  let cover = From_logic.cover_of_solution b r.Exact.solution in
  check "semantics preserved" true (Logic.Cover.equal_semantics cover on)

let test_from_logic_lexicographic () =
  (* maj3 has a unique minimal cover; the lexicographic objective must
     pick the same number of products and report products*(n+1)+literals *)
  let on =
    Logic.Cover.of_cubes 3
      (List.map Logic.Cube.of_string [ "11-"; "1-1"; "-11" ])
  in
  let dc = Logic.Cover.empty 3 in
  let b =
    From_logic.build ~cost:(From_logic.lexicographic_cost ~nvars:3) ~on ~dc ()
  in
  let r = Exact.solve b.From_logic.matrix in
  check "optimal" true r.Exact.optimal;
  (* 3 products of 2 literals each: 3*(3+1) + 6 = 18 *)
  Alcotest.(check int) "lexicographic value" 18 r.Exact.cost;
  let cover = From_logic.cover_of_solution b r.Exact.solution in
  Alcotest.(check int) "three products" 3 (Logic.Cover.size cover);
  Alcotest.(check int) "six literals" 6 (Logic.Cover.literal_cost cover)

let test_build_implicit_agrees () =
  (* the implicit matrix is the explicit one after duplicate-row removal:
     same optimum, same primes *)
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 15 do
    let n = 3 + Random.State.int rng 3 in
    let cube () =
      Logic.Cube.of_string
        (String.init n (fun _ ->
             match Random.State.int rng 3 with
             | 0 -> '0'
             | 1 -> '1'
             | _ -> '-'))
    in
    let on = Logic.Cover.of_cubes n (List.init (2 + Random.State.int rng 4) (fun _ -> cube ())) in
    let dc = Logic.Cover.of_cubes n (List.init (Random.State.int rng 2) (fun _ -> cube ())) in
    match From_logic.build_implicit ~on ~dc () with
    | exception Invalid_argument _ -> () (* ON ⊆ DC: nothing to cover *)
    | imp ->
      let exp = From_logic.build ~on ~dc () in
      Alcotest.(check int) "same columns"
        (Matrix.n_cols exp.From_logic.matrix)
        (Matrix.n_cols imp.From_logic.imatrix);
      check "fewer or equal rows" true
        (Matrix.n_rows imp.From_logic.imatrix <= max 1 (Matrix.n_rows exp.From_logic.matrix));
      let oi = Exact.solve imp.From_logic.imatrix in
      let oe = Exact.solve exp.From_logic.matrix in
      Alcotest.(check int) "same optimum" oe.Exact.cost oi.Exact.cost;
      check "verified by BDD" true
        (From_logic.verify_implicit imp oi.Exact.solution)
  done

let test_build_implicit_wide_inputs () =
  (* 30 inputs: far beyond the minterm-expansion cap, trivial structure *)
  let n = 30 in
  let on =
    Logic.Cover.of_cubes n
      [
        Logic.Cube.of_literals n [ (0, true); (1, true) ];
        Logic.Cube.of_literals n [ (0, false); (2, true) ];
      ]
  in
  let imp = From_logic.build_implicit ~on ~dc:(Logic.Cover.empty n) () in
  check "rows stay tiny" true (Matrix.n_rows imp.From_logic.imatrix <= 8);
  let r = Exact.solve imp.From_logic.imatrix in
  Alcotest.(check int) "two products" 2 r.Exact.cost;
  check "verified" true (From_logic.verify_implicit imp r.Exact.solution)

let test_from_logic_with_dc () =
  (* ON = {11}, DC = {10}: the single prime 1- covers everything *)
  let on = Logic.Cover.of_cubes 2 [ Logic.Cube.of_string "11" ] in
  let dc = Logic.Cover.of_cubes 2 [ Logic.Cube.of_string "10" ] in
  let b = From_logic.build ~on ~dc () in
  let r = Exact.solve b.From_logic.matrix in
  Alcotest.(check int) "one product" 1 r.Exact.cost

(* Reference builders: the bridge's formulas before the mask tests and
   the BDD prechecks, kept here to pin the builders to them. *)

let all_minterms n = List.init (1 lsl n) Fun.id
let prime_array ~on ~dc =
  let n = Logic.Cover.nvars on in
  Array.of_list (Logic.Primes.to_cubes ~nvars:n (Logic.Primes.of_covers ~on ~dc))

(* every point tested against every ON and DC cube, every row against
   every prime *)
let reference_build ~on ~dc =
  let primes = prime_array ~on ~dc in
  let minterms =
    List.filter
      (fun m -> Logic.Cover.eval_minterm on m && not (Logic.Cover.eval_minterm dc m))
      (all_minterms (Logic.Cover.nvars on))
  in
  let rows =
    List.map
      (fun m ->
        List.filter
          (fun j -> Logic.Cube.covers_minterm primes.(j) m)
          (List.init (Array.length primes) Fun.id))
      minterms
  in
  (primes, minterms, rows)

let reference_multi_rows pla =
  let acc = ref [] in
  for k = 0 to pla.Logic.Pla.no - 1 do
    let on = Logic.Pla.onset pla k and dc = Logic.Pla.dcset pla k in
    List.iter
      (fun m -> if not (Logic.Cover.eval_minterm dc m) then acc := (m, k) :: !acc)
      (List.filter (Logic.Cover.eval_minterm on) (all_minterms pla.Logic.Pla.ni))
  done;
  List.sort_uniq Stdlib.compare !acc

(* refinement with both parts of every split built, then the merge of
   regions that share a signature *)
let reference_implicit ~on ~dc =
  let primes = prime_array ~on ~dc in
  let care_on = Bdd.bdiff (Logic.Cover.to_bdd on) (Logic.Cover.to_bdd dc) in
  let regions = ref (if Bdd.is_zero care_on then [] else [ (care_on, []) ]) in
  Array.iteri
    (fun j cube ->
      let b = Logic.Cube.to_bdd cube in
      regions :=
        List.concat_map
          (fun (region, signature) ->
            List.filter
              (fun (r, _) -> not (Bdd.is_zero r))
              [ (Bdd.band region b, j :: signature); (Bdd.bdiff region b, signature) ])
          !regions)
    primes;
  let table = Hashtbl.create 64 in
  List.iter
    (fun (region, signature) ->
      let key = List.rev signature in
      let prev = Option.value ~default:Bdd.zero (Hashtbl.find_opt table key) in
      Hashtbl.replace table key (Bdd.bor prev region))
    !regions;
  let rows = Hashtbl.fold (fun key region acc -> (key, region) :: acc) table [] in
  (primes, List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) rows)

(* A random incompletely specified function over 0 to 12 inputs.  The
   draws include overlapping ON and DC planes, ON ⊆ DC (no rows),
   repeated cubes, the universal cube and an empty ON plane. *)
let random_planes rng n =
  let cube () =
    Logic.Cube.of_string
      (String.init n (fun _ ->
           match Random.State.int rng 4 with 0 -> '0' | 1 -> '1' | _ -> '-'))
  in
  let cubes k = List.init k (fun _ -> cube ()) in
  let on = cubes (Random.State.int rng 6) in
  let on =
    match Random.State.int rng 6 with
    | 0 -> Logic.Cube.universe n :: on
    | 1 -> (match on with c :: _ -> c :: on | [] -> on)
    | _ -> on
  in
  let dc =
    match Random.State.int rng 4 with
    | 0 -> []
    | 1 -> on @ cubes (Random.State.int rng 2)
    | _ -> cubes (Random.State.int rng 4)
  in
  (Logic.Cover.of_cubes n on, Logic.Cover.of_cubes n dc)

let rows_of m = List.init (Matrix.n_rows m) (fun i -> Array.to_list (Matrix.row m i))
let costs_of m = List.init (Matrix.n_cols m) (Matrix.cost m)
let same_primes a b = Array.length a = Array.length b && Array.for_all2 Logic.Cube.equal a b

let prop_build_matches_scan =
  QCheck.Test.make ~name:"build = minterm scan" ~count:150 TS.arb_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let on, dc = random_planes rng (Random.State.int rng 13) in
      let cost c = 1 + Logic.Cube.literal_count c in
      match From_logic.build ~cost ~on ~dc () with
      | exception Invalid_argument _ -> Logic.Cover.is_empty on
      | b ->
        let primes, minterms, rows = reference_build ~on ~dc in
        same_primes b.From_logic.primes primes
        && Array.to_list b.From_logic.minterms = minterms
        && rows_of b.From_logic.matrix = rows
        && costs_of b.From_logic.matrix
           = Array.to_list (Array.map cost primes))

let prop_build_multi_matches_scan =
  QCheck.Test.make ~name:"build_multi = sorted scan" ~count:100 TS.arb_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ni = Random.State.int rng 13 and no = 1 + Random.State.int rng 4 in
      let planes = Array.init no (fun _ -> random_planes rng ni) in
      let rows =
        List.concat
          (List.init no (fun k ->
               let on, dc = planes.(k) in
               let plane c = String.init no (fun k' -> if k' = k then c else '0') in
               List.map (fun cube -> (cube, plane '1')) (Logic.Cover.cubes on)
               @ List.map (fun cube -> (cube, plane '-')) (Logic.Cover.cubes dc)))
      in
      let pla =
        {
          Logic.Pla.ni;
          no;
          kind = Logic.Pla.FD;
          input_labels = [||];
          output_labels = [||];
          rows;
        }
      in
      let want_rows = reference_multi_rows pla in
      Logic.Multi.rows pla = want_rows
      &&
      match From_logic.build_multi pla with
      | exception Invalid_argument _ -> want_rows = []
      | b ->
        let primes = b.From_logic.mprimes in
        Array.to_list b.From_logic.mrows = want_rows
        && rows_of b.From_logic.mmatrix
           = List.map
               (fun row ->
                 List.filter
                   (fun j -> Logic.Multi.covers_row primes.(j) row)
                   (List.init (Array.length primes) Fun.id))
               want_rows)

let prop_build_implicit_matches_refinement =
  QCheck.Test.make ~name:"build_implicit = unguarded refinement" ~count:150 TS.arb_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let on, dc = random_planes rng (Random.State.int rng 13) in
      let primes, rows = reference_implicit ~on ~dc in
      match From_logic.build_implicit ~on ~dc () with
      | exception Invalid_argument _ -> rows = []
      | b ->
        same_primes b.From_logic.iprimes primes
        && rows_of b.From_logic.imatrix = List.map fst rows
        && List.for_all2 Bdd.equal (Array.to_list b.From_logic.iregions) (List.map snd rows))

let () =
  Alcotest.run "covering"
    [
      ( "matrix",
        [
          Alcotest.test_case "create" `Quick test_matrix_create;
          Alcotest.test_case "validation" `Quick test_matrix_validation;
          Alcotest.test_case "submatrix" `Quick test_matrix_submatrix;
          Alcotest.test_case "irredundant" `Quick test_matrix_irredundant;
          Alcotest.test_case "zdd round trip" `Quick test_matrix_zdd_round_trip;
          Alcotest.test_case "virtual column" `Quick test_matrix_virtual_column;
          Alcotest.test_case "infeasible submatrix" `Quick test_matrix_submatrix_infeasible;
          Alcotest.test_case "density" `Quick test_matrix_density;
          Alcotest.test_case "irredundant guard" `Quick test_irredundant_rejects_non_cover;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "essential" `Quick test_essential_detection;
          Alcotest.test_case "row dominance" `Quick test_row_dominance;
          Alcotest.test_case "col dominance" `Quick test_col_dominance;
          Alcotest.test_case "triangle solves" `Quick test_cyclic_core_solves_triangle;
          Alcotest.test_case "cycle is core" `Quick test_cyclic_core_of_cycle;
          Alcotest.test_case "gimpel" `Quick test_gimpel_triggers;
          Alcotest.test_case "step fixpoint" `Quick test_step_none_on_cyclic_core;
          QCheck_alcotest.to_alcotest prop_reductions_preserve_optimum;
          QCheck_alcotest.to_alcotest prop_lift_cost_consistent;
        ] );
      ( "bounds and greedy",
        [
          Alcotest.test_case "mis fig1" `Quick test_mis_on_fig1;
          Alcotest.test_case "mis c5" `Quick test_mis_on_c5;
          QCheck_alcotest.to_alcotest prop_mis_below_optimum;
          QCheck_alcotest.to_alcotest prop_greedy_feasible;
          QCheck_alcotest.to_alcotest prop_exchange_no_worse;
          Alcotest.test_case "greedy infeasible" `Quick test_greedy_infeasible;
          Alcotest.test_case "partition" `Quick test_partition_blocks;
        ] );
      ( "bounds",
        [
          QCheck_alcotest.to_alcotest prop_row_induced_is_lower_bound;
          QCheck_alcotest.to_alcotest prop_strengthened_dominates_mis;
          Alcotest.test_case "row induced extremes" `Quick test_row_induced_full_is_optimum;
          Alcotest.test_case "c5 strengthened" `Quick test_strengthened_beats_mis_on_c5;
          QCheck_alcotest.to_alcotest prop_exact_with_extra_bound_agrees;
        ] );
      ( "exact",
        [
          QCheck_alcotest.to_alcotest prop_exact_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_exact_uniform;
          Alcotest.test_case "fig1" `Quick test_exact_fig1;
          Alcotest.test_case "ub parameter" `Quick test_exact_ub_parameter;
          Alcotest.test_case "node budget" `Quick test_exact_node_budget;
        ] );
      ( "implicit",
        [
          Alcotest.test_case "essentials" `Quick test_implicit_essentials;
          QCheck_alcotest.to_alcotest prop_implicit_agrees_with_explicit;
          QCheck_alcotest.to_alcotest prop_implicit_row_dominance_is_minimal;
        ] );
      ( "instance",
        [
          Alcotest.test_case "round trip" `Quick test_instance_round_trip;
          Alcotest.test_case "errors" `Quick test_instance_errors;
          Alcotest.test_case "orlib round trip" `Quick test_orlib_round_trip;
          Alcotest.test_case "orlib literal" `Quick test_orlib_literal;
          Alcotest.test_case "orlib errors" `Quick test_orlib_errors;
          Alcotest.test_case "orlib infeasible" `Quick test_orlib_infeasible;
        ] );
      ( "from_logic",
        [
          Alcotest.test_case "small" `Quick test_from_logic_small;
          Alcotest.test_case "lexicographic" `Quick test_from_logic_lexicographic;
          Alcotest.test_case "implicit build" `Quick test_build_implicit_agrees;
          Alcotest.test_case "implicit wide" `Quick test_build_implicit_wide_inputs;
          Alcotest.test_case "with dc" `Quick test_from_logic_with_dc;
          QCheck_alcotest.to_alcotest prop_build_matches_scan;
          QCheck_alcotest.to_alcotest prop_build_multi_matches_scan;
          QCheck_alcotest.to_alcotest prop_build_implicit_matches_refinement;
        ] );
    ]
