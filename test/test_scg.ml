(* End-to-end tests for the ZDD_SCG solver: feasibility and bound
   soundness on random matrices (exact solver as oracle), optimality on
   structured instances, and the PLA → primes → covering → solution
   pipeline. *)

open Covering
module TS = Test_support

let check = Alcotest.(check bool)

let optimum m = Matrix.cost_of m (Exact.brute_force m)

let fast_config =
  {
    Scg.Config.default with
    Scg.Config.num_iter = 3;
    subgradient = { Lagrangian.Subgradient.default_config with max_steps = 120 };
  }

let bracketed m ~opt (r : Scg.result) =
  Matrix.covers m r.Scg.solution
  && Matrix.cost_of m r.Scg.solution = r.Scg.cost
  && r.Scg.cost >= opt
  && r.Scg.lower_bound <= opt

(* A row-regular cyclic core of 14–20 columns: big enough for full
   descents, reused roots and budget trips under the default
   configuration, small enough for brute force. *)
let cyclic_of_seed seed =
  let rng = Random.State.make [| seed; 31 |] in
  let n_cols = 14 + Random.State.int rng 7 in
  Benchsuite.Randucp.cyclic ~name:(Printf.sprintf "bracket-%d" seed)
    ~n_rows:(n_cols + 4 + Random.State.int rng n_cols)
    ~n_cols ~k:3 ~cost_spread:(Random.State.int rng 3) ()

(* Every third seed also solves a cyclic core, unbudgeted and under a
   random step budget of 1–2,000 steps: a tripped solve, and one that
   reuses a root before or after its trip, must still bracket the
   optimum. *)
let prop_scg_feasible_and_bracketed =
  QCheck.Test.make ~name:"scg: cover, LB <= opt <= cost" ~count:80 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      bracketed m ~opt:(optimum m) (Scg.solve ~config:fast_config m)
      && (seed mod 3 <> 0
         ||
         let c = cyclic_of_seed seed in
         let opt = optimum c in
         let steps = 1 + (seed / 3 mod 2000) in
         bracketed c ~opt (Scg.solve c)
         && bracketed c ~opt (Scg.solve ~budget:(Scg.Budget.create ~steps ()) c)))

let prop_scg_proof_sound =
  QCheck.Test.make ~name:"scg: proven_optimal implies optimal" ~count:80 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let r = Scg.solve ~config:fast_config m in
      (not r.Scg.proven_optimal) || r.Scg.cost = optimum m)

let prop_scg_hits_optimum_small =
  (* on these tiny instances the heuristic should essentially always land
     on the optimum (the paper's experience on the easy set) *)
  QCheck.Test.make ~name:"scg finds the optimum on small instances" ~count:60
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let r = Scg.solve ~config:fast_config m in
      r.Scg.cost = optimum m)

let prop_scg_uniform =
  QCheck.Test.make ~name:"scg on uniform costs" ~count:60 TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed ~uniform:true seed in
      let r = Scg.solve ~config:fast_config m in
      Matrix.covers m r.Scg.solution && r.Scg.cost >= optimum m)

let test_scg_c5 () =
  let r = Scg.solve (TS.c5_matrix ()) in
  Alcotest.(check int) "cost 3" 3 r.Scg.cost;
  check "proven" true r.Scg.proven_optimal;
  Alcotest.(check int) "lb 3" 3 r.Scg.lower_bound

let test_scg_fig1 () =
  let r = Scg.solve (TS.fig1_matrix ()) in
  Alcotest.(check int) "cost 3" 3 r.Scg.cost;
  check "proven" true r.Scg.proven_optimal

let test_scg_fully_reducible () =
  (* reductions alone solve it; no subgradient phase should be needed *)
  let m = Matrix.create ~n_cols:3 [ [ 2 ]; [ 1; 2 ]; [ 0; 1 ] ] in
  let r = Scg.solve m in
  check "proven" true r.Scg.proven_optimal;
  Alcotest.(check int) "no iterations" 0 r.Scg.stats.Scg.Stats.iterations;
  (* no constructive run ever ran, let alone improved the incumbent: the
     paper's MaxIter column must read 0, not a phantom 1 *)
  Alcotest.(check int) "best_iteration 0" 0 r.Scg.stats.Scg.Stats.best_iteration

let test_best_iteration_bounded () =
  (* best_iteration is 1-based and can never exceed the number of runs
     actually performed; 0 means the greedy seed was never beaten *)
  List.iter
    (fun name ->
      let m = Benchsuite.Registry.matrix (Benchsuite.Registry.find name) in
      let r = Scg.solve ~config:fast_config m in
      let s = r.Scg.stats in
      check
        (name ^ ": 0 <= best_iteration <= iterations")
        true
        (s.Scg.Stats.best_iteration >= 0
        && s.Scg.Stats.best_iteration <= s.Scg.Stats.iterations))
    [ "bench1"; "t1"; "exam" ]

(* ------------------------------------------------------------------ *)
(* Warm-start memory                                                  *)
(* ------------------------------------------------------------------ *)

let test_warm_lambda0 () =
  let open Scg.Warm in
  let m2 = Matrix.create ~n_cols:2 [ [ 0 ]; [ 1 ] ] in
  let w = create () in
  check "empty memory cold-starts" true (lambda0 w m2 = None);
  store_rows w m2 [| 1.5; 2.5 |];
  check "full hit" true (lambda0 w m2 = Some [| 1.5; 2.5 |]);
  (* the regression: a matrix with a row the memory has never seen must
     cold-start even though the memory is non-empty — the old guard
     ([!missing && length = 0]) could never fire and handed back a
     zero-padded vector instead *)
  let m3 =
    Matrix.of_parts ~n_cols:2
      ~rows:[| [| 0 |]; [| 1 |]; [| 0; 1 |] |]
      ~cost:[| 1; 1 |] ~row_ids:[| 0; 1; 7 |] ~col_ids:[| 0; 1 |]
  in
  check "partial miss cold-starts" true (lambda0 w m3 = None);
  (* values are keyed by row identifier, so re-indexed submatrices still
     hit: same ids in another order *)
  let m2' =
    Matrix.of_parts ~n_cols:2
      ~rows:[| [| 1 |]; [| 0 |] |]
      ~cost:[| 1; 1 |] ~row_ids:[| 1; 0 |] ~col_ids:[| 0; 1 |]
  in
  check "keyed by id" true (lambda0 w m2' = Some [| 2.5; 1.5 |])

let test_warm_mu0 () =
  let open Scg.Warm in
  let m2 = Matrix.create ~n_cols:2 [ [ 0 ]; [ 1 ] ] in
  let w = create () in
  check "empty memory" true (mu0 w m2 = None);
  store_cols w m2 [| 0.25; 0.75 |];
  check "full hit" true (mu0 w m2 = Some [| 0.25; 0.75 |]);
  (* unlike λ, a missing column zero-fills: μ = 0 is a meaningful
     "column unused" estimate *)
  let m3 =
    Matrix.of_parts ~n_cols:3
      ~rows:[| [| 0 |]; [| 1 |]; [| 2 |] |]
      ~cost:[| 1; 1; 1 |] ~row_ids:[| 0; 1; 2 |] ~col_ids:[| 0; 1; 9 |]
  in
  check "miss zero-fills" true (mu0 w m3 = Some [| 0.25; 0.75; 0. |])

(* Each component keeps its last cold root, and a solve reuses it; the
   governor is charged for every reused step, so a step budget still
   caps the steps a solve reports. *)
let reused_steps ?budget m =
  let t = Scg.Telemetry.create () in
  let r = Scg.solve ?budget ~telemetry:t m in
  (r, Scg.Telemetry.counter t "subgradient.reused_steps")

let test_root_memo () =
  let m = Benchsuite.Registry.matrix (Benchsuite.Registry.find "bench1") in
  let _, cold = reused_steps m in
  check "a cold solve reuses roots" true (cold > 0);
  (* t1's roots take about 375 steps: under these caps some are reused
     before the budget trips *)
  let t1 = Benchsuite.Registry.matrix (Benchsuite.Registry.find "t1") in
  List.iter
    (fun cap ->
      let r, reused = reused_steps ~budget:(Scg.Budget.create ~steps:cap ()) t1 in
      let ctx = Printf.sprintf "%d-step budget: %s" cap in
      check (ctx "roots reused") true (reused > 0);
      check (ctx "tripped") true (r.Scg.stats.Scg.Stats.budget_trip <> None);
      check (ctx "steps within it") true (r.Scg.stats.Scg.Stats.subgradient_steps <= cap))
    [ 2000; 2500 ]

(* The stall rule shortens warm runs only, and only cold roots certify
   a bound: on every generator core of the golden corpus, under its
   budget, the lower bound is the same with the rule on and off.  The
   stats say where the steps went: warm runs are part of all runs, the
   rule ended some of them, and with it off it ends none. *)
let test_stall_rule_keeps_bounds () =
  let off =
    {
      Scg.Config.default with
      Scg.Config.subgradient =
        { Lagrangian.Subgradient.default_config with stall_window = 0 };
    }
  in
  let stalls = ref 0 in
  List.iter
    (fun (name, steps, build) ->
      let m = build () in
      let solve config =
        let budget =
          match steps with Some steps -> Scg.Budget.create ~steps () | None -> Scg.Budget.none
        in
        Scg.solve ~budget ~config m
      in
      let r_on = solve Scg.Config.default and r_off = solve off in
      let s_on = r_on.Scg.stats and s_off = r_off.Scg.stats in
      Alcotest.(check int) (name ^ " lower bound") r_off.Scg.lower_bound r_on.Scg.lower_bound;
      check (name ^ " warm steps within all") true
        (s_on.Scg.Stats.warm_steps <= s_on.Scg.Stats.subgradient_steps);
      Alcotest.(check int) (name ^ " no stall when off") 0 s_off.Scg.Stats.warm_stalls;
      stalls := !stalls + s_on.Scg.Stats.warm_stalls)
    TS.golden_cores;
  check "the rule ended some warm runs" true (!stalls > 0);
  let cold = { Scg.Config.default with Scg.Config.warm_start = false } in
  let r = Scg.solve ~config:cold (cyclic_of_seed 3) in
  Alcotest.(check int) "no warm steps without warm starts" 0 r.Scg.stats.Scg.Stats.warm_steps

(* Within the MaxR/MaxC guards the solve skips the implicit phase and
   builds no ZDD at all: a pristine domain's manager never holds a node.
   MaxR = 0 puts the same input above the guard, where it does. *)
let test_no_zdd_within_guards () =
  let m = Benchsuite.Registry.matrix (Benchsuite.Registry.find "bench1") in
  let peak config =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (Scg.solve ~config m);
           Zdd.peak_node_count ()))
  in
  Alcotest.(check int) "bench1 builds no node" 0 (peak Scg.Config.default);
  check "above the guard it does" true
    (peak { Scg.Config.default with Scg.Config.max_rows_implicit = 0 } > 0)

let test_scg_partitioned_core () =
  (* two disjoint odd cycles: componentwise bounds compose — each block
     proves ceil(2.5) = 3, so the total 6 is proven even though the joint
     LP bound (5) would not reach it *)
  let rows5 base = List.init 5 (fun i -> [ base + i; base + ((i + 1) mod 5) ]) in
  let m = Matrix.create ~n_cols:10 (rows5 0 @ rows5 5) in
  let r = Scg.solve m in
  Alcotest.(check int) "cost 6" 6 r.Scg.cost;
  Alcotest.(check int) "lb 6" 6 r.Scg.lower_bound;
  check "proven via partitioning" true r.Scg.proven_optimal

let test_scg_deterministic () =
  let m = TS.medium_matrix_of_seed 77 in
  let r1 = Scg.solve m in
  (* no state outlives a solve: one in between changes nothing *)
  ignore (Scg.solve (cyclic_of_seed 77));
  let r2 = Scg.solve m in
  Alcotest.(check int) "same cost" r1.Scg.cost r2.Scg.cost;
  Alcotest.(check (list int)) "same solution" r1.Scg.solution r2.Scg.solution;
  Alcotest.(check int) "same lower bound" r1.Scg.lower_bound r2.Scg.lower_bound;
  Alcotest.(check int) "same steps" r1.Scg.stats.Scg.Stats.subgradient_steps
    r2.Scg.stats.Scg.Stats.subgradient_steps;
  let other_seed = { Scg.Config.default with Scg.Config.seed = 999 } in
  let r3 = Scg.solve ~config:other_seed m in
  check "other seed still feasible" true (Matrix.covers m r3.Scg.solution)

let test_scg_medium_vs_exact () =
  List.iter
    (fun seed ->
      let m = TS.medium_matrix_of_seed seed in
      let e = Exact.solve m in
      let r = Scg.solve m in
      check "feasible" true (Matrix.covers m r.Scg.solution);
      check "lb sound" true (r.Scg.lower_bound <= e.Exact.cost);
      (* heuristic stays close: within one unit on these sizes *)
      check "near optimal" true (r.Scg.cost <= e.Exact.cost + 1))
    [ 11; 23; 37; 58; 71 ]

let test_scg_unused_columns () =
  (* columns covering nothing must be ignored, not crash anything *)
  let m = Matrix.create ~n_cols:6 [ [ 0; 1 ]; [ 1; 5 ] ] in
  (* columns 2, 3, 4 cover no row *)
  let r = Scg.solve m in
  check "covers" true (Matrix.covers m r.Scg.solution);
  Alcotest.(check int) "cost 1" 1 r.Scg.cost;
  check "proven" true r.Scg.proven_optimal

let test_scg_single_row () =
  let m = Matrix.create ~cost:[| 5; 2; 9 |] ~n_cols:3 [ [ 0; 1; 2 ] ] in
  let r = Scg.solve m in
  Alcotest.(check (list int)) "cheapest column" [ 1 ] r.Scg.solution;
  Alcotest.(check int) "cost 2" 2 r.Scg.cost

let test_scg_rejects_reindexed () =
  let m = TS.small_matrix_of_seed 3 in
  let sub =
    Matrix.submatrix m
      ~keep_rows:(Array.make (Matrix.n_rows m) true)
      ~keep_cols:(Array.init (Matrix.n_cols m) (fun j -> j <> 0))
  in
  match Scg.solve sub with
  | exception Invalid_argument _ -> ()
  | _ ->
    (* only fails if column 0 covered nothing; then ids are still 0.. *)
    check "ok" true true

(* ------------------------------------------------------------------ *)
(* Logic pipeline                                                     *)
(* ------------------------------------------------------------------ *)

let test_scg_logic_pipeline () =
  (* f = majority(x0,x1,x2): minimal SOP is 3 products *)
  let on =
    Logic.Cover.of_cubes 3
      [
        Logic.Cube.of_string "11-";
        Logic.Cube.of_string "1-1";
        Logic.Cube.of_string "-11";
      ]
  in
  let r, bridge = Scg.solve_logic ~on ~dc:(Logic.Cover.empty 3) () in
  Alcotest.(check int) "three products" 3 r.Scg.cost;
  check "proven" true r.Scg.proven_optimal;
  let cover = From_logic.cover_of_solution bridge r.Scg.solution in
  check "semantics" true (Logic.Cover.equal_semantics cover on)

let test_scg_pla_pipeline () =
  let pla =
    Logic.Pla.parse ".i 4\n.o 1\n.type fd\n1111 1\n0000 1\n11-- -\n--11 -\n.e\n"
  in
  let r, bridge = Scg.solve_pla pla ~output:0 in
  check "feasible" true
    (From_logic.verify_solution bridge r.Scg.solution);
  check "at most 2 products" true (r.Scg.cost <= 2)

let test_scg_implicit_pipeline () =
  (* 28 inputs — impossible for the minterm-expansion path *)
  let n = 28 in
  let on =
    Logic.Cover.of_cubes n
      [
        Logic.Cube.of_literals n [ (0, true); (5, true) ];
        Logic.Cube.of_literals n [ (0, false); (9, true) ];
        Logic.Cube.of_literals n [ (5, true); (9, true) ];
      ]
  in
  let r, bridge = Scg.solve_logic_implicit ~on ~dc:(Logic.Cover.empty n) () in
  Alcotest.(check int) "two products" 2 r.Scg.cost;
  check "proven" true r.Scg.proven_optimal;
  check "verified by BDD" true (From_logic.verify_implicit bridge r.Scg.solution)

let test_scg_xor_pipeline () =
  (* xor of 3 variables: every minterm is its own prime → cost 4 *)
  let cubes =
    [ "001"; "010"; "100"; "111" ] |> List.map Logic.Cube.of_string
  in
  let on = Logic.Cover.of_cubes 3 cubes in
  let r, _ = Scg.solve_logic ~on ~dc:(Logic.Cover.empty 3) () in
  Alcotest.(check int) "four products" 4 r.Scg.cost;
  check "proven" true r.Scg.proven_optimal

let () =
  Alcotest.run "scg"
    [
      ( "matrix solving",
        [
          QCheck_alcotest.to_alcotest prop_scg_feasible_and_bracketed;
          QCheck_alcotest.to_alcotest prop_scg_proof_sound;
          QCheck_alcotest.to_alcotest prop_scg_hits_optimum_small;
          QCheck_alcotest.to_alcotest prop_scg_uniform;
          Alcotest.test_case "c5" `Quick test_scg_c5;
          Alcotest.test_case "fig1" `Quick test_scg_fig1;
          Alcotest.test_case "fully reducible" `Quick test_scg_fully_reducible;
          Alcotest.test_case "best_iteration bounded" `Quick
            test_best_iteration_bounded;
          Alcotest.test_case "warm lambda0" `Quick test_warm_lambda0;
          Alcotest.test_case "warm mu0" `Quick test_warm_mu0;
          Alcotest.test_case "root memo" `Quick test_root_memo;
          Alcotest.test_case "stall rule keeps bounds" `Quick test_stall_rule_keeps_bounds;
          Alcotest.test_case "no ZDD within the guards" `Quick
            test_no_zdd_within_guards;
          Alcotest.test_case "partitioned core" `Quick test_scg_partitioned_core;
          Alcotest.test_case "deterministic" `Quick test_scg_deterministic;
          Alcotest.test_case "medium vs exact" `Slow test_scg_medium_vs_exact;
          Alcotest.test_case "reindex guard" `Quick test_scg_rejects_reindexed;
          Alcotest.test_case "unused columns" `Quick test_scg_unused_columns;
          Alcotest.test_case "single row" `Quick test_scg_single_row;
        ] );
      ( "logic pipeline",
        [
          Alcotest.test_case "majority" `Quick test_scg_logic_pipeline;
          Alcotest.test_case "pla" `Quick test_scg_pla_pipeline;
          Alcotest.test_case "xor3" `Quick test_scg_xor_pipeline;
          Alcotest.test_case "implicit wide" `Quick test_scg_implicit_pipeline;
        ] );
    ]
