(* Tests for the Lagrangian engine: relaxation values, dual ascent,
   subgradient bounds, penalties and the Proposition-1 bound hierarchy,
   with the exact solver as the oracle throughout. *)

open Covering
module TS = Test_support
module L = Lagrangian

let check = Alcotest.(check bool)

let optimum m = Matrix.cost_of m (Exact.brute_force m)

(* ------------------------------------------------------------------ *)
(* Relaxation                                                         *)
(* ------------------------------------------------------------------ *)

let test_relax_zero_multipliers () =
  let m = TS.fig1_matrix () in
  let lambda = Array.make (Matrix.n_rows m) 0. in
  let ev = L.Relax.evaluate m lambda in
  (* with λ = 0 nothing is attractive: value 0, everything violated *)
  Alcotest.(check (float 1e-9)) "value" 0. ev.L.Relax.value;
  Alcotest.(check int) "violated" (Matrix.n_rows m) ev.L.Relax.violated;
  Array.iteri
    (fun j c ->
      Alcotest.(check (float 1e-9)) "cost" (float_of_int (Matrix.cost m j)) c)
    ev.L.Relax.reduced_costs

let test_relax_value_formula () =
  let m = TS.c5_matrix () in
  let lambda = Array.make 5 0.5 in
  let ev = L.Relax.evaluate m lambda in
  (* each column: cost 1, covered rows 2 → c̃ = 0 → in solution, value
     contribution 0; plus Σλ = 2.5 *)
  Alcotest.(check (float 1e-9)) "value 2.5" 2.5 ev.L.Relax.value;
  check "all selected" true (Array.for_all Fun.id ev.L.Relax.in_solution)

let prop_lagrangian_value_is_lower_bound =
  QCheck.Test.make ~name:"z_LP(λ) <= optimum for random λ" ~count:200
    (QCheck.pair TS.arb_seed TS.arb_seed) (fun (seed, lseed) ->
      let m = TS.small_matrix_of_seed seed in
      let rng = Random.State.make [| lseed |] in
      let lambda =
        Array.init (Matrix.n_rows m) (fun _ -> Random.State.float rng 3.0)
      in
      let ev = L.Relax.evaluate m lambda in
      ev.L.Relax.value <= float_of_int (optimum m) +. 1e-6)

let prop_dual_feasible_value_equals_lagrangian =
  QCheck.Test.make ~name:"dual-feasible m: z_LP(m) = w(m)" ~count:150 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let da = L.Dual_ascent.run m in
      let ev = L.Relax.evaluate m da.L.Dual_ascent.m in
      Float.abs (ev.L.Relax.value -. da.L.Dual_ascent.value) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Dual ascent                                                        *)
(* ------------------------------------------------------------------ *)

let prop_dual_ascent_feasible =
  QCheck.Test.make ~name:"dual ascent output is dual feasible" ~count:200 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let da = L.Dual_ascent.run m in
      L.Relax.dual_feasible m da.L.Dual_ascent.m)

let prop_dual_ascent_bound =
  QCheck.Test.make ~name:"dual ascent <= optimum" ~count:200 TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      (L.Dual_ascent.run m).L.Dual_ascent.value <= float_of_int (optimum m) +. 1e-6)

let prop_dual_ascent_dominates_mis =
  (* Proposition 1: LB_MIS <= LB_DA always *)
  QCheck.Test.make ~name:"dual ascent >= MIS bound" ~count:200 TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let mis = (Mis_bound.compute m).Mis_bound.bound in
      (L.Dual_ascent.run m).L.Dual_ascent.value >= float_of_int mis -. 1e-6)

let test_dual_ascent_fig1 () =
  let m = TS.fig1_matrix () in
  let da = L.Dual_ascent.run m in
  check "dual feasible" true (L.Relax.dual_feasible m da.L.Dual_ascent.m);
  check "beats MIS" true (da.L.Dual_ascent.value >= 2. -. 1e-9)

let prop_uniform_dual_integer_rounds_to_independent_set =
  (* under uniform costs an integer dual solution is an independent set;
     dual ascent with uniform costs produces 0/1 values *)
  QCheck.Test.make ~name:"uniform costs: dual ascent is 0/1" ~count:150 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed ~uniform:true seed in
      let da = L.Dual_ascent.run m in
      Array.for_all
        (fun v -> Float.abs v < 1e-9 || Float.abs (v -. 1.) < 1e-9)
        da.L.Dual_ascent.m)

(* ------------------------------------------------------------------ *)
(* Lagrangian greedy                                                  *)
(* ------------------------------------------------------------------ *)

let prop_lag_greedy_feasible =
  QCheck.Test.make ~name:"lagrangian greedy covers" ~count:150 TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let da = L.Dual_ascent.run m in
      let rc = L.Relax.lagrangian_costs m da.L.Dual_ascent.m in
      List.for_all
        (fun rule ->
          let sol = L.Lag_greedy.run ~rule m ~reduced_costs:rc in
          Matrix.covers m sol)
        Greedy.all_rules)

(* ------------------------------------------------------------------ *)
(* Subgradient                                                        *)
(* ------------------------------------------------------------------ *)

let prop_subgradient_bounds_bracket_optimum =
  QCheck.Test.make ~name:"subgradient: LB <= opt <= incumbent" ~count:100 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let opt = optimum m in
      let sg = L.Subgradient.run m in
      Matrix.covers m sg.L.Subgradient.best_solution
      && sg.L.Subgradient.best_cost >= opt
      && sg.L.Subgradient.lower_bound <= float_of_int opt +. 1e-6)

let prop_subgradient_beats_dual_ascent =
  (* Proposition 1: a properly initialised Lagrangian bound dominates the
     dual-ascent bound (it starts there and only improves) *)
  QCheck.Test.make ~name:"subgradient LB >= dual ascent LB" ~count:100 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let da = (L.Dual_ascent.run m).L.Dual_ascent.value in
      let sg = L.Subgradient.run m in
      sg.L.Subgradient.lower_bound >= da -. 1e-6)

let prop_subgradient_proof_is_sound =
  QCheck.Test.make ~name:"proven_optimal implies truly optimal" ~count:100 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let sg = L.Subgradient.run m in
      (not sg.L.Subgradient.proven_optimal) || sg.L.Subgradient.best_cost = optimum m)

let test_subgradient_c5 () =
  (* C5: LP bound 2.5 → ⌈LB⌉ = 3 = optimum; subgradient should prove it *)
  let m = TS.c5_matrix () in
  let sg = L.Subgradient.run m in
  Alcotest.(check int) "optimum 3" 3 sg.L.Subgradient.best_cost;
  check "lb reaches 2.5-ish" true (sg.L.Subgradient.lower_bound > 2.0);
  check "proven" true sg.L.Subgradient.proven_optimal

let test_subgradient_fig1_hierarchy () =
  (* the full Figure-1 story: MIS=1 < DA=2 <= Lagrangian LB <= 2.5 < OPT=3 *)
  let m = TS.fig1_matrix () in
  let mis = (Mis_bound.compute m).Mis_bound.bound in
  let da = (L.Dual_ascent.run m).L.Dual_ascent.value in
  let sg = L.Subgradient.run m in
  Alcotest.(check int) "MIS 1" 1 mis;
  check "DA >= 2" true (da >= 2. -. 1e-9);
  check "LB >= DA" true (sg.L.Subgradient.lower_bound >= da -. 1e-6);
  check "LB <= 2.5" true (sg.L.Subgradient.lower_bound <= 2.5 +. 1e-6);
  Alcotest.(check int) "optimum 3" 3 sg.L.Subgradient.best_cost

let test_subgradient_empty () =
  let m = Matrix.create ~n_cols:2 [] in
  let sg = L.Subgradient.run m in
  Alcotest.(check int) "cost 0" 0 sg.L.Subgradient.best_cost;
  check "proven" true sg.L.Subgradient.proven_optimal

(* A Randucp cyclic core of 14–40 columns, row-regular with k = 3 on
   even seeds and dense (a quarter of the columns per row) on odd ones,
   costs spread over 1–3: row-regular cores defeat essentiality and
   rarely hold a dominance, the profile of the descent's subproblems. *)
let core_of_seed seed =
  let rng = Random.State.make [| seed; 47 |] in
  let n_cols = 14 + Random.State.int rng 27 in
  let n_rows = n_cols + 4 + Random.State.int rng n_cols in
  let cost_spread = Random.State.int rng 3 in
  let name = Printf.sprintf "core-%d" seed in
  if seed mod 2 = 0 then Benchsuite.Randucp.cyclic ~name ~n_rows ~n_cols ~k:3 ~cost_spread ()
  else Benchsuite.Randucp.dense_cyclic ~name ~n_rows ~n_cols ~density:0.25 ~cost_spread ()

(* The stall rule.  [stall_window = 0] turns it off. *)
let no_stall = { L.Subgradient.default_config with L.Subgradient.stall_window = 0 }

let prop_stall_rule_spares_cold_runs =
  QCheck.Test.make ~name:"stall rule: a cold run is the same with it on and off"
    ~count:60 TS.arb_seed (fun seed ->
      let m = core_of_seed seed in
      let on = L.Subgradient.run m and off = L.Subgradient.run ~config:no_stall m in
      on = off && not on.L.Subgradient.stalled)

(* A warm run from a cold run's multipliers, scaled so that some warm
   runs still climb, under a random window: with the rule on
   it follows the unstalled run step for step until it stops, so it
   takes no more steps, its bound is the unstalled run's best bound at
   that step (so no higher than its final one), and an early stop is
   the rule's, on a multiple of the window. *)
let prop_stall_rule_cuts_warm_runs =
  QCheck.Test.make ~name:"stall rule: a warm run stops no later, on a window multiple"
    ~count:60 TS.arb_seed (fun seed ->
      let m = core_of_seed seed in
      let rng = Random.State.make [| seed; 5 |] in
      let cold = L.Subgradient.run m in
      let scale = [| 1.0; 0.8; 0.5 |].(Random.State.int rng 3) in
      let lambda0 = Array.map (fun x -> x *. scale) cold.L.Subgradient.lambda in
      let mu0 = cold.L.Subgradient.mu in
      let window = [| 5; 10; 30 |].(Random.State.int rng 3) in
      let on_config = { L.Subgradient.default_config with stall_window = window } in
      let best_at = Hashtbl.create 64 in
      let off =
        L.Subgradient.run ~config:no_stall ~lambda0 ~mu0
          ~on_step:(fun ~step ~value:_ ~best -> Hashtbl.replace best_at step best)
          m
      in
      let on = L.Subgradient.run ~config:on_config ~lambda0 ~mu0 m in
      let steps = on.L.Subgradient.steps in
      steps <= off.L.Subgradient.steps
      && on.L.Subgradient.lower_bound <= off.L.Subgradient.lower_bound
      && (steps = 0 || on.L.Subgradient.lower_bound = Hashtbl.find best_at steps)
      && (not off.L.Subgradient.stalled)
      && (steps = off.L.Subgradient.steps || on.L.Subgradient.stalled)
      && ((not on.L.Subgradient.stalled) || steps mod window = 0))

(* ------------------------------------------------------------------ *)
(* Exact LP relaxation                                                *)
(* ------------------------------------------------------------------ *)

let test_lp_known_values () =
  let lp m = (L.Lp.solve m).L.Lp.value in
  Alcotest.(check (float 1e-6)) "c5" 2.5 (lp (TS.c5_matrix ()));
  Alcotest.(check (float 1e-6)) "fig1" 2.5 (lp (TS.fig1_matrix ()));
  (* a totally unimodular instance: LP = IP *)
  let interval = Matrix.create ~n_cols:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2 ] ] in
  Alcotest.(check (float 1e-6)) "interval" 2. (lp interval)

let prop_lp_certificate =
  QCheck.Test.make ~name:"LP solution carries a valid certificate" ~count:150
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      L.Lp.check m (L.Lp.solve m))

let prop_proposition1_chain =
  (* the full bound hierarchy: MIS <= DA <= subgradient LB <= LP <= OPT,
     and the same run's best w_LD(μ) bounds the LP from above *)
  QCheck.Test.make ~name:"Proposition 1: MIS <= DA <= SG <= LP <= OPT" ~count:80
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let mis = float_of_int (Mis_bound.compute m).Mis_bound.bound in
      let da = (L.Dual_ascent.run m).L.Dual_ascent.value in
      let run = L.Subgradient.run m in
      let sg = run.L.Subgradient.lower_bound in
      let lp = (L.Lp.solve m).L.Lp.value in
      let opt = float_of_int (optimum m) in
      mis <= da +. 1e-6 && da <= lp +. 1e-6 && sg <= lp +. 1e-6 && lp <= opt +. 1e-6
      && lp <= run.L.Subgradient.upper_dual +. 1e-6)

let prop_lp_dual_is_valid_multiplier =
  (* any optimal dual is an optimal Lagrangian multiplier vector (§3.3) *)
  QCheck.Test.make ~name:"LP dual evaluates to the LP value as lambda" ~count:80
    TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let r = L.Lp.solve m in
      let clipped = Array.map (fun x -> Float.max x 0.) r.L.Lp.dual in
      let ev = L.Relax.evaluate m clipped in
      Float.abs (ev.L.Relax.value -. r.L.Lp.value) < 1e-6)

let prop_lp_empty_matrix () =
  let m = Matrix.create ~n_cols:3 [] in
  Alcotest.(check (float 0.)) "empty LP" 0. (L.Lp.solve m).L.Lp.value

(* ------------------------------------------------------------------ *)
(* Penalties                                                          *)
(* ------------------------------------------------------------------ *)

(* Oracle check: a forced-in column belongs to some optimal solution
   whenever the incumbent is beatable; a forced-out column is absent from
   every solution strictly better than z_best.  We verify the contrapositive
   with brute force: removing a forced-in column may not allow a solution
   cheaper than z_best; forcing a forced-out column in may not either. *)
let penalties_sound m z_best (o : L.Penalties.outcome) =
  let n = Matrix.n_cols m in
  let all_covers =
    (* enumerate all covers with cost < z_best *)
    let acc = ref [] in
    for mask = 0 to (1 lsl n) - 1 do
      let cols = List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init n Fun.id) in
      if Matrix.cost_of m cols < z_best && Matrix.covers m cols then acc := cols :: !acc
    done;
    !acc
  in
  List.for_all
    (fun j -> List.for_all (fun sol -> List.mem j sol) all_covers)
    o.L.Penalties.forced_in
  && List.for_all
       (fun j -> List.for_all (fun sol -> not (List.mem j sol)) all_covers)
       o.L.Penalties.forced_out

let prop_lagrangian_penalties_sound =
  QCheck.Test.make ~name:"lagrangian penalties are sound" ~count:150 TS.arb_seed
    (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let sg = L.Subgradient.run m in
      let z_best = sg.L.Subgradient.best_cost in
      let o =
        L.Penalties.lagrangian m ~lp_value:sg.L.Subgradient.lower_bound
          ~reduced_costs:sg.L.Subgradient.reduced_costs ~z_best
      in
      penalties_sound m z_best o)

let prop_dual_penalties_sound =
  QCheck.Test.make ~name:"dual penalties are sound" ~count:100 TS.arb_seed (fun seed ->
      let m = TS.small_matrix_of_seed seed in
      let z_best = optimum m + 1 in
      let o = L.Penalties.dual m ~z_best in
      penalties_sound m z_best o)

(* The (6) pre-test: [upper_dual] only skips passes that cannot fire,
   so the outcome is the same with and without it, at the incumbent, one
   above it, and just above the bound, where (6) fires most.  Each case
   checks a [core_of_seed] core and one of the golden corpus's generator
   cores within the [DualPen] gate of 100 columns, where the root run's
   [upper_dual] leaves passes to skip. *)
let golden_cores_within_gate =
  lazy
    (Array.of_list
       (List.filter_map
          (fun (_, _, build) ->
            let m = build () in
            if Matrix.n_cols m <= 100 then Some m else None)
          TS.golden_cores))

let prop_dual_pretest_is_exact =
  QCheck.Test.make ~name:"dual penalties: same outcome with and without upper_dual"
    ~count:100 TS.arb_seed (fun seed ->
      let golden = Lazy.force golden_cores_within_gate in
      List.for_all
        (fun m ->
          let sg = L.Subgradient.run m in
          let upper_dual = sg.L.Subgradient.upper_dual in
          List.for_all
            (fun z_best -> L.Penalties.dual ~upper_dual m ~z_best = L.Penalties.dual m ~z_best)
            [
              sg.L.Subgradient.best_cost;
              sg.L.Subgradient.best_cost + 1;
              int_of_float (Float.ceil sg.L.Subgradient.lower_bound) + 1;
            ])
        [ core_of_seed seed; golden.(seed mod Array.length golden) ])

let test_penalties_apply () =
  let m = TS.fig1_matrix () in
  (* cook an outcome by hand: force col 5 out, col 0 in *)
  let o = { L.Penalties.forced_in = [ 0 ]; forced_out = [ 5 ] } in
  match L.Penalties.apply m o with
  | None -> Alcotest.fail "expected feasible reduction"
  | Some (m', ids) ->
    Alcotest.(check (list int)) "ids" [ 0 ] ids;
    check "rows shrank" true (Matrix.n_rows m' < Matrix.n_rows m);
    check "col 5 gone" true (Matrix.col_index_of_id m' 5 = None)

(* ------------------------------------------------------------------ *)
(* Fixing                                                             *)
(* ------------------------------------------------------------------ *)

let test_fixing_sigma_and_pick () =
  let m = TS.c5_matrix () in
  let rc = [| 0.5; 0.1; 0.9; 0.2; 0.7 |] in
  let mu = [| 0.9; 0.1; 0.0; 0.8; 0.3 |] in
  let sigma = L.Fixing.sigma ~reduced_costs:rc ~mu () in
  (* σ = c̃ − 2μ *)
  Alcotest.(check (float 1e-9)) "sigma0" (-1.3) sigma.(0);
  let best = L.Fixing.best_columns ~sigma ~exclude:(Array.make 5 false) ~k:2 in
  Alcotest.(check (list int)) "two best" [ 3; 0 ] best;
  let j = L.Fixing.pick ~best_cols:1 ~rand:(fun _ -> 0) m ~reduced_costs:rc ~mu in
  Alcotest.(check int) "deterministic pick" 3 j

(* What [Scg.construct] did before [best_columns] took a mask: sort
   every column by (σ, j) under the polymorphic compare, take the first
   [k] plus one per excluded column, drop the excluded ones, and read
   the first [k] of what is left. *)
let best_columns_by_sort ~sigma ~exclude ~k =
  let n = Array.length sigma in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Stdlib.compare (sigma.(a), a) (sigma.(b), b)) order;
  let n_out = Array.fold_left (fun acc out -> if out then acc + 1 else acc) 0 exclude in
  Array.to_list (Array.sub order 0 (min (k + n_out) n))
  |> List.filter (fun j -> not exclude.(j))
  |> List.filteri (fun i _ -> i < k)

let prop_best_columns_match_sort =
  QCheck.Test.make ~name:"best_columns = sort, filter, take" ~count:300 TS.arb_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = Random.State.int rng 40 in
      (* few distinct values, so most columns tie on σ *)
      let values = [| -1.; -0.; 0.; 0.5; 2.; nan; infinity; neg_infinity |] in
      let sigma =
        Array.init n (fun _ -> values.(Random.State.int rng (Array.length values)))
      in
      let exclude = Array.init n (fun _ -> Random.State.int rng 3 = 0) in
      let k = 1 + Random.State.int rng 8 in
      L.Fixing.best_columns ~sigma ~exclude ~k = best_columns_by_sort ~sigma ~exclude ~k)

let test_fixing_promising () =
  let m = TS.c5_matrix () in
  let rc = [| 0.0005; 0.5; -0.2; 0.001; 0.002 |] in
  let mu = [| 1.0; 1.0; 0.9995; 0.5; 1.0 |] in
  let p = L.Fixing.promising m ~reduced_costs:rc ~mu in
  Alcotest.(check (list int)) "promising" [ 0; 2 ] p

(* ------------------------------------------------------------------ *)
(* Workspace kernels                                                  *)
(* ------------------------------------------------------------------ *)

(* a small member of one of the Randucp families, picked by the seed *)
let family_matrix seed =
  let name = Printf.sprintf "kernel-%d" seed and r = seed / 8 in
  let module R = Benchsuite.Randucp in
  match seed mod 8 with
  | 0 -> R.cyclic ~name ~n_rows:(12 + (r mod 20)) ~n_cols:(8 + (r mod 12)) ~k:3 ()
  | 1 ->
    R.cyclic ~name ~n_rows:(12 + (r mod 20)) ~n_cols:(8 + (r mod 12)) ~k:4
      ~cost_spread:3 ()
  | 2 ->
    R.dense_cyclic ~name ~n_rows:(16 + (r mod 16)) ~n_cols:(12 + (r mod 12))
      ~density:0.3 ()
  | 3 ->
    R.multi_component ~name ~parts:(2 + (r mod 2)) ~rows_per_part:10 ~cols_per_part:8 ()
  | 4 ->
    R.beasley ~name ~n_rows:(10 + (r mod 10)) ~n_cols:(30 + (r mod 30)) ~rows_per_col:3 ()
  | 5 -> R.powerlaw ~name ~n_rows:(10 + (r mod 20)) ~n_cols:(20 + (r mod 30)) ()
  | 6 -> R.reducible ~name ~n_rows:(10 + (r mod 20)) ~n_cols:(8 + (r mod 12)) ()
  | _ -> R.vertex_cover ~name ~n_vertices:(6 + (r mod 10)) ~n_edges:(10 + (r mod 20)) ()

(* λ ≥ 0 with some exact zeros; μ in [0, 1] with some exact bounds *)
let random_lambda rng m =
  Array.init (Matrix.n_rows m) (fun _ ->
      if Random.State.int rng 4 = 0 then 0. else Random.State.float rng 2.0)

let random_mu rng m =
  Array.init (Matrix.n_cols m) (fun _ ->
      match Random.State.int rng 4 with
      | 0 -> 0.
      | 1 -> 1.
      | _ -> Random.State.float rng 1.0)

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b

(* everything the two kernels write, copied out of the workspace *)
type snapshot = {
  c_tilde : float array;
  p_star : bool array;
  s : float array;
  z_lp : float;
  violated : int;
  m_star : float array;
  g : float array;
  w_ld : float;
}

let snapshot ws =
  let module R = L.Relax in
  {
    c_tilde = Array.copy ws.R.c_tilde;
    p_star = Array.copy ws.R.p_star;
    s = Array.copy ws.R.s;
    z_lp = ws.R.values.R.z_lp;
    violated = ws.R.n_violated;
    m_star = Array.copy ws.R.m_star;
    g = Array.copy ws.R.g;
    w_ld = ws.R.values.R.w_ld;
  }

let same_snapshot a b =
  same_floats a.c_tilde b.c_tilde && a.p_star = b.p_star && same_floats a.s b.s
  && same_float a.z_lp b.z_lp && a.violated = b.violated
  && same_floats a.m_star b.m_star && same_floats a.g b.g && same_float a.w_ld b.w_ld

let run_kernels ws lambda mu =
  L.Relax.primal ws lambda;
  L.Relax.dual ws mu;
  snapshot ws

let prop_workspace_reuse_is_fresh =
  QCheck.Test.make ~name:"workspace reused at λ₁ then λ₂ = fresh at λ₂, bit for bit"
    ~count:200 TS.arb_seed (fun seed ->
      let m = family_matrix seed in
      let rng = Random.State.make [| seed |] in
      let l1 = random_lambda rng m and l2 = random_lambda rng m in
      let u1 = random_mu rng m and u2 = random_mu rng m in
      let dense = if seed mod 2 = 0 then Some (Dense.of_matrix m) else None in
      let reused = L.Relax.workspace ?dense m in
      ignore (run_kernels reused l1 u1);
      let again = run_kernels reused l2 u2 in
      same_snapshot again (run_kernels (L.Relax.workspace ?dense m) l2 u2))

let prop_dense_mirror_identical =
  QCheck.Test.make ~name:"sparse and dense-mirror kernels agree bit for bit" ~count:200
    TS.arb_seed (fun seed ->
      let m = family_matrix seed in
      let rng = Random.State.make [| seed |] in
      let lambda = random_lambda rng m and mu = random_mu rng m in
      let dense = Dense.of_matrix m in
      let sparse_ev = L.Relax.evaluate m lambda
      and dense_ev = L.Relax.evaluate ~dense m lambda in
      same_snapshot
        (run_kernels (L.Relax.workspace m) lambda mu)
        (run_kernels (L.Relax.workspace ~dense m) lambda mu)
      && same_floats sparse_ev.L.Relax.reduced_costs dense_ev.L.Relax.reduced_costs
      && sparse_ev.L.Relax.in_solution = dense_ev.L.Relax.in_solution
      && same_float sparse_ev.L.Relax.value dense_ev.L.Relax.value
      && same_floats sparse_ev.L.Relax.subgradient dense_ev.L.Relax.subgradient
      && sparse_ev.L.Relax.violated = dense_ev.L.Relax.violated)

(* The .mli definitions as plain loops, one quantity at a time:
   z_LP = Σ_j min(c̃_j, 0) + Σ_i λ_i and s = e − A p*;
   w_LD = Σ_i max(ẽ_i, 0)·c̄_i + Σ_j μ_j c_j and g_j = c_j − Σ_i a_ij m*_i. *)
let reference_kernels m lambda mu =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  let cost j = float_of_int (Matrix.cost m j) in
  let c_tilde =
    Array.init n_cols (fun j ->
        Array.fold_left (fun acc i -> acc -. lambda.(i)) (cost j) (Matrix.col m j))
  in
  let p_star = Array.map (fun c -> c <= 0.) c_tilde in
  let z_lp = ref 0. in
  Array.iter (fun c -> if c <= 0. then z_lp := !z_lp +. c) c_tilde;
  Array.iter (fun l -> z_lp := !z_lp +. l) lambda;
  let s =
    Array.init n_rows (fun i ->
        let hits = Array.fold_left (fun n j -> if p_star.(j) then n + 1 else n) 0 (Matrix.row m i) in
        1. -. float_of_int hits)
  in
  let caps =
    Array.init n_rows (fun i ->
        Array.fold_left (fun acc j -> min acc (cost j)) infinity (Matrix.row m i))
  in
  let e_tilde =
    Array.init n_rows (fun i ->
        Array.fold_left (fun acc j -> acc -. mu.(j)) 1. (Matrix.row m i))
  in
  let m_star = Array.init n_rows (fun i -> if e_tilde.(i) > 0. then caps.(i) else 0.) in
  let w_ld = ref 0. in
  for i = 0 to n_rows - 1 do
    if e_tilde.(i) > 0. then w_ld := !w_ld +. (e_tilde.(i) *. caps.(i))
  done;
  for j = 0 to n_cols - 1 do
    w_ld := !w_ld +. (mu.(j) *. cost j)
  done;
  let g =
    Array.init n_cols (fun j ->
        Array.fold_left (fun acc i -> acc -. m_star.(i)) (cost j) (Matrix.col m j))
  in
  {
    c_tilde;
    p_star;
    s;
    z_lp = !z_lp;
    violated = Array.fold_left (fun n x -> if x > 0. then n + 1 else n) 0 s;
    m_star;
    g;
    w_ld = !w_ld;
  }

let prop_kernels_match_definitions =
  QCheck.Test.make ~name:"primal and fused dual kernels = the .mli formulas" ~count:200
    TS.arb_seed (fun seed ->
      let m = family_matrix seed in
      let rng = Random.State.make [| seed |] in
      let lambda = random_lambda rng m and mu = random_mu rng m in
      let ws = L.Relax.workspace m in
      same_snapshot (run_kernels ws lambda mu) (reference_kernels m lambda mu)
      && same_float (L.Relax.dual_lagrangian_value m ~mu) ws.L.Relax.values.L.Relax.w_ld
      && same_floats (L.Relax.dual_lagrangian_subgradient m ~mu) ws.L.Relax.g
      && same_floats (L.Relax.min_covering_costs m) ws.L.Relax.caps)

(* The greedy selection as an ascending scan per pick: strict [<] from
   +∞, so ties go to the lower index. *)
let reference_cover rule m ~costs =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  let covered = Array.make n_rows false and left = ref n_rows and chosen = ref [] in
  let take j =
    chosen := j :: !chosen;
    Array.iter
      (fun i ->
        if not covered.(i) then begin
          covered.(i) <- true;
          decr left
        end)
      (Matrix.col m j)
  in
  let row_unit i =
    let deg = Array.length (Matrix.row m i) in
    if deg <= 1 then 1e9 else 1. /. float_of_int (deg - 1)
  in
  for j = 0 to n_cols - 1 do
    if costs.(j) <= 0. then take j
  done;
  while !left > 0 do
    let best = ref (-1) and best_rate = ref infinity in
    for j = 0 to n_cols - 1 do
      let n_fresh = ref 0 and weight = ref 0. in
      Array.iter
        (fun i ->
          if not covered.(i) then begin
            incr n_fresh;
            weight := !weight +. row_unit i
          end)
        (Matrix.col m j);
      if !n_fresh > 0 then begin
        let c = costs.(j) in
        let r =
          if c <= 0. then c *. float_of_int !n_fresh
          else Greedy.rate rule ~cost:c ~n_fresh:!n_fresh ~row_weight:!weight
        in
        if r < !best_rate then begin
          best_rate := r;
          best := j
        end
      end
    done;
    if !best < 0 then failwith "reference_cover: no pickable column";
    take !best
  done;
  List.rev !chosen

let heap_matches_scan m ~costs =
  let dense = Dense.of_matrix m in
  List.for_all
    (fun rule ->
      let want = reference_cover rule m ~costs in
      Greedy.cover ~rule m ~costs = want && Greedy.cover ~rule ~dense m ~costs = want)
    Greedy.all_rules

let prop_heap_greedy_is_scan =
  QCheck.Test.make ~name:"heap greedy = ascending scan, all rules, both paths" ~count:200
    TS.arb_seed (fun seed ->
      let m = family_matrix seed in
      let rng = Random.State.make [| seed |] in
      let integer = Array.init (Matrix.n_cols m) (fun j -> float_of_int (Matrix.cost m j)) in
      heap_matches_scan m ~costs:integer
      && heap_matches_scan m ~costs:(L.Relax.lagrangian_costs m (random_lambda rng m)))

(* uniform costs: rates tie all the time, so the index tie-break decides *)
let prop_heap_greedy_uniform_ties =
  QCheck.Test.make ~name:"heap greedy = ascending scan under uniform costs" ~count:150
    TS.arb_seed (fun seed ->
      let name = Printf.sprintf "ties-%d" seed in
      let m =
        match seed mod 3 with
        | 0 -> Benchsuite.Randucp.cyclic ~name ~n_rows:24 ~n_cols:16 ~k:3 ()
        | 1 -> Benchsuite.Randucp.dense_cyclic ~name ~n_rows:24 ~n_cols:16 ~density:0.25 ()
        | _ -> Benchsuite.Randucp.vertex_cover ~name ~n_vertices:12 ~n_edges:24 ()
      in
      let uniform = Array.make (Matrix.n_cols m) 1. in
      (* one λ value everywhere: reduced costs 1 − k·λ tie by degree *)
      let flat = Array.make (Matrix.n_rows m) (float_of_int (1 + (seed mod 4)) /. 8.) in
      heap_matches_scan m ~costs:uniform
      && heap_matches_scan m ~costs:(L.Relax.lagrangian_costs m flat))

(* [Subgradient.run] keeps a relaxed optimum p* as a cover whenever the
   primal kernel reports no violated row, without asking
   [Matrix.covers]: no s_i = 1 − |row_i ∩ p*| above 0 must mean p*
   covers.  λ is scaled up on some draws so that every row is often
   covered. *)
let prop_no_violated_row_means_cover =
  QCheck.Test.make ~name:"n_violated = 0 implies p* covers" ~count:300 TS.arb_seed
    (fun seed ->
      let m = family_matrix seed in
      let rng = Random.State.make [| seed |] in
      let scale = float_of_int (1 + Random.State.int rng 4) in
      let lambda = Array.map (fun l -> scale *. l) (random_lambda rng m) in
      let ws = L.Relax.workspace m in
      L.Relax.primal ws lambda;
      let p_star = List.filter (fun j -> ws.L.Relax.p_star.(j)) (List.init (Matrix.n_cols m) Fun.id) in
      ws.L.Relax.n_violated <> 0 || Matrix.covers m p_star)

(* the per-step kernels allocate nothing once the workspace exists: not
   even z_LP or w_LD are boxed *)
let test_kernels_allocate_nothing () =
  let m =
    Benchsuite.Randucp.dense_cyclic ~name:"alloc" ~n_rows:40 ~n_cols:30 ~density:0.25 ()
  in
  let lambda = Array.make (Matrix.n_rows m) 0.3 and mu = Array.make (Matrix.n_cols m) 0.5 in
  List.iter
    (fun (path, dense) ->
      let ws = L.Relax.workspace ?dense m in
      L.Relax.primal ws lambda;
      L.Relax.dual ws mu;
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        L.Relax.primal ws lambda
      done;
      let w1 = Gc.minor_words () in
      for _ = 1 to 1000 do
        L.Relax.dual ws mu
      done;
      let w2 = Gc.minor_words () in
      Alcotest.(check (float 0.)) (path ^ " primal words") 0. (w1 -. w0);
      Alcotest.(check (float 0.)) (path ^ " dual words") 0. (w2 -. w1))
    [ ("sparse", None); ("dense", Some (Dense.of_matrix m)) ]

let () =
  Alcotest.run "lagrangian"
    [
      ( "relax",
        [
          Alcotest.test_case "zero multipliers" `Quick test_relax_zero_multipliers;
          Alcotest.test_case "value formula" `Quick test_relax_value_formula;
          QCheck_alcotest.to_alcotest prop_lagrangian_value_is_lower_bound;
          QCheck_alcotest.to_alcotest prop_dual_feasible_value_equals_lagrangian;
        ] );
      ( "dual ascent",
        [
          QCheck_alcotest.to_alcotest prop_dual_ascent_feasible;
          QCheck_alcotest.to_alcotest prop_dual_ascent_bound;
          QCheck_alcotest.to_alcotest prop_dual_ascent_dominates_mis;
          Alcotest.test_case "fig1" `Quick test_dual_ascent_fig1;
          QCheck_alcotest.to_alcotest prop_uniform_dual_integer_rounds_to_independent_set;
        ] );
      ( "kernels",
        [
          QCheck_alcotest.to_alcotest prop_workspace_reuse_is_fresh;
          QCheck_alcotest.to_alcotest prop_dense_mirror_identical;
          QCheck_alcotest.to_alcotest prop_kernels_match_definitions;
          QCheck_alcotest.to_alcotest prop_heap_greedy_is_scan;
          QCheck_alcotest.to_alcotest prop_heap_greedy_uniform_ties;
          QCheck_alcotest.to_alcotest prop_no_violated_row_means_cover;
          Alcotest.test_case "no allocation" `Quick test_kernels_allocate_nothing;
        ] );
      ("lag greedy", [ QCheck_alcotest.to_alcotest prop_lag_greedy_feasible ]);
      ( "subgradient",
        [
          QCheck_alcotest.to_alcotest prop_subgradient_bounds_bracket_optimum;
          QCheck_alcotest.to_alcotest prop_subgradient_beats_dual_ascent;
          QCheck_alcotest.to_alcotest prop_subgradient_proof_is_sound;
          Alcotest.test_case "c5" `Quick test_subgradient_c5;
          Alcotest.test_case "fig1 hierarchy" `Quick test_subgradient_fig1_hierarchy;
          Alcotest.test_case "empty" `Quick test_subgradient_empty;
          QCheck_alcotest.to_alcotest prop_stall_rule_spares_cold_runs;
          QCheck_alcotest.to_alcotest prop_stall_rule_cuts_warm_runs;
        ] );
      ( "lp",
        [
          Alcotest.test_case "known values" `Quick test_lp_known_values;
          QCheck_alcotest.to_alcotest prop_lp_certificate;
          QCheck_alcotest.to_alcotest prop_proposition1_chain;
          QCheck_alcotest.to_alcotest prop_lp_dual_is_valid_multiplier;
          Alcotest.test_case "empty matrix" `Quick prop_lp_empty_matrix;
        ] );
      ( "penalties",
        [
          QCheck_alcotest.to_alcotest prop_lagrangian_penalties_sound;
          QCheck_alcotest.to_alcotest prop_dual_penalties_sound;
          QCheck_alcotest.to_alcotest prop_dual_pretest_is_exact;
          Alcotest.test_case "apply" `Quick test_penalties_apply;
        ] );
      ( "fixing",
        [
          Alcotest.test_case "sigma and pick" `Quick test_fixing_sigma_and_pick;
          Alcotest.test_case "promising" `Quick test_fixing_promising;
          QCheck_alcotest.to_alcotest prop_best_columns_match_sort;
        ] );
    ]
