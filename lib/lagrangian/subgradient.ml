module Matrix = Covering.Matrix
module Greedy = Covering.Greedy

type config = {
  max_steps : int;
  halve_after : int;
  t0 : float;
  t_min : float;
  delta : float;
  stall_window : int;
  heuristic_period : int;
}

let default_config =
  {
    max_steps = 500;
    halve_after = 20;
    t0 = 2.0;
    t_min = 0.005;
    delta = 0.01;
    stall_window = 30;
    heuristic_period = 10;
  }

type outcome = {
  lambda : float array;
  mu : float array;
  lower_bound : float;
  upper_dual : float;
  best_solution : int list;
  best_cost : int;
  steps : int;
  stalled : bool;
  proven_optimal : bool;
  reduced_costs : float array;
}

let eps = 1e-9

(* a warm run stalls when its best bound gained at most this fraction of
   its absolute value over the last [stall_window] steps *)
let stall_gain = 0.01

let ceil_int x = int_of_float (Float.ceil (x -. 1e-6))

let run ?(budget = Budget.none) ?(config = default_config)
    ?(dense_threshold = Covering.Dense.default_threshold) ?lambda0 ?mu0 ?ub
    ?on_step m =
  let n_rows = Matrix.n_rows m and n_cols = Matrix.n_cols m in
  if n_rows = 0 then
    {
      lambda = [||];
      mu = Array.make n_cols 0.;
      lower_bound = 0.;
      upper_dual = 0.;
      best_solution = [];
      best_cost = 0;
      steps = 0;
      stalled = false;
      proven_optimal = true;
      reduced_costs = Array.init n_cols (fun j -> float_of_int (Matrix.cost m j));
    }
  else begin
    let lambda =
      match lambda0 with
      | Some l ->
        if Array.length l <> n_rows then invalid_arg "Subgradient.run: lambda0 length";
        Array.map (fun x -> Float.max x 0.) l
      | None -> Dual_ascent.to_lambda (Dual_ascent.run ~budget m)
    in
    (* one bitset mirror for the whole ascent: the relaxation sweep and
       every greedy refresh below share it (None above the threshold) *)
    let dense = Covering.Dense.attach ~threshold:dense_threshold m in
    (* incumbent from the plain greedy (also seeds μ₀) *)
    let seed_sol = Greedy.solve_best ?dense m in
    let best_solution = ref seed_sol in
    let best_cost = ref (Matrix.cost_of m seed_sol) in
    (* a caller-provided [ub] carries no solution, so it never replaces
       the incumbent — it only sharpens the step-size estimate below *)
    let ub_hint = match ub with Some u -> float_of_int u | None -> infinity in
    let mu =
      match mu0 with
      | Some v ->
        if Array.length v <> n_cols then invalid_arg "Subgradient.run: mu0 length";
        Array.map (fun x -> Float.min (Float.max x 0.) 1.) v
      | None ->
        let ind = Array.make n_cols 0. in
        List.iter (fun j -> ind.(j) <- 1.) seed_sol;
        ind
    in
    (* one workspace for the whole ascent: the caps are hoisted out of
       the loop, and every step below overwrites its buffers in place *)
    let ws = Relax.workspace ?dense m in
    let values = ws.Relax.values in
    let best_lambda = Array.copy lambda in
    let best_reduced = Relax.lagrangian_costs m lambda in
    let lower_bound = ref neg_infinity in
    let best_mu = Array.copy mu in
    (* the pruning buffers of the relaxed covers below *)
    let chosen = Array.make n_cols false and times = Array.make n_rows 0 in
    Relax.dual ws mu;
    let upper_dual = ref values.Relax.w_ld in
    let t = ref config.t0 in
    let since_improve = ref 0 in
    let steps = ref 0 in
    let stop = ref false in
    (* the stall rule watches warm runs only: a cold run is the bound a
       caller certifies, so it keeps the full schedule *)
    let stall_window = if lambda0 = None then 0 else config.stall_window in
    let window_lb = ref neg_infinity and stalled = ref false in
    let try_solution sol =
      let cost = Matrix.cost_of m sol in
      if cost < !best_cost then begin
        best_cost := cost;
        best_solution := sol
      end
    in
    (* the budget tick rides the loop condition: a trip simply ends the
       ascent early — the best bound so far (or 0) stays valid, and the
       final incumbent refresh below still runs *)
    while
      (not !stop)
      && !steps < config.max_steps
      && not (Budget.tick budget Budget.Subgradient)
    do
      incr steps;
      Relax.primal ws lambda;
      let value = values.Relax.z_lp in
      (* track the best bound and the multipliers achieving it *)
      if value > !lower_bound +. eps then begin
        lower_bound := value;
        Array.blit lambda 0 best_lambda 0 n_rows;
        Array.blit ws.Relax.c_tilde 0 best_reduced 0 n_cols;
        since_improve := 0
      end
      else incr since_improve;
      (match on_step with
      | Some f -> f ~step:!steps ~value ~best:!lower_bound
      | None -> ());
      if !since_improve >= config.halve_after then begin
        t := !t /. 2.;
        since_improve := 0
      end;
      (* periodic Lagrangian heuristic (§3.5) *)
      if !steps = 1 || !steps mod config.heuristic_period = 0 then
        try_solution (Lag_greedy.run ?dense m ~reduced_costs:ws.Relax.c_tilde);
      (* a feasible relaxed solution is a cover worth keeping.  No row
         has s_i = 1 − |row_i ∩ p*| > 0, so p* covers every row: it is
         pruned in the run's own buffers, and becomes a list only when
         it beats the incumbent *)
      if ws.Relax.n_violated = 0 then begin
        Array.blit ws.Relax.p_star 0 chosen 0 n_cols;
        let cost = Matrix.prune m ~chosen ~times in
        if cost < !best_cost then begin
          let sol = ref [] in
          for j = n_cols - 1 downto 0 do
            if chosen.(j) then sol := j :: !sol
          done;
          best_cost := cost;
          best_solution := !sol
        end
      end;
      (* stopping rules.  The incumbent test uses the integer gap; the
         δ test measures convergence of λ against the continuous
         estimates of z_P* only — mixing the integer incumbent into it
         would stop long before the bound is tight. *)
      let ub_est = Float.min (float_of_int !best_cost) (Float.min !upper_dual ub_hint) in
      (* at the end of each window, the best bound's gain over it *)
      let stall =
        stall_window > 0
        && !steps mod stall_window = 0
        &&
        let gain = !lower_bound -. !window_lb in
        window_lb := !lower_bound;
        gain <= stall_gain *. Float.abs !lower_bound
      in
      if float_of_int !best_cost <= float_of_int (ceil_int !lower_bound) +. eps then
        stop := true (* incumbent equals ⌈LB⌉: proven optimal *)
      else if Float.min !upper_dual ub_hint -. !lower_bound < config.delta then
        stop := true
      else if !t < config.t_min then stop := true
      else if stall then begin
        stalled := true;
        stop := true
      end
      else begin
        (* primal update: formula (2).  [if v <= 0. then 0. else v] is
           [Float.max 0. v] for every v, ±0 and nan included *)
        let s = ws.Relax.s in
        let norm2 = ref 0. in
        for i = 0 to n_rows - 1 do
          norm2 := !norm2 +. (s.(i) *. s.(i))
        done;
        let norm2 = !norm2 in
        if norm2 < eps then stop := true
        else begin
          let scale = !t *. Float.abs (ub_est -. value) /. norm2 in
          for i = 0 to n_rows - 1 do
            let v = lambda.(i) +. (scale *. s.(i)) in
            lambda.(i) <- (if v <= 0. then 0. else v)
          done
        end;
        (* dual-side update: descend on w_LD, clamping μ into [0,1] (the
           optimal μ equals the fractional primal optimum, which lives
           there); the clamp is [Float.min 1. (Float.max 0. v)] *)
        Relax.dual ws mu;
        let w = values.Relax.w_ld in
        if w < !upper_dual -. eps then begin
          upper_dual := w;
          Array.blit mu 0 best_mu 0 n_cols
        end;
        let g = ws.Relax.g in
        let gnorm2 = ref 0. in
        for j = 0 to n_cols - 1 do
          gnorm2 := !gnorm2 +. (g.(j) *. g.(j))
        done;
        let gnorm2 = !gnorm2 in
        if gnorm2 >= eps then begin
          let lb_ref = Float.max !lower_bound 0. in
          let scale = !t *. Float.abs (w -. lb_ref) /. gnorm2 in
          for j = 0 to n_cols - 1 do
            let v = mu.(j) -. (scale *. g.(j)) in
            let v = if v <= 0. then 0. else v in
            mu.(j) <- (if v > 1. then 1. else v)
          done
        end
      end
    done;
    (* final refresh of the incumbent at the best multipliers *)
    try_solution (Lag_greedy.run_all_rules ?dense m ~reduced_costs:best_reduced);
    let lb = if !lower_bound = neg_infinity then 0. else !lower_bound in
    {
      lambda = best_lambda;
      mu = best_mu;
      lower_bound = lb;
      upper_dual = !upper_dual;
      best_solution = !best_solution;
      best_cost = !best_cost;
      steps = !steps;
      stalled = !stalled;
      proven_optimal = !best_cost <= ceil_int lb;
      reduced_costs = best_reduced;
    }
  end
