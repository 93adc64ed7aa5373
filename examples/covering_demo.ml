(* Pure covering: the paper's machinery on a structured matrix with no
   logic behind it — a Steiner triple system, the classical cyclic-core
   stress test — plus the worked Figure-1 bound ladder and a penalty
   demonstration.

   Run with:  dune exec examples/covering_demo.exe *)

let bound_ladder name m =
  let mis = Covering.Mis_bound.compute m in
  let da = Lagrangian.Dual_ascent.run m in
  let sg = Lagrangian.Subgradient.run m in
  Format.printf "%-12s MIS %2d | dual ascent %5.2f | Lagrangian %6.3f | incumbent %d@."
    name mis.Covering.Mis_bound.bound da.Lagrangian.Dual_ascent.value
    sg.Lagrangian.Subgradient.lower_bound sg.Lagrangian.Subgradient.best_cost

let () =
  (* 1. the Figure-1 ladder: each bound strictly better than the last *)
  Format.printf "== bound hierarchy (Proposition 1) ==@.";
  bound_ladder "fig1" (Benchsuite.Worked.fig1 ());
  bound_ladder "c5" (Benchsuite.Worked.c5 ());
  Format.printf "@.";

  (* 2. a Steiner triple system: 35 triples over 15 points, perfectly
     regular, so no reduction applies — a born cyclic core *)
  Format.printf "== stein15: a born cyclic core ==@.";
  let m = Benchsuite.Steiner.matrix 15 in
  let red = Covering.Reduce2.cyclic_core m in
  Format.printf "reductions: %dx%d -> %dx%d (nothing to remove)@."
    (Covering.Matrix.n_rows m) (Covering.Matrix.n_cols m)
    (Covering.Matrix.n_rows red.Covering.Reduce.core)
    (Covering.Matrix.n_cols red.Covering.Reduce.core);
  let r = Scg.solve m in
  let e = Covering.Exact.solve m in
  Format.printf "ZDD_SCG: cost %d (LB %d)%s; exact: %d in %d nodes@.@." r.Scg.cost
    r.Scg.lower_bound
    (if r.Scg.proven_optimal then " proven" else "")
    e.Covering.Exact.cost e.Covering.Exact.nodes;

  (* 3. penalties in action: with a good incumbent, Lagrangian and dual
     penalties fix columns without any branching *)
  Format.printf "== penalty conditions (paper section 3.6) ==@.";
  let m = Benchsuite.Randucp.cyclic ~name:"demo" ~n_rows:40 ~n_cols:25 ~k:3 ~cost_spread:3 () in
  let sg = Lagrangian.Subgradient.run m in
  let pen_lag =
    Lagrangian.Penalties.lagrangian m ~lp_value:sg.Lagrangian.Subgradient.lower_bound
      ~reduced_costs:sg.Lagrangian.Subgradient.reduced_costs
      ~z_best:sg.Lagrangian.Subgradient.best_cost
  in
  let pen_dual = Lagrangian.Penalties.dual m ~z_best:sg.Lagrangian.Subgradient.best_cost in
  Format.printf "incumbent %d, LB %.2f@." sg.Lagrangian.Subgradient.best_cost
    sg.Lagrangian.Subgradient.lower_bound;
  Format.printf "lagrangian penalties: %d forced in, %d forced out@."
    (List.length pen_lag.Lagrangian.Penalties.forced_in)
    (List.length pen_lag.Lagrangian.Penalties.forced_out);
  Format.printf "dual penalties:       %d forced in, %d forced out@."
    (List.length pen_dual.Lagrangian.Penalties.forced_in)
    (List.length pen_dual.Lagrangian.Penalties.forced_out);
  (* penalties are sound: applying them must not lose the optimum *)
  let opt = (Covering.Exact.solve m).Covering.Exact.cost in
  (match
     Lagrangian.Penalties.apply m
       {
         Lagrangian.Penalties.forced_in =
           List.sort_uniq Stdlib.compare
             (pen_lag.Lagrangian.Penalties.forced_in
             @ pen_dual.Lagrangian.Penalties.forced_in);
         forced_out =
           List.sort_uniq Stdlib.compare
             (pen_lag.Lagrangian.Penalties.forced_out
             @ pen_dual.Lagrangian.Penalties.forced_out);
       }
   with
  | None -> Format.printf "penalties prove the incumbent optimal@."
  | Some (m', ids) ->
    let rest = (Covering.Exact.solve m').Covering.Exact.cost in
    let fixed = List.length ids in
    Format.printf "after penalties: %d columns fixed, %dx%d remain; optimum preserved: %b@."
      fixed (Covering.Matrix.n_rows m') (Covering.Matrix.n_cols m')
      (Covering.Matrix.cost_of_ids ~original:m ids + rest <= opt
      || sg.Lagrangian.Subgradient.best_cost = opt))
