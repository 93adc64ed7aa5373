module Matrix = Covering.Matrix
module Greedy = Covering.Greedy

let run ?(rule = Greedy.Cost_per_row) ?dense m ~reduced_costs =
  if Array.length reduced_costs <> Matrix.n_cols m then
    invalid_arg "Lag_greedy.run: reduced cost length mismatch";
  if Matrix.n_rows m = 0 then []
  else
    Matrix.irredundant m (Greedy.cover ~rule ?dense m ~costs:reduced_costs)

let run_all_rules ?dense m ~reduced_costs =
  let candidates =
    List.map (fun rule -> run ~rule ?dense m ~reduced_costs) Greedy.all_rules
  in
  match candidates with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun best sol -> if Matrix.cost_of m sol < Matrix.cost_of m best then sol else best)
      first rest
