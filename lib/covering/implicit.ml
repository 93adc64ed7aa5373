type t = {
  rows : Zdd.t;
  n_cols : int;
  cost : int array;
  essential : int list;
}

let of_matrix m =
  (* the implicit phase runs before any reduction, so identifiers must
     still equal indices: otherwise decoded solutions would be ambiguous *)
  for j = 0 to Matrix.n_cols m - 1 do
    if Matrix.col_id m j <> j then
      invalid_arg "Implicit.of_matrix: matrix already re-indexed"
  done;
  {
    rows = Matrix.to_zdd m;
    n_cols = Matrix.n_cols m;
    cost = Array.init (Matrix.n_cols m) (Matrix.cost m);
    essential = [];
  }

let row_count t = Zdd.count t.rows
let is_solved t = Zdd.is_empty t.rows

let essential_step t =
  match Zdd.singletons t.rows with
  | [] -> None
  | singles ->
    let rows =
      List.fold_left (fun rows v -> Zdd.subset0 rows v) t.rows singles
    in
    Some { t with rows; essential = t.essential @ singles }

let dominance_step t =
  let m = Zdd.minimal t.rows in
  if Zdd.equal m t.rows then None else Some { t with rows = m }

let reduce ?(budget = Budget.none) ?(telemetry = Telemetry.null) ?(max_rows = 5000)
    ?(max_cols = 10_000) t =
  let small t =
    Zdd.count t.rows <= float_of_int max_rows
    && List.length (Zdd.support t.rows) <= max_cols
  in
  let nodes0 = Zdd.node_count () in
  let essential_step t =
    match essential_step t with
    | Some _ as r ->
      Telemetry.incr telemetry "implicit.essential_steps";
      r
    | None -> None
  in
  let dominance_step t =
    match dominance_step t with
    | Some _ as r ->
      Telemetry.incr telemetry "implicit.dominance_steps";
      r
    | None -> None
  in
  (* each recursion step is one checkpoint: on a budget trip the current,
     partially reduced family is returned — still the same covering
     problem, just less reduced, so decoding stays sound.  It is also a
     GC safe point: no ZDD operation is in flight between steps, so the
     only family that must survive a collection is [t.rows]. *)
  let rec go t =
    ignore (Zdd.Gc.maybe_collect ~roots:[ t.rows ] ());
    if is_solved t || small t then t
    else if Budget.tick budget Budget.Implicit_reduce then t
    else
      match essential_step t with
      | Some t' -> go t'
      | None -> (
        match dominance_step t with
        | Some t' -> go t'
        | None -> t)
  in
  let t' = go t in
  (* the unique table only grows, so the delta is this reduction's
     allocation (shared subgraphs included once) *)
  Telemetry.add telemetry "implicit.zdd_nodes_allocated"
    (max 0 (Zdd.node_count () - nodes0));
  t'

let decode t =
  let m = Matrix.of_sets ~cost:t.cost ~n_cols:t.n_cols t.rows in
  (m, t.essential)
