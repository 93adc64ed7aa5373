type t = {
  input_rows : int;
  input_cols : int;
  implicit_rows_left : float;
  core_rows : int;
  core_cols : int;
  essential_count : int;
  cyclic_core_seconds : float;
  total_seconds : float;
  subgradient_steps : int;
  warm_steps : int;
  warm_stalls : int;
  iterations : int;
  best_iteration : int;
  fixes : int;
  penalty_fixes : int;
  budget_trip : string option;
}

let zero =
  {
    input_rows = 0;
    input_cols = 0;
    implicit_rows_left = 0.;
    core_rows = 0;
    core_cols = 0;
    essential_count = 0;
    cyclic_core_seconds = 0.;
    total_seconds = 0.;
    subgradient_steps = 0;
    warm_steps = 0;
    warm_stalls = 0;
    iterations = 0;
    best_iteration = 0;
    fixes = 0;
    penalty_fixes = 0;
    budget_trip = None;
  }

let to_json s =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("input_rows", J.Int s.input_rows);
      ("input_cols", J.Int s.input_cols);
      ("implicit_rows_left", J.Float s.implicit_rows_left);
      ("core_rows", J.Int s.core_rows);
      ("core_cols", J.Int s.core_cols);
      ("essential_count", J.Int s.essential_count);
      ("cyclic_core_seconds", J.Float s.cyclic_core_seconds);
      ("total_seconds", J.Float s.total_seconds);
      ("subgradient_steps", J.Int s.subgradient_steps);
      ("warm_steps", J.Int s.warm_steps);
      ("warm_stalls", J.Int s.warm_stalls);
      ("iterations", J.Int s.iterations);
      ("best_iteration", J.Int s.best_iteration);
      ("fixes", J.Int s.fixes);
      ("penalty_fixes", J.Int s.penalty_fixes);
      ( "budget_trip",
        match s.budget_trip with None -> J.Null | Some d -> J.String d );
    ]

let pp ppf s =
  Fmt.pf ppf
    "@[<v>input %dx%d -> core %dx%d (essentials %d)@,\
     CC %.2fs, total %.2fs, %d subgradient steps, %d runs (best at %d), %d fixes (%d by penalty)%a@]"
    s.input_rows s.input_cols s.core_rows s.core_cols s.essential_count
    s.cyclic_core_seconds s.total_seconds s.subgradient_steps s.iterations
    s.best_iteration s.fixes s.penalty_fixes
    (Fmt.option (fun ppf d -> Fmt.pf ppf "@,budget exhausted: %s" d))
    s.budget_trip
