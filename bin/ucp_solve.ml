(* ucp_solve — command-line front end.

   Solves unate covering problems given as `.ucp` matrix files, `.pla`
   two-level descriptions, OR-Library `.scp`/`.txt` files, or named
   instances of the built-in benchmark registry, with a choice of solver:
   the paper's ZDD_SCG heuristic, the exact branch-and-bound, the Chvátal
   greedy family, or the espresso-style baseline (PLA inputs only).

   Several inputs may be given at once; `--jobs N` then solves them
   concurrently on N worker domains (with a single input it parallelises
   over cyclic-core components instead).  Reports are printed in input
   order whatever finished first.

   Exit codes (see also the man page):
     0  solved (answer printed)
     2  usage error: bad flags, unrecognised extension, wrong solver/input mix
     3  resource budget exhausted or interrupted by SIGINT/SIGTERM — the
        best feasible answer found is still printed, with its (valid)
        lower bound (a second signal aborts immediately with 130)
     4  parse error in an input file, or a well-formed PLA the covering
        bridge rejects (nothing to cover, too many inputs or outputs)
     5  input file not found or unreadable
     6  unknown benchmark instance
     7  infeasible: some row of the matrix has no covering column
   With several inputs the worst outcome wins: 4 if the bridge rejected
   any input, else 7 if any instance is infeasible, else 3 if any budget
   tripped, else 0. *)

open Cmdliner

type solver =
  | Solver_scg
  | Solver_exact
  | Solver_greedy
  | Solver_espresso

type input =
  | From_ucp of string
  | From_orlib of string
  | From_pla of string
  | From_registry of string

(* distinct failure exits: 5 when the file cannot be opened at all, 4 when
   it opened but its contents are malformed — the parsers only ever raise
   [Logic.Parse_error.Parse_error] on bad content.  The single-input path
   needs these failures as exceptions rather than exits so its telemetry
   sinks can be flushed before the process dies; [Load_error] carries the
   exit code and the message of that contract. *)
exception Load_error of { code : int; msg : string }

let load_file_exn ~budget parse p =
  if not (Sys.file_exists p) then
    raise (Load_error { code = 5; msg = Fmt.str "no such file: %s" p });
  try parse ~budget p with
  | Logic.Parse_error.Parse_error e ->
    (* the streaming parsers checkpoint the governor mid-file; a parse
       cut short by the deadline or a signal is a budget outcome (3),
       not malformed input (4) *)
    let code = if Budget.tripped budget <> None then 3 else 4 in
    raise (Load_error { code; msg = Fmt.str "%a" Logic.Parse_error.pp e })
  | Sys_error msg ->
    raise (Load_error { code = 5; msg = "cannot read input: " ^ msg })

let load_input_exn ~budget = function
  | From_ucp path ->
    `Matrix (load_file_exn ~budget (fun ~budget -> Covering.Instance.parse_file ~budget) path)
  | From_orlib path ->
    `Matrix
      (load_file_exn ~budget (fun ~budget -> Covering.Instance.parse_orlib_file ~budget) path)
  | From_pla path ->
    `Pla (load_file_exn ~budget (fun ~budget -> Logic.Pla.parse_file ~budget) path)
  | From_registry name -> (
    match Benchsuite.Registry.find name with
    | inst -> (
      match Lazy.force inst.Benchsuite.Registry.problem with
      | Benchsuite.Registry.Raw m -> `Matrix m
      | Benchsuite.Registry.Two_level spec -> `Spec spec
      | Benchsuite.Registry.Multi_level pla -> `Pla pla)
    | exception Not_found ->
      raise
        (Load_error
           {
             code = 6;
             msg =
               Fmt.str
                 "unknown benchmark instance %S (and no such file); use --list"
                 name;
           }))

let load_input ~budget input =
  try load_input_exn ~budget input
  with Load_error { code; msg } ->
    Fmt.epr "ucp_solve: %s@." msg;
    exit code

(* A well-formed PLA the bridge cannot turn into a covering problem
   (nothing to cover, more than 24 inputs, more than 16 outputs) is bad
   input, so it exits 4 like a parse error; ucp_serve answers the same
   bytes with PARSE_ERROR.  Only the build is guarded, and only against
   the bridge's own rejections, told apart by their messages: any other
   Invalid_argument (a bounds check, say) and any exception from the
   solve itself stay a crash. *)
let bridge_rejection what =
  List.exists
    (fun prefix -> String.starts_with ~prefix what)
    [ "From_logic."; "Multi.primes: too many"; "Cover.minterms: too many" ]

let build_bridge ~telemetry ~name ~matrix build =
  match Scg.bridge ~telemetry ~matrix build with
  | bridge -> bridge
  | exception Invalid_argument what when bridge_rejection what ->
    raise (Load_error { code = 4; msg = Fmt.str "%s: %s" name what })

let classify input_kind p =
  match input_kind with
  | `Auto ->
    if Filename.check_suffix p ".pla" then From_pla p
    else if Filename.check_suffix p ".ucp" then From_ucp p
    else if Filename.check_suffix p ".scp" || Filename.check_suffix p ".txt" then
      From_orlib p
    else if Sys.file_exists p then begin
      (* a real file with an extension we cannot dispatch on must
         not silently fall through to the benchmark registry *)
      Fmt.epr
        "ucp_solve: %s exists but has no recognised extension \
         (.pla/.ucp/.scp/.txt); pass --kind@."
        p;
      exit 2
    end
    else From_registry p
  | `Pla -> From_pla p
  | `Ucp -> From_ucp p
  | `Orlib -> From_orlib p
  | `Bench -> From_registry p

let print_list () =
  List.iter
    (fun i ->
      Fmt.pr "%-12s %s@." i.Benchsuite.Registry.name
        (Benchsuite.Registry.string_of_category i.Benchsuite.Registry.category))
    (Benchsuite.Registry.all ())

(* every solve_* returns the solver-specific fields of the --stats-json
   object *)
let scg_fields (r : Scg.result) =
  let module J = Telemetry.Json in
  [
    ("solver", J.String "scg");
    ("cost", J.Int r.Scg.cost);
    ("lower_bound", J.Int r.Scg.lower_bound);
    ("proven_optimal", J.Bool r.Scg.proven_optimal);
    ( "status",
      J.String
        (match r.Scg.status with
        | Scg.Optimal -> "optimal"
        | Scg.Feasible -> "feasible"
        | Scg.Feasible_budget_exhausted _ -> "budget-exhausted") );
    ("stats", Scg.Stats.to_json r.Scg.stats);
  ]

(* the solve_* helpers print to [ppf], not the standard formatter: with
   one input [ppf] is the standard formatter, in batch mode a
   per-instance buffer so concurrent workers never interleave reports *)
let solve_matrix ppf ~budget ~telemetry ~config solver max_nodes m =
  let module J = Telemetry.Json in
  let n_rows = Covering.Matrix.n_rows m and n_cols = Covering.Matrix.n_cols m in
  Fmt.pf ppf "problem: %d rows x %d cols (density %.3f)@." n_rows n_cols
    (Covering.Matrix.density m);
  match solver with
  | Solver_scg ->
    let r = Scg.solve ~budget ~telemetry ~config m in
    let qualifier =
      match r.Scg.status with
      | Scg.Optimal -> " (proven optimal)"
      | Scg.Feasible -> ""
      | Scg.Feasible_budget_exhausted _ -> " (budget exhausted)"
    in
    Fmt.pf ppf "scg: cost %d, lower bound %d%s@." r.Scg.cost r.Scg.lower_bound
      qualifier;
    Fmt.pf ppf "columns: %a@." Fmt.(list ~sep:sp int) r.Scg.solution;
    Fmt.pf ppf "%a@." Scg.Stats.pp r.Scg.stats;
    scg_fields r
  | Solver_exact ->
    let r = Covering.Exact.solve ~budget ~max_nodes m in
    Fmt.pf ppf "exact: cost %d (%s, %d nodes, lower bound %d)@." r.Covering.Exact.cost
      (if r.Covering.Exact.optimal then "optimal" else "node budget exhausted")
      r.Covering.Exact.nodes r.Covering.Exact.lower_bound;
    Fmt.pf ppf "columns: %a@." Fmt.(list ~sep:sp int) r.Covering.Exact.solution;
    [
      ("solver", J.String "exact");
      ("cost", J.Int r.Covering.Exact.cost);
      ("lower_bound", J.Int r.Covering.Exact.lower_bound);
      ("proven_optimal", J.Bool r.Covering.Exact.optimal);
      ("nodes", J.Int r.Covering.Exact.nodes);
    ]
  | Solver_greedy ->
    let sol = Covering.Greedy.solve_exchange m in
    Fmt.pf ppf "greedy: cost %d@." (Covering.Matrix.cost_of m sol);
    Fmt.pf ppf "columns: %a@." Fmt.(list ~sep:sp int) sol;
    [ ("solver", J.String "greedy"); ("cost", J.Int (Covering.Matrix.cost_of m sol)) ]
  | Solver_espresso ->
    Fmt.epr "espresso mode needs a two-level input (.pla or a two-level instance)@.";
    exit 2

let solve_spec ppf ~budget ~telemetry ~config solver max_nodes
    (spec : Benchsuite.Plagen.spec) =
  let module J = Telemetry.Json in
  let build () =
    build_bridge ~telemetry ~name:spec.name
      ~matrix:(fun b -> b.Covering.From_logic.matrix)
      (fun () -> Covering.From_logic.build ~on:spec.on ~dc:spec.dc ())
  in
  match solver with
  | Solver_espresso ->
    let strong =
      Espresso.minimise ~budget ~telemetry ~mode:Espresso.Strong ~on:spec.on
        ~dc:spec.dc ()
    in
    let normal =
      Espresso.minimise ~budget ~telemetry ~mode:Espresso.Normal ~on:spec.on
        ~dc:spec.dc ()
    in
    let tag (r : Espresso.result) = if r.Espresso.interrupted then " [interrupted]" else "" in
    Fmt.pf ppf "espresso normal: %d products / %d literals (%.2fs)%s@."
      normal.Espresso.cost normal.Espresso.literals normal.Espresso.seconds (tag normal);
    Fmt.pf ppf "espresso strong: %d products / %d literals (%.2fs)%s@."
      strong.Espresso.cost strong.Espresso.literals strong.Espresso.seconds (tag strong);
    let fields tag (r : Espresso.result) =
      ( tag,
        J.Obj
          [
            ("products", J.Int r.Espresso.cost);
            ("literals", J.Int r.Espresso.literals);
            ("loops", J.Int r.Espresso.loops);
            ("seconds", J.Float r.Espresso.seconds);
            ("interrupted", J.Bool r.Espresso.interrupted);
          ] )
    in
    [ ("solver", J.String "espresso"); fields "normal" normal; fields "strong" strong ]
  | Solver_scg ->
    let bridge = build () in
    let r = Scg.solve ~budget ~telemetry ~config bridge.Covering.From_logic.matrix in
    Fmt.pf ppf "scg: %d products, lower bound %d%s@." r.Scg.cost r.Scg.lower_bound
      (if r.Scg.proven_optimal then " (proven optimal)" else "");
    let cover = Covering.From_logic.cover_of_solution bridge r.Scg.solution in
    Fmt.pf ppf "@[<v>cover:@,%a@]@." Logic.Cover.pp cover;
    scg_fields r
  | Solver_exact | Solver_greedy ->
    solve_matrix ppf ~budget ~telemetry ~config solver max_nodes
      (build ()).Covering.From_logic.matrix

let solve_multi ppf ~budget ~telemetry ~config ~name solver pla =
  let module J = Telemetry.Json in
  let build () =
    build_bridge ~telemetry ~name
      ~matrix:(fun b -> b.Covering.From_logic.mmatrix)
      (fun () -> Covering.From_logic.build_multi pla)
  in
  match solver with
  | Solver_scg ->
    let bridge = build () in
    let r = Scg.solve ~budget ~telemetry ~config bridge.Covering.From_logic.mmatrix in
    Fmt.pf ppf "scg (shared products): %d rows, lower bound %d%s@." r.Scg.cost
      r.Scg.lower_bound
      (if r.Scg.proven_optimal then " (proven optimal)" else "");
    let out = Covering.From_logic.pla_of_multi_solution pla bridge r.Scg.solution in
    Fmt.pf ppf "%s@." (Logic.Pla.to_string out);
    scg_fields r
  | Solver_exact ->
    let bridge = build () in
    let r = Covering.Exact.solve ~budget bridge.Covering.From_logic.mmatrix in
    Fmt.pf ppf "exact (shared products): %d rows (%s, %d nodes)@."
      r.Covering.Exact.cost
      (if r.Covering.Exact.optimal then "optimal" else "budget exhausted")
      r.Covering.Exact.nodes;
    [
      ("solver", J.String "exact");
      ("cost", J.Int r.Covering.Exact.cost);
      ("proven_optimal", J.Bool r.Covering.Exact.optimal);
      ("nodes", J.Int r.Covering.Exact.nodes);
    ]
  | Solver_greedy | Solver_espresso ->
    Fmt.epr "--multi supports the scg and exact solvers@.";
    exit 2

(* dispatch one loaded input; [name] labels the synthetic spec built for a
   single PLA output *)
let solve_loaded ppf ~budget ~telemetry ~config ~multi ~output ~name solver
    max_nodes loaded =
  match loaded with
  | `Matrix m -> solve_matrix ppf ~budget ~telemetry ~config solver max_nodes m
  | `Spec spec -> solve_spec ppf ~budget ~telemetry ~config solver max_nodes spec
  | `Pla pla when multi -> solve_multi ppf ~budget ~telemetry ~config ~name solver pla
  | `Pla pla ->
    if output < 0 || output >= pla.Logic.Pla.no then begin
      Fmt.epr "output %d out of range (PLA has %d outputs)@." output
        pla.Logic.Pla.no;
      exit 2
    end;
    let spec =
      {
        Benchsuite.Plagen.name;
        ni = pla.Logic.Pla.ni;
        on = Logic.Pla.onset pla output;
        dc = Logic.Pla.dcset pla output;
      }
    in
    solve_spec ppf ~budget ~telemetry ~config solver max_nodes spec

(* Usage errors must fire before any worker domain starts: past this
   point the batch solve closures never call [exit].  Mirrors the checks
   inside solve_matrix / solve_multi / solve_loaded. *)
let check_batch_compat solver ~multi ~output name loaded =
  match (loaded, solver) with
  | `Matrix _, Solver_espresso ->
    Fmt.epr
      "ucp_solve: %s: espresso mode needs a two-level input (.pla or a \
       two-level instance)@."
      name;
    exit 2
  | `Pla _, (Solver_greedy | Solver_espresso) when multi ->
    Fmt.epr "--multi supports the scg and exact solvers@.";
    exit 2
  | `Pla pla, _ when (not multi) && (output < 0 || output >= pla.Logic.Pla.no) ->
    Fmt.epr "ucp_solve: %s: output %d out of range (PLA has %d outputs)@." name
      output pla.Logic.Pla.no;
    exit 2
  | _ -> ()

let make_budget timeout zdd_nodes max_steps fault_after fault_site =
  let fault_site =
    match fault_site with
    | None -> None
    | Some s -> (
      match Budget.site_of_string s with
      | Some site -> Some site
      | None ->
        Fmt.epr "ucp_solve: unknown --fault-site %S (one of: %a)@." s
          Fmt.(list ~sep:comma Budget.pp_site)
          Budget.all_sites;
        exit 2)
  in
  (* always an active governor, even with no limit flags: the
     SIGINT/SIGTERM trap needs a trippable budget, and [Budget.none]
     cannot be interrupted *)
  Budget.create ?timeout ?nodes:zdd_nodes ?steps:max_steps ?fault_after
    ?fault_site ()

(* first SIGINT/SIGTERM: trip the governor cooperatively, so the run
   winds down and reports its best feasible cover with exit 3 — the same
   anytime contract as any budget trip (forked batch children share the
   interrupt flag).  A second signal aborts immediately. *)
let install_signal_trap budget =
  let seen = ref false in
  let handle _ =
    if !seen then exit 130
    else begin
      seen := true;
      Budget.interrupt budget;
      prerr_endline
        "ucp_solve: signal received; finishing with the best cover found \
         (signal again to abort)"
    end
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* solve one input with the full telemetry/trace machinery (those sinks
   are single-stream, so they only exist on this path) *)
let run_single ~budget ~config solver input_kind p output multi max_nodes trace
    stats_json =
  (* "-" streams either sink to stdout for piping (e.g. straight
     into `ucp_trace profile -`); the human-readable report then
     moves to stderr so stdout stays machine-clean *)
  if trace = Some "-" || stats_json = Some "-" then
    Format.pp_set_formatter_out_channel Format.std_formatter stderr;
  (* collect telemetry whenever either sink was requested: --trace
     streams the records, --stats-json only needs the in-memory
     aggregation for its summary *)
  let trace_oc =
    Option.map (function "-" -> stdout | path -> open_out path) trace
  in
  let telemetry =
    match trace_oc with
    | Some oc -> Telemetry.with_channel oc
    | None -> if stats_json <> None then Telemetry.create () else Telemetry.null
  in
  let finish_telemetry solver_fields =
    Telemetry.close telemetry;
    Option.iter (fun oc -> if oc == stdout then flush oc else close_out oc) trace_oc;
    Option.iter
      (fun path ->
        let json =
          Telemetry.Json.Obj
            (solver_fields @ [ ("telemetry", Telemetry.summary telemetry) ])
        in
        let write oc =
          output_string oc (Telemetry.Json.to_string json);
          output_char oc '\n'
        in
        if path = "-" then (write stdout; flush stdout)
        else begin
          let oc = open_out path in
          write oc;
          close_out oc
        end)
      stats_json
  in
  (match
     solve_loaded Format.std_formatter ~budget ~telemetry ~config ~multi ~output
       ~name:p solver max_nodes
       (load_input_exn ~budget (classify input_kind p))
   with
  | solver_fields -> finish_telemetry solver_fields
  | exception Load_error { code; msg } ->
    (* the sinks promised by --trace/--stats-json must exist and be
       well-formed even when the input never parsed *)
    Fmt.epr "ucp_solve: %s@." msg;
    if Telemetry.enabled telemetry then
      Telemetry.event telemetry "error"
        [
          ("what", Telemetry.Json.String msg);
          ("exit", Telemetry.Json.Int code);
        ];
    finish_telemetry
      [
        ("solver", Telemetry.Json.String "none");
        ("error", Telemetry.Json.String msg);
        ("exit", Telemetry.Json.Int code);
      ];
    exit code
  | exception Covering.Infeasible { row_id; _ } ->
    (* no column covers this row: no feasible answer exists, which is
       a property of the input, not a solver failure *)
    Fmt.epr "ucp_solve: infeasible: row %d has no covering column@." row_id;
    finish_telemetry
      [
        ("solver", Telemetry.Json.String "none");
        ("infeasible_row", Telemetry.Json.Int row_id);
      ];
    exit 7
  | exception exn ->
    (* a caught crash still flushes the sinks before re-raising: a
       truncated trace is a debugging dead end exactly when the trace
       matters most *)
    if Telemetry.enabled telemetry then
      Telemetry.event telemetry "error"
        [ ("what", Telemetry.Json.String (Printexc.to_string exn)) ];
    finish_telemetry
      [
        ("solver", Telemetry.Json.String "none");
        ("error", Telemetry.Json.String (Printexc.to_string exn));
      ];
    raise exn);
  (* the answer above is feasible whatever happened; the exit code
     records whether the governor cut the run short *)
  match Budget.tripped budget with
  | Some trip ->
    Fmt.epr "ucp_solve: budget exhausted: %s@." (Budget.describe trip);
    3
  | None -> 0

(* solve many inputs, [jobs] at a time.  All inputs are loaded (and the
   registry lazies forced) in the main domain first, so the parse/lookup
   exits 4/5/6 behave exactly as in single-input mode; each worker then
   owns its instance outright and renders into a private buffer, printed
   in input order at the end. *)
let run_batch ~budget ~jobs ~config solver input_kind paths output multi
    max_nodes =
  let inputs =
    Array.of_list
      (List.map
         (fun p ->
           (* the OR-Library parser detects uncoverable rows at load
              time; record the infeasibility instead of aborting the
              whole batch *)
           match load_input ~budget (classify input_kind p) with
           | exception Covering.Infeasible { row_id; _ } -> (p, Error row_id)
           | loaded ->
             check_batch_compat solver ~multi ~output p loaded;
             (match loaded with
             | `Matrix m ->
               (* the same registry instance may be named twice, sharing
                  one matrix between workers: force its lazy id-index
                  here, while still single-domain *)
               ignore (Covering.Matrix.col_index_of_id m 0)
             | `Spec _ | `Pla _ -> ());
             (p, Ok loaded))
         paths)
  in
  let solve_one i =
    let name, loaded = inputs.(i) in
    match loaded with
    | Error row_id -> ("", Some (`Infeasible row_id), None)
    | Ok loaded ->
      let buf = Buffer.create 1024 in
      let ppf = Format.formatter_of_buffer buf in
      (* per-instance governor: fresh work-unit counters, but the same
         absolute --timeout deadline as every other instance *)
      let budget = Budget.fork budget in
      let failure =
        match
          solve_loaded ppf ~budget ~telemetry:Telemetry.null ~config ~multi
            ~output ~name solver max_nodes loaded
        with
        | (_ : (string * Telemetry.Json.t) list) -> None
        | exception Covering.Infeasible { row_id; _ } -> Some (`Infeasible row_id)
        | exception Load_error { msg; _ } -> Some (`Rejected msg)
      in
      Format.pp_print_flush ppf ();
      (Buffer.contents buf, failure, Budget.tripped budget)
  in
  let indices = Array.init (Array.length inputs) Fun.id in
  (* work-size gate: a tiny matrix solves faster than it ships across a
     domain boundary, so only matrices with at least Par.default_min_rows
     rows (plus every spec/PLA input, whose covering problem size is
     unknown before the solve) count as parallel work; with fewer than
     two such inputs the batch stays on the calling domain and no pool
     is spun up *)
  let big i =
    match inputs.(i) with
    | _, Error _ -> false
    | _, Ok (`Matrix m) ->
      Covering.Matrix.n_rows m >= Scg.Par.default_min_rows
    | _, Ok (`Spec _ | `Pla _) -> true
  in
  let n_big =
    Array.fold_left (fun acc i -> if big i then acc + 1 else acc) 0 indices
  in
  let results =
    if jobs > 1 && n_big > 1 then
      Scg.Par.Pool.with_pool ~jobs (fun pool ->
          Scg.Par.map_if ~pool ~big solve_one indices)
    else Array.map solve_one indices
  in
  let any_rejected = ref false and any_infeasible = ref false and any_trip = ref false in
  Array.iteri
    (fun i (text, failure, trip) ->
      let name, _ = inputs.(i) in
      Fmt.pr "=== %s ===@.%s" name text;
      (match failure with
      | Some (`Infeasible row_id) ->
        any_infeasible := true;
        Fmt.epr "ucp_solve: %s: infeasible: row %d has no covering column@." name
          row_id
      | Some (`Rejected msg) ->
        any_rejected := true;
        Fmt.epr "ucp_solve: %s@." msg
      | None -> ());
      match trip with
      | Some trip ->
        any_trip := true;
        Fmt.epr "ucp_solve: %s: budget exhausted: %s@." name (Budget.describe trip)
      | None -> ())
    results;
  if !any_rejected then 4
  else if !any_infeasible then 7
  else if !any_trip then 3
  else 0

let run list solver input_kind paths output multi max_nodes timeout zdd_nodes
    max_steps max_rows_implicit fault_after fault_site trace stats_json jobs
    verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning);
  if list then (print_list (); 0)
  else if jobs < 0 then begin
    Fmt.epr "ucp_solve: --jobs must be >= 0 (0 = all cores)@.";
    2
  end
  else
    let jobs = if jobs = 0 then Scg.Par.default_jobs () else jobs in
    (* the implicit phase keeps grinding until BOTH guards are met
       (rows <= MaxR and support <= MaxC), so raising MaxR alone would
       never skip it: lift the column guard alongside *)
    let config =
      let d = Scg.Config.default in
      match max_rows_implicit with
      | None -> { d with jobs }
      | Some n ->
        {
          d with
          jobs;
          max_rows_implicit = n;
          max_cols_implicit = max (2 * n) d.max_cols_implicit;
        }
    in
    match paths with
    | [] ->
      Fmt.epr "no input given; try --list or pass a file / instance name@.";
      2
    | [ p ] ->
      let budget = make_budget timeout zdd_nodes max_steps fault_after fault_site in
      install_signal_trap budget;
      run_single ~budget ~config solver input_kind p output multi max_nodes
        trace stats_json
    | paths when trace <> None || stats_json <> None ->
      Fmt.epr
        "ucp_solve: --trace and --stats-json expect a single input (got %d)@."
        (List.length paths);
      2
    | paths ->
      let budget = make_budget timeout zdd_nodes max_steps fault_after fault_site in
      install_signal_trap budget;
      run_batch ~budget ~jobs ~config solver input_kind paths output multi
        max_nodes

let solver_arg =
  let choices =
    [
      ("scg", Solver_scg);
      ("exact", Solver_exact);
      ("greedy", Solver_greedy);
      ("espresso", Solver_espresso);
    ]
  in
  Arg.(value & opt (enum choices) Solver_scg & info [ "s"; "solver" ] ~doc:"Solver: $(b,scg), $(b,exact), $(b,greedy) or $(b,espresso).")

let kind_arg =
  let choices =
    [ ("auto", `Auto); ("pla", `Pla); ("ucp", `Ucp); ("orlib", `Orlib); ("bench", `Bench) ]
  in
  Arg.(value & opt (enum choices) `Auto & info [ "k"; "kind" ] ~doc:"Input kind (default: by file extension, else a benchmark name).")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List the built-in benchmark instances.")
let paths_arg = Arg.(value & pos_all string [] & info [] ~docv:"INPUT")
let output_arg = Arg.(value & opt int 0 & info [ "o"; "output" ] ~doc:"PLA output index to minimise.")

let multi_arg =
  Arg.(value & flag & info [ "multi" ] ~doc:"Minimise all PLA outputs together (shared products).")

let max_nodes_arg =
  Arg.(value & opt int 200_000 & info [ "max-nodes" ] ~doc:"Node budget for the exact solver.")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Wall-clock deadline.  When it passes, the solver stops at the \
                 next checkpoint, prints the best feasible answer found with \
                 its lower bound, and exits with code 3.  With several inputs \
                 the deadline is one shared instant, not per instance.")

let zdd_nodes_arg =
  Arg.(value & opt (some int) None
       & info [ "zdd-nodes" ] ~docv:"N"
           ~doc:"Budget on reduction/branching work units (implicit ZDD steps, \
                 explicit worklist steps, branch-and-bound nodes).  Exhaustion \
                 behaves like --timeout: best answer printed, exit code 3.  \
                 With several inputs each instance gets its own budget of N.")

let max_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "max-steps" ] ~docv:"N"
           ~doc:"Budget on subgradient/dual-ascent iterations across the whole \
                 run.  Exhaustion behaves like --timeout.")

let max_rows_implicit_arg =
  Arg.(value & opt (some int) None
       & info [ "max-rows-implicit" ] ~docv:"N"
           ~doc:"Override the paper's MaxR guard: the implicit ZDD reduction \
                 phase hands over to the explicit worklist engine once at \
                 most $(docv) rows remain (default 5000; the MaxC column \
                 guard is raised in proportion).  Set $(docv) at or above \
                 the input's row count to skip the implicit phase entirely \
                 \xe2\x80\x94 the right call for very large sparse instances, where \
                 the explicit engine is much faster than building the ZDDs.")

let fault_after_arg =
  Arg.(value & opt (some int) None
       & info [ "fault-after" ] ~docv:"N"
           ~doc:"Testing aid: trip the resource governor deterministically \
                 after N checkpoint ticks (at --fault-site if given, else \
                 anywhere).")

let fault_site_arg =
  Arg.(value & opt (some string) None
       & info [ "fault-site" ] ~docv:"SITE"
           ~doc:"Restrict --fault-after to one checkpoint site: \
                 $(b,implicit-reduce), $(b,explicit-reduce), $(b,subgradient), \
                 $(b,dual-ascent), $(b,exact-bb), $(b,espresso-loop) or \
                 $(b,parse).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSON-lines telemetry trace to $(docv): phase spans, \
                 reduction counters, the subgradient convergence trace and a \
                 final summary record.  All timestamps share the --timeout \
                 wall clock.  $(docv) $(b,-) streams to stdout (the human \
                 report moves to stderr), ready to pipe into $(b,ucp_trace).  \
                 Single input only.")

let stats_json_arg =
  Arg.(value & opt (some string) None
       & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write a single-object machine-readable run summary to \
                 $(docv): solver result fields plus aggregated telemetry \
                 (per-phase seconds, counters).  $(docv) $(b,-) writes the \
                 object to stdout (the human report moves to stderr).  \
                 Single input only.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains.  With several inputs, solve them \
                 concurrently, $(docv) at a time, reports still printed in \
                 input order; with a single input, solve the cyclic-core \
                 components of the scg solver concurrently.  $(docv)$(b,=0) \
                 picks the machine's recommended domain count.  Covers, \
                 costs and bounds are identical to $(b,--jobs 1); only \
                 where a resource budget trips may differ.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let cmd =
  let doc = "solve unate covering problems (ZDD_SCG reproduction)" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success (a solution was printed).";
      Cmd.Exit.info 2
        ~doc:"on usage errors: bad flags, an existing file with an unrecognised \
              extension, a solver/input mismatch, or --trace/--stats-json with \
              several inputs.";
      Cmd.Exit.info 3
        ~doc:"when a resource budget (--timeout, --zdd-nodes, --max-steps or \
              --fault-after) was exhausted, or a first SIGINT/SIGTERM tripped \
              the governor; the best feasible answer and a valid lower bound \
              are still printed.  A second signal aborts with 130.";
      Cmd.Exit.info 4
        ~doc:"on a parse error in an input file, or on a well-formed PLA \
              the covering bridge rejects: an output with no ON row, \
              --multi with every ON minterm also don't-care, more than 24 \
              inputs, or more than 16 outputs with --multi.";
      Cmd.Exit.info 5 ~doc:"when an input file does not exist or cannot be read.";
      Cmd.Exit.info 6 ~doc:"when a benchmark instance name is unknown.";
      Cmd.Exit.info 7
        ~doc:"when the problem is infeasible: some row of the covering matrix \
              is covered by no column, so no solution exists.  With several \
              inputs the worst outcome wins: 4 beats 7 beats 3 beats 0.";
    ]
  in
  Cmd.v
    (Cmd.info "ucp_solve" ~doc ~exits)
    Term.(
      const run $ list_arg $ solver_arg $ kind_arg $ paths_arg $ output_arg
      $ multi_arg $ max_nodes_arg $ timeout_arg $ zdd_nodes_arg $ max_steps_arg
      $ max_rows_implicit_arg $ fault_after_arg $ fault_site_arg $ trace_arg
      $ stats_json_arg $ jobs_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
