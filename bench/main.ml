(* Benchmark harness — regenerates every table and figure of the paper's
   evaluation section (§5) on the synthetic benchmark suite:

     fig1   the bound-hierarchy example of §3.4 / Figure 1
     easy   the 49 easy-cyclic instances (aggregate comparison)
     1      Table 1: difficult cyclic, ZDD_SCG vs the espresso-grade baseline
     2      Table 2: challenging, same comparison
     3      Table 3: difficult cyclic, ZDD_SCG vs the exact solver
     4      Table 4: challenging, ZDD_SCG vs the exact solver

   `--timing` additionally runs one Bechamel micro-benchmark per table on a
   representative kernel.  Run `bench/main.exe --help` for options. *)

module Matrix = Covering.Matrix
module Registry = Benchsuite.Registry

let pr fmt = Format.printf fmt

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

(* wall clock, same one the solver's own stats and --timeout use — CPU
   time (Sys.time) under-reports whenever the process is descheduled *)
let timed f =
  let t0 = Budget.Clock.now () in
  let r = f () in
  (r, Budget.Clock.now () -. t0)

let live_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.heap_words * (Sys.word_size / 8)) /. 1_048_576.

let starred cost proven = Printf.sprintf "%d%s" cost (if proven then "*" else "")

let with_lb cost proven lb =
  if proven then Printf.sprintf "%d*" cost else Printf.sprintf "%d(%d)" cost lb

let hline width = pr "%s@." (String.make width '-')

(* Optional CSV sink: every per-instance result row is mirrored there so
   downstream tooling does not have to scrape the pretty tables. *)
let csv_channel : out_channel option ref = ref None

let csv_emit fields =
  match !csv_channel with
  | None -> ()
  | Some oc ->
    output_string oc (String.concat "," fields);
    output_char oc '\n'

let csv_open path =
  let oc = open_out path in
  csv_channel := Some oc;
  csv_emit
    [
      "table"; "instance"; "solver"; "cost"; "proven"; "lower_bound"; "seconds"; "extra";
    ]

let csv_close () =
  match !csv_channel with
  | None -> ()
  | Some oc ->
    close_out oc;
    csv_channel := None

(* Baselines for a problem: the genuine espresso loop on two-level
   instances, the Chvátal greedy family (normal) and its 1-exchange
   variant (strong) on raw matrices — the same design point: fast,
   heuristic, no bounds. *)
type baseline = {
  normal_cost : int;
  normal_time : float;
  strong_cost : int;
  strong_time : float;
}

let baseline_of (inst : Registry.instance) m =
  match Lazy.force inst.Registry.problem with
  | Registry.Two_level spec ->
    let normal, normal_time =
      timed (fun () ->
          Espresso.minimise ~mode:Espresso.Normal ~on:spec.Benchsuite.Plagen.on
            ~dc:spec.Benchsuite.Plagen.dc ())
    in
    let strong, strong_time =
      timed (fun () ->
          Espresso.minimise ~mode:Espresso.Strong ~on:spec.Benchsuite.Plagen.on
            ~dc:spec.Benchsuite.Plagen.dc ())
    in
    {
      normal_cost = normal.Espresso.cost;
      normal_time;
      strong_cost = strong.Espresso.cost;
      strong_time;
    }
  | Registry.Multi_level pla ->
    (* espresso has no shared-product mode: minimise each output
       independently and count distinct products, as a PLA realisation
       would *)
    let normal = Espresso.minimise_all ~mode:Espresso.Normal pla in
    let strong = Espresso.minimise_all ~mode:Espresso.Strong pla in
    {
      normal_cost = normal.Espresso.distinct_products;
      normal_time = normal.Espresso.total_seconds;
      strong_cost = strong.Espresso.distinct_products;
      strong_time = strong.Espresso.total_seconds;
    }
  | Registry.Raw _ ->
    let normal, normal_time = timed (fun () -> Covering.Greedy.solve m) in
    let strong, strong_time = timed (fun () -> Covering.Greedy.solve_exchange m) in
    {
      normal_cost = Matrix.cost_of m normal;
      normal_time;
      strong_cost = Matrix.cost_of m strong;
      strong_time;
    }

let scg_config ~num_iter = { Scg.Config.default with Scg.Config.num_iter }

(* Per-instance phase timings (telemetry spans + solver stats), mirrored
   to BENCH_<table>.json so CI can track where the time goes, not just
   the end-to-end figure. *)
let bench_json_write ~table_id rows =
  let module J = Telemetry.Json in
  let path = Printf.sprintf "BENCH_%s.json" table_id in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj [ ("table", J.String table_id); ("instances", J.List (List.rev rows)) ]));
  output_char oc '\n';
  close_out oc;
  pr "wrote %s@." path

let bench_json_row ~name ~seconds ~(r : Scg.result) telemetry =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("name", J.String name);
      ("cost", J.Int r.Scg.cost);
      ("lower_bound", J.Int r.Scg.lower_bound);
      ("proven_optimal", J.Bool r.Scg.proven_optimal);
      ("seconds", J.Float seconds);
      ("stats", Scg.Stats.to_json r.Scg.stats);
      ("telemetry", Telemetry.summary telemetry);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 1                                                           *)
(* ------------------------------------------------------------------ *)

let run_fig1 () =
  pr "@.== Figure 1 — lower-bound hierarchy (reconstructed example) ==@.";
  pr "paper: LB_MIS = 1 < LB_DA = 2 < LB_LR = 2.5 (ceil 3); uniform: MIS = DA < LR@.";
  hline 78;
  pr "%-14s %8s %8s %10s %8s %6s %5s@." "instance" "LB_MIS" "LB_DA" "LB_Lagr" "LB_LP"
    "ceil" "OPT";
  hline 78;
  let row name m =
    let mis = (Covering.Mis_bound.compute m).Covering.Mis_bound.bound in
    let da = (Lagrangian.Dual_ascent.run m).Lagrangian.Dual_ascent.value in
    let sg = Lagrangian.Subgradient.run m in
    let lp = (Lagrangian.Lp.solve m).Lagrangian.Lp.value in
    let opt = (Covering.Exact.solve m).Covering.Exact.cost in
    pr "%-14s %8d %8.2f %10.3f %8.3f %6.0f %5d@." name mis da
      sg.Lagrangian.Subgradient.lower_bound lp
      (Float.ceil (lp -. 1e-6))
      opt
  in
  row "fig1(c6=3)" (Benchsuite.Worked.fig1 ());
  row "c5-uniform" (Benchsuite.Worked.c5 ());
  hline 78

(* ------------------------------------------------------------------ *)
(* Easy-cyclic aggregate (first experiment of §5)                     *)
(* ------------------------------------------------------------------ *)

let run_easy ~verbose () =
  pr "@.== Easy cyclic (49 instances) — aggregate, cf. §5 first experiment ==@.";
  pr "paper: ZDD_SCG total 5225 vs LB 5213 (gap 0.22%%); espresso 5330 / strong 5281@.";
  if verbose then begin
    hline 78;
    pr "%-12s %8s %6s %8s %8s %8s@." "name" "scg" "LB" "base" "strong" "T(s)";
    hline 78
  end;
  let totals = ref (0, 0, 0, 0) and proven = ref 0 and time = ref 0. in
  List.iter
    (fun inst ->
      let m = Registry.matrix inst in
      let r, t = timed (fun () -> Scg.solve ~config:(scg_config ~num_iter:3) m) in
      let b = baseline_of inst m in
      if r.Scg.proven_optimal then incr proven;
      time := !time +. t;
      let sc, lb, en, es = !totals in
      totals :=
        (sc + r.Scg.cost, lb + r.Scg.lower_bound, en + b.normal_cost, es + b.strong_cost);
      csv_emit
        [
          "easy"; inst.Registry.name; "scg"; string_of_int r.Scg.cost;
          string_of_bool r.Scg.proven_optimal; string_of_int r.Scg.lower_bound;
          Printf.sprintf "%.4f" t;
          Printf.sprintf "base=%d strong=%d" b.normal_cost b.strong_cost;
        ];
      if verbose then
        pr "%-12s %8s %6d %8d %8d %8.2f@." inst.Registry.name
          (starred r.Scg.cost r.Scg.proven_optimal)
          r.Scg.lower_bound b.normal_cost b.strong_cost t)
    (Registry.easy ());
  let sc, lb, en, es = !totals in
  hline 78;
  pr "totals: scg %d | lagrangian LB %d (gap %.2f%%) | baseline %d | strong %d@." sc lb
    (100. *. float_of_int (sc - lb) /. float_of_int (max sc 1))
    en es;
  pr "proven optimal: %d / 49, total time %.1fs@." !proven !time;
  hline 78

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: ZDD_SCG vs the heuristic baseline                  *)
(* ------------------------------------------------------------------ *)

let run_heuristic_table ~table_id ~title ~paper_note instances =
  pr "@.== %s ==@." title;
  pr "%s@." paper_note;
  hline 94;
  pr "%-10s | %8s %8s %8s %6s | %8s %8s | %8s %8s@." "name" "Sol" "CC(s)" "T(s)"
    "M(MB)" "base" "T(s)" "strong" "T(s)";
  hline 94;
  let json_rows = ref [] in
  List.iter
    (fun inst ->
      let m = Registry.matrix inst in
      let telemetry = Telemetry.create () in
      let r, t = timed (fun () -> Scg.solve ~telemetry m) in
      let b = baseline_of inst m in
      json_rows :=
        bench_json_row ~name:inst.Registry.name ~seconds:t ~r telemetry :: !json_rows;
      csv_emit
        [
          table_id; inst.Registry.name; "scg"; string_of_int r.Scg.cost;
          string_of_bool r.Scg.proven_optimal; string_of_int r.Scg.lower_bound;
          Printf.sprintf "%.4f" r.Scg.stats.Scg.Stats.total_seconds;
          Printf.sprintf "base=%d strong=%d" b.normal_cost b.strong_cost;
        ];
      pr "%-10s | %8s %8.2f %8.2f %6.0f | %8d %8.2f | %8d %8.2f@." inst.Registry.name
        (starred r.Scg.cost r.Scg.proven_optimal)
        r.Scg.stats.Scg.Stats.cyclic_core_seconds r.Scg.stats.Scg.Stats.total_seconds
        (live_mb ()) b.normal_cost b.normal_time b.strong_cost b.strong_time)
    instances;
  hline 94;
  bench_json_write ~table_id !json_rows;
  pr "(*) proven optimal; base/strong = espresso loop on two-level instances,@.";
  pr "    Chvatal greedy / +1-exchange on raw covering matrices@."

let run_table1 () =
  run_heuristic_table ~table_id:"table1"
    ~title:"Table 1 — difficult cyclic: ZDD_SCG vs heuristic baseline"
    ~paper_note:
      "paper shape: ZDD_SCG <= strong <= normal on every row; ties are proven optimal"
    (Registry.difficult ())

let run_table2 () =
  run_heuristic_table ~table_id:"table2"
    ~title:"Table 2 — challenging: ZDD_SCG vs heuristic baseline"
    ~paper_note:
      "paper shape: many rows proven optimal; big improvements on pdc/test2/test3"
    (Registry.challenging ())

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: ZDD_SCG vs the exact solver                        *)
(* ------------------------------------------------------------------ *)

let run_exact_table ~table_id ~title ~paper_note ~max_nodes instances =
  pr "@.== %s ==@." title;
  pr "%s@." paper_note;
  hline 88;
  pr "%-10s | %12s %8s %8s | %10s %8s %9s@." "name" "Sol(LB)" "T(s)" "MaxIter" "exact"
    "T(s)" "nodes";
  hline 88;
  let json_rows = ref [] in
  List.iter
    (fun inst ->
      let m = Registry.matrix inst in
      let telemetry = Telemetry.create () in
      let r, t_scg = timed (fun () -> Scg.solve ~telemetry m) in
      json_rows :=
        bench_json_row ~name:inst.Registry.name ~seconds:t_scg ~r telemetry
        :: !json_rows;
      let e, t_exact = timed (fun () -> Covering.Exact.solve ~max_nodes m) in
      let exact_str =
        Printf.sprintf "%d%s" e.Covering.Exact.cost
          (if e.Covering.Exact.optimal then "" else "H")
      in
      csv_emit
        [
          table_id; inst.Registry.name; "scg"; string_of_int r.Scg.cost;
          string_of_bool r.Scg.proven_optimal; string_of_int r.Scg.lower_bound;
          Printf.sprintf "%.4f" t_scg;
          Printf.sprintf "best_iter=%d" r.Scg.stats.Scg.Stats.best_iteration;
        ];
      csv_emit
        [
          table_id; inst.Registry.name; "exact"; string_of_int e.Covering.Exact.cost;
          string_of_bool e.Covering.Exact.optimal;
          string_of_int e.Covering.Exact.lower_bound;
          Printf.sprintf "%.4f" t_exact;
          Printf.sprintf "nodes=%d" e.Covering.Exact.nodes;
        ];
      pr "%-10s | %12s %8.2f %8d | %10s %8.2f %9d@." inst.Registry.name
        (with_lb r.Scg.cost r.Scg.proven_optimal r.Scg.lower_bound)
        t_scg r.Scg.stats.Scg.Stats.best_iteration exact_str t_exact
        e.Covering.Exact.nodes)
    instances;
  hline 88;
  bench_json_write ~table_id !json_rows;
  pr "(*) proven optimal; (n) Lagrangian lower bound; H = exact node budget (%d)@."
    max_nodes;
  pr "    exhausted, best incumbent reported — the paper's best-known-bound rows@."

let table4_names =
  [ "ex1010"; "ex4"; "jbp"; "pdc"; "soar.pla"; "test2"; "test3"; "ti"; "xparc" ]

let run_table3 ~max_nodes () =
  run_exact_table ~table_id:"table3"
    ~title:"Table 3 — difficult cyclic: ZDD_SCG vs exact branch-and-bound"
    ~paper_note:
      "paper shape: heuristic matches/beats the exact incumbents at a fraction of the time"
    ~max_nodes (Registry.difficult ())

let run_table4 ~max_nodes () =
  run_exact_table ~table_id:"table4"
    ~title:"Table 4 — challenging: ZDD_SCG vs exact branch-and-bound"
    ~paper_note:
      "paper shape: small rows proved optimal; on the big three the exact solver times out"
    ~max_nodes
    (List.map Registry.find table4_names)

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                  *)
(* ------------------------------------------------------------------ *)

let ablation_variants =
  let base = Scg.Config.default in
  [
    ("full (paper)", base);
    ("no penalties", { base with Scg.Config.use_penalties = false; dual_pen_max_cols = 0 });
    ("no dual pen.", { base with Scg.Config.dual_pen_max_cols = 0 });
    ("no warm start", { base with Scg.Config.warm_start = false });
    ("no multistart", { base with Scg.Config.num_iter = 1 });
    ("alpha = 0", { base with Scg.Config.alpha = 0. });
    ("alpha = 8", { base with Scg.Config.alpha = 8. });
    ("no gimpel", { base with Scg.Config.use_gimpel = false });
    ( "short subgrad",
      {
        base with
        Scg.Config.subgradient =
          { Lagrangian.Subgradient.default_config with max_steps = 60 };
      } );
  ]

let run_ablation () =
  pr "@.== Ablations — ZDD_SCG design choices on the difficult set ==@.";
  pr "total cost / proven count / time over the 7 difficult-cyclic instances@.";
  let instances = Registry.difficult () in
  let matrices = List.map (fun i -> (i.Registry.name, Registry.matrix i)) instances in
  hline 66;
  pr "%-16s %10s %8s %10s %10s@." "variant" "total" "proven" "LB total" "T(s)";
  hline 66;
  List.iter
    (fun (label, config) ->
      let (total, proven, lb_total), t =
        timed (fun () ->
            List.fold_left
              (fun (total, proven, lb_total) (_, m) ->
                let r = Scg.solve ~config m in
                ( total + r.Scg.cost,
                  (proven + if r.Scg.proven_optimal then 1 else 0),
                  lb_total + r.Scg.lower_bound ))
              (0, 0, 0) matrices)
      in
      pr "%-16s %10d %8d %10d %10.1f@." label total proven lb_total t)
    ablation_variants;
  hline 66;
  pr "(lower total is better; the paper's configuration should win or tie)@.";
  (* exact-solver bound ablation: plain MIS vs the strengthened
     (row-induced-subproblem) bound of §2's related work *)
  pr "@.exact-solver lower-bound ablation (node counts, 60k budget):@.";
  pr "MIS = classical bound; strong = row-induced (Goldberg/Coudert);@.";
  pr "dual = dual ascent per node (Liao-Devadas's fast LPR alternative, §2)@.";
  hline 92;
  pr "%-10s %12s %8s | %12s %8s | %12s %8s@." "name" "MIS nodes" "T(s)" "strong"
    "T(s)" "dual" "T(s)";
  hline 92;
  let dual_bound core =
    let da = Lagrangian.Dual_ascent.run core in
    int_of_float (Float.ceil (da.Lagrangian.Dual_ascent.value -. 1e-6))
  in
  List.iter
    (fun (name, m) ->
      let plain, t_plain = timed (fun () -> Covering.Exact.solve ~max_nodes:60_000 m) in
      let strong, t_strong =
        timed (fun () ->
            Covering.Exact.solve ~max_nodes:60_000
              ~extra_bound:(Covering.Bounds.strengthened_mis ~extra_rows:4)
              m)
      in
      let dual, t_dual =
        timed (fun () -> Covering.Exact.solve ~max_nodes:60_000 ~extra_bound:dual_bound m)
      in
      pr "%-10s %12d %8.2f | %12d %8.2f | %12d %8.2f@." name plain.Covering.Exact.nodes
        t_plain strong.Covering.Exact.nodes t_strong dual.Covering.Exact.nodes t_dual)
    matrices;
  hline 92;
  pr "(these instances have uniform costs, where Proposition 1 says the@.";
  pr " dual-ascent bound collapses to the independent-set bound — and@.";
  pr " indeed the node counts barely move while each node pays more; §2's@.";
  pr " point that the cheap classical bound wins on ordinary problems)@."

(* ------------------------------------------------------------------ *)
(* Two-level method comparison (not a paper table; showcases ISOP)    *)
(* ------------------------------------------------------------------ *)

let run_methods () =
  pr "@.== Two-level minimisers compared (product counts) ==@.";
  pr "scg = paper's heuristic (starred if proven); isop = Minato-Morreale;@.";
  pr "exact = covering branch-and-bound@.";
  hline 76;
  pr "%-12s %8s %8s %8s %8s %8s@." "function" "scg" "esp-n" "esp-s" "isop" "exact";
  hline 76;
  List.iter
    (fun name ->
      match Lazy.force (Registry.find name).Registry.problem with
      | Registry.Two_level spec ->
        let on = spec.Benchsuite.Plagen.on and dc = spec.Benchsuite.Plagen.dc in
        let n = Logic.Cover.nvars on in
        let scg, _ = timed (fun () -> Scg.solve_logic ~on ~dc ()) in
        let scg = fst scg in
        let esp_n = (Espresso.minimise ~mode:Espresso.Normal ~on ~dc ()).Espresso.cost in
        let esp_s = (Espresso.minimise ~mode:Espresso.Strong ~on ~dc ()).Espresso.cost in
        let isop = List.length (Logic.Isop.compute_cubes ~nvars:n ~on ~dc) in
        let b = Covering.From_logic.build ~on ~dc () in
        let exact = (Covering.Exact.solve b.Covering.From_logic.matrix).Covering.Exact.cost in
        pr "%-12s %8s %8d %8d %8d %8d@." name
          (starred scg.Scg.cost scg.Scg.proven_optimal)
          esp_n esp_s isop exact
      | Registry.Raw _ | Registry.Multi_level _ -> ())
    [
      "maj5"; "sym6-234"; "sym7-135"; "add3"; "mux8"; "rpla-6-8"; "rpla-7-10";
      "rpla-8-12"; "rpla-dc30"; "rpla-dc60";
    ];
  hline 76;
  pr "(scg and exact agree wherever exact finishes; isop >= exact always)@."

(* ------------------------------------------------------------------ *)
(* Column pricing on the large instances (§2 ref [6])                 *)
(* ------------------------------------------------------------------ *)

let run_pricing () =
  pr "@.== Column pricing vs full subgradient (large instances) ==@.";
  pr "Caprara-style core selection: same bounds for a fraction of the work@.";
  hline 86;
  pr "%-10s | %10s %8s %8s | %10s %8s %8s@." "name" "full LB" "UB" "T(s)" "priced LB"
    "UB" "T(s)";
  hline 86;
  List.iter
    (fun name ->
      let m = Registry.matrix (Registry.find name) in
      let plain, t_plain =
        timed (fun () ->
            Lagrangian.Subgradient.run
              ~config:
                { Lagrangian.Subgradient.default_config with max_steps = 600 }
              m)
      in
      let priced, t_priced = timed (fun () -> Lagrangian.Pricing.run m) in
      pr "%-10s | %10.2f %8d %8.2f | %10.2f %8d %8.2f@." name
        plain.Lagrangian.Subgradient.lower_bound plain.Lagrangian.Subgradient.best_cost
        t_plain priced.Lagrangian.Subgradient.lower_bound
        priced.Lagrangian.Subgradient.best_cost t_priced;
      csv_emit
        [
          "pricing"; name; "subgradient";
          string_of_int plain.Lagrangian.Subgradient.best_cost; "false";
          Printf.sprintf "%.2f" plain.Lagrangian.Subgradient.lower_bound;
          Printf.sprintf "%.4f" t_plain; "";
        ];
      csv_emit
        [
          "pricing"; name; "pricing";
          string_of_int priced.Lagrangian.Subgradient.best_cost; "false";
          Printf.sprintf "%.2f" priced.Lagrangian.Subgradient.lower_bound;
          Printf.sprintf "%.4f" t_priced; "";
        ])
    [ "ex1010"; "soar.pla"; "test2"; "test3" ];
  (* the shape pricing exists for: few constraints, a flood of candidate
     columns (Beasley's scp profile) *)
  List.iter
    (fun (label, n_rows, n_cols) ->
      let m =
        Benchsuite.Randucp.beasley ~name:label ~n_rows ~n_cols ~rows_per_col:6 ()
      in
      let plain, t_plain =
        timed (fun () ->
            Lagrangian.Subgradient.run
              ~config:{ Lagrangian.Subgradient.default_config with max_steps = 400 }
              m)
      in
      let priced, t_priced = timed (fun () -> Lagrangian.Pricing.run m) in
      pr "%-10s | %10.2f %8d %8.2f | %10.2f %8d %8.2f@." label
        plain.Lagrangian.Subgradient.lower_bound plain.Lagrangian.Subgradient.best_cost
        t_plain priced.Lagrangian.Subgradient.lower_bound
        priced.Lagrangian.Subgradient.best_cost t_priced)
    [ ("scp-a", 300, 6_000); ("scp-b", 500, 15_000) ];
  hline 86

(* ------------------------------------------------------------------ *)
(* Component & batch parallelism (BENCH_par.json)                     *)
(* ------------------------------------------------------------------ *)

(* Block-diagonal composition: the natural workload for the component
   solver.  Column indices of each part are offset past the previous
   parts', so the connected components of the result are exactly the
   parts — a difficult multi-component cyclic core by construction. *)
let block_diagonal parts =
  let n_cols = List.fold_left (fun a m -> a + Matrix.n_cols m) 0 parts in
  let cost = Array.make n_cols 1 in
  let rows = ref [] in
  let off = ref 0 in
  List.iter
    (fun m ->
      for j = 0 to Matrix.n_cols m - 1 do
        cost.(!off + j) <- Matrix.cost m j
      done;
      for i = 0 to Matrix.n_rows m - 1 do
        rows :=
          Array.to_list (Array.map (fun j -> !off + j) (Matrix.row m i)) :: !rows
      done;
      off := !off + Matrix.n_cols m)
    parts;
  Matrix.create ~cost ~n_cols (List.rev !rows)

let same_scg_result (a : Scg.result) (b : Scg.result) =
  a.Scg.solution = b.Scg.solution
  && a.Scg.cost = b.Scg.cost
  && a.Scg.lower_bound = b.Scg.lower_bound
  && a.Scg.proven_optimal = b.Scg.proven_optimal

(* Sequential vs parallel at both wiring levels, with the determinism
   contract checked on every row: same covers, costs and bounds whatever
   the worker count.  Speedups depend on how many cores the host
   actually grants (recorded as "cores"); on a single-core box they sit
   near 1.0x and the identity checks are the interesting part. *)
let run_par ~jobs () =
  let module J = Telemetry.Json in
  let cores = Scg.Par.default_jobs () in
  pr "@.== Parallel solve — sequential vs --jobs %d (%d core%s visible) ==@." jobs
    cores
    (if cores = 1 then "" else "s");
  pr "component level: block-diagonal compositions of the difficult suite;@.";
  pr "batch level: the difficult suite itself, one instance per worker@.";
  let difficult =
    List.map (fun i -> (i.Registry.name, Registry.matrix i)) (Registry.difficult ())
  in
  let pick names = List.map (fun n -> List.assoc n difficult) names in
  let composed =
    [
      ("t1+exam", pick [ "t1"; "exam" ]);
      ("bench1+ex5+test4+prom2", pick [ "bench1"; "ex5"; "test4"; "prom2" ]);
      ("difficult-x7", List.map snd difficult);
    ]
  in
  hline 86;
  pr "%-24s %5s %6s | %9s %9s %8s | %s@." "instance" "comps" "cost" "seq(s)"
    "par(s)" "speedup" "same";
  hline 86;
  let rows = ref [] in
  let all_same = ref true in
  List.iter
    (fun (name, parts) ->
      let m = block_diagonal parts in
      let n_comp = List.length (Covering.Partition.components m) in
      (* compact before each leg: these are single-shot multi-second
         timings, and whichever leg runs later would otherwise pay the
         major-GC debt of everything timed before it *)
      Gc.compact ();
      let seq, seq_s = timed (fun () -> Scg.solve m) in
      Gc.compact ();
      let par, par_s =
        timed (fun () -> Scg.solve ~config:{ Scg.Config.default with jobs } m)
      in
      let same = same_scg_result seq par in
      if not same then all_same := false;
      let speedup = if par_s > 0. then seq_s /. par_s else Float.nan in
      pr "%-24s %5d %6s | %9.3f %9.3f %7.2fx | %s@." name n_comp
        (starred seq.Scg.cost seq.Scg.proven_optimal)
        seq_s par_s speedup
        (if same then "yes" else "NO");
      csv_emit
        [
          "par"; name; "scg"; string_of_int par.Scg.cost;
          string_of_bool par.Scg.proven_optimal; string_of_int par.Scg.lower_bound;
          Printf.sprintf "%.4f" par_s;
          Printf.sprintf "seq=%.4f speedup=%.2f jobs=%d" seq_s speedup jobs;
        ];
      rows :=
        J.Obj
          [
            ("name", J.String name);
            ("components", J.Int n_comp);
            ("cost", J.Int seq.Scg.cost);
            ("identical", J.Bool same);
            ("sequential_s", J.Float seq_s);
            ("parallel_s", J.Float par_s);
            ("speedup", J.Float speedup);
          ]
        :: !rows)
    composed;
  hline 86;
  (* batch level: whole instances fan out over one pool, as
     `ucp_solve --jobs N FILE...` does *)
  let batch = Array.of_list difficult in
  let solve (_, m) = Scg.solve m in
  Gc.compact ();
  let seq_rs, batch_seq_s = timed (fun () -> Array.map solve batch) in
  let par_rs, batch_par_s =
    (* same wiring as `ucp_solve --jobs N FILE...`: instances below the
       work-size threshold solve inline, and when fewer than two big ones
       remain no pool is spun up at all (an idle domain taxes every
       minor collection, so small batches must never pay for one) *)
    let big (_, m) = Covering.Matrix.n_rows m >= Scg.Par.default_min_rows in
    let n_big =
      Array.fold_left (fun acc it -> if big it then acc + 1 else acc) 0 batch
    in
    Gc.compact ();
    timed (fun () ->
        if n_big > 1 then
          Scg.Par.Pool.with_pool ~jobs (fun pool ->
              Scg.Par.map_if ~pool ~big solve batch)
        else Array.map solve batch)
  in
  let batch_same =
    Array.length seq_rs = Array.length par_rs
    && Array.for_all2 same_scg_result seq_rs par_rs
  in
  if not batch_same then all_same := false;
  let batch_speedup =
    if batch_par_s > 0. then batch_seq_s /. batch_par_s else Float.nan
  in
  pr "batch (difficult x%d): seq %.3fs, par %.3fs, speedup %.2fx, results %s@."
    (Array.length batch) batch_seq_s batch_par_s batch_speedup
    (if batch_same then "identical" else "MISMATCHED");
  let json =
    J.Obj
      [
        ("table", J.String "par");
        ("jobs", J.Int jobs);
        ("cores", J.Int cores);
        ("identical_results", J.Bool !all_same);
        ("component", J.List (List.rev !rows));
        ( "batch",
          J.Obj
            [
              ("suite", J.String "difficult");
              ("instances", J.Int (Array.length batch));
              ("identical", J.Bool batch_same);
              ("sequential_s", J.Float batch_seq_s);
              ("parallel_s", J.Float batch_par_s);
              ("speedup", J.Float batch_speedup);
            ] );
      ]
  in
  let oc = open_out "BENCH_par.json" in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  pr "wrote BENCH_par.json@.";
  if not !all_same then exit 1

(* ------------------------------------------------------------------ *)
(* Dense bit-slice kernels (BENCH_dense.json)                          *)
(* ------------------------------------------------------------------ *)

let matrices_identical a b =
  Matrix.n_rows a = Matrix.n_rows b
  && Matrix.n_cols a = Matrix.n_cols b
  && (let ok = ref true in
      for i = 0 to Matrix.n_rows a - 1 do
        if Matrix.row_id a i <> Matrix.row_id b i || Matrix.row a i <> Matrix.row b i
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

(* batched best-of-3 timing: single runs sit at the clock's granularity
   on the small instances, so average [reps] runs per sample *)
let time_reps ~reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Budget.Clock.now () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    let t = (Budget.Clock.now () -. t0) /. float_of_int reps in
    if t < !best then best := t
  done;
  !best

(* Two halves.  Identity: the adaptive dense dispatch (the default
   config) must give bit-identical solver output to the forced sparse
   path (dense_threshold = 0) across the whole registry — the dense
   kernels are drop-in integer/word replacements, never approximations.
   Timing: the word-parallel kernels measured dense vs sparse on the
   dense+difficult suites — the dominance subset-test sweep, greedy
   cover scoring, and the subgradient sweep.  The mirrors are built
   once per instance and reused across the timed repetitions, matching
   how the solver uses them (one mirror per cyclic core, reused by
   every reduction round, greedy run and subgradient step of the
   descent); the one-off build cost is reported in its own column.
   The gated quantity is a per-instance and aggregate
   speedup *ratio* (both sides measured in-process on the same host),
   where "total" is the dominance+greedy hot-loop pair; the subgradient
   ratio is reported but not gated per instance, since its dense arm
   runs the honest attach-based dispatch (build included, and
   density-ineligible cores fall back to sparse at 1.0x by design). *)
let run_dense ~reps ~json_path () =
  let module J = Telemetry.Json in
  pr "@.== Dense bit-slice kernels — packed words vs sparse lists ==@.";
  pr "identity: adaptive dispatch (default) vs forced sparse (dense_threshold=0)@.";
  let identical_all = ref true in
  let sweep suite_name cfg instances =
    let bad = ref 0 in
    List.iter
      (fun (inst : Registry.instance) ->
        let m = Registry.matrix inst in
        let dense_r = Scg.solve ~config:cfg m in
        let sparse_r =
          Scg.solve ~config:{ cfg with Scg.Config.dense_threshold = 0 } m
        in
        if not (same_scg_result dense_r sparse_r) then begin
          incr bad;
          identical_all := false;
          pr "MISMATCH %s: dense and sparse dispatch disagree@." inst.Registry.name
        end)
      instances;
    pr "identity %-11s: %2d instances, %s@." suite_name (List.length instances)
      (if !bad = 0 then "all identical"
       else Printf.sprintf "%d MISMATCHED" !bad)
  in
  (* the challenging suite gets a shortened solve — identity holds for
     any configuration, and the full default descent on pdc-class
     instances would dominate the bench's runtime for no extra signal *)
  let quick_cfg =
    {
      Scg.Config.default with
      num_iter = 1;
      subgradient =
        { Lagrangian.Subgradient.default_config with max_steps = 100 };
    }
  in
  sweep "easy" Scg.Config.default (Registry.easy ());
  sweep "difficult" Scg.Config.default (Registry.difficult ());
  sweep "dense" Scg.Config.default (Registry.dense ());
  sweep "challenging" quick_cfg (Registry.challenging ());
  (* kernel timings, best of 3 batches of [reps] *)
  hline 104;
  pr "%-10s | %5s %5s %5s %8s | %8s %8s %6s | %8s %8s %6s | %6s | %6s@." "name"
    "rows" "cols" "dens" "build" "dom-sp" "dom-dn" "ratio" "grd-sp" "grd-dn"
    "ratio" "subgr" "total";
  hline 104;
  let rows = ref [] in
  List.iter
    (fun (inst : Registry.instance) ->
      let m = Registry.matrix inst in
      (* once per instance: the full worklist reduction under the default
         dense dispatch and on the forced sparse path must agree on core
         and fixed cost — this exercises the Dense.Mut maintenance
         protocol through every deletion and Gimpel append of a real
         reduction *)
      let rd = Covering.Reduce2.cyclic_core ~gimpel:true m in
      let rs = Covering.Reduce2.cyclic_core ~gimpel:true ~dense_threshold:0 m in
      let identical =
        matrices_identical rd.Covering.Reduce.core rs.Covering.Reduce.core
        && rd.Covering.Reduce.fixed_cost = rs.Covering.Reduce.fixed_cost
      in
      (* the kernels run on the cyclic core — the solver's actual input;
         falls back to the original matrix when the reductions close the
         instance outright *)
      let core = rs.Covering.Reduce.core in
      let gm = if Matrix.is_empty core then m else core in
      let ss = Covering.Sparse.of_matrix gm in
      let sd = Covering.Sparse.of_matrix ~dense:true gm in
      let d = Covering.Dense.of_matrix gm in
      let t_build =
        time_reps ~reps (fun () ->
            ignore (Covering.Sparse.of_matrix ~dense:true gm);
            ignore (Covering.Dense.of_matrix gm))
      in
      (* dominance: the all-pairs row- and column-dominance sweep the
         reduction engines' batched rounds perform, through the
         production Sparse API (the mirror, when present, backs the
         subset tests) *)
      let dominance_sweep s =
        let nr = Covering.Sparse.n_rows s and nc = Covering.Sparse.n_cols s in
        let count = ref 0 in
        for i = 0 to nr - 1 do
          for i' = 0 to nr - 1 do
            if i <> i' && Covering.Sparse.row_subset s i i' then incr count
          done
        done;
        for j = 0 to nc - 1 do
          for j' = 0 to nc - 1 do
            if j <> j' && Covering.Sparse.col_subset s j j' then incr count
          done
        done;
        !count
      in
      let identical = identical && dominance_sweep sd = dominance_sweep ss in
      let t_dom_sparse = time_reps ~reps (fun () -> ignore (dominance_sweep ss)) in
      let t_dom_dense = time_reps ~reps (fun () -> ignore (dominance_sweep sd)) in
      (* greedy cover scoring against the prebuilt mirror *)
      let greedy_dense () = Covering.Greedy.solve_best ~dense:d gm in
      let greedy_sparse () = Covering.Greedy.solve_best gm in
      let identical = identical && greedy_dense () = greedy_sparse () in
      let t_grd_sparse = time_reps ~reps (fun () -> ignore (greedy_sparse ())) in
      let t_grd_dense = time_reps ~reps (fun () -> ignore (greedy_dense ())) in
      (* subgradient sweep through the adaptive dispatch itself *)
      let sub_cfg =
        { Lagrangian.Subgradient.default_config with max_steps = 150 }
      in
      let sub_with threshold =
        Lagrangian.Subgradient.run ~config:sub_cfg ~dense_threshold:threshold gm
      in
      let identical = identical && sub_with max_int = sub_with 0 in
      let t_sub_sparse = time_reps ~reps (fun () -> ignore (sub_with 0)) in
      let t_sub_dense = time_reps ~reps (fun () -> ignore (sub_with max_int)) in
      if not identical then identical_all := false;
      let ratio sp dn = if dn > 0. then sp /. dn else Float.nan in
      let hot_sparse = t_dom_sparse +. t_grd_sparse
      and hot_dense = t_dom_dense +. t_grd_dense in
      pr "%-10s | %5d %5d %5.2f %8.5f | %8.5f %8.5f %5.2fx | %8.5f %8.5f %5.2fx | %5.2fx | %5.2fx%s@."
        inst.Registry.name (Matrix.n_rows gm) (Matrix.n_cols gm)
        (Matrix.density gm) t_build t_dom_sparse t_dom_dense
        (ratio t_dom_sparse t_dom_dense)
        t_grd_sparse t_grd_dense
        (ratio t_grd_sparse t_grd_dense)
        (ratio t_sub_sparse t_sub_dense)
        (ratio hot_sparse hot_dense)
        (if identical then "" else "  MISMATCH");
      csv_emit
        [
          "dense"; inst.Registry.name; "kernels"; "";
          string_of_bool identical; "";
          Printf.sprintf "%.6f" hot_dense;
          Printf.sprintf "sparse=%.6f speedup=%.2f" hot_sparse
            (ratio hot_sparse hot_dense);
        ];
      rows :=
        ( inst.Registry.name,
          Matrix.n_rows gm,
          Matrix.n_cols gm,
          (Matrix.density gm, t_build),
          (t_dom_sparse, t_dom_dense),
          (t_grd_sparse, t_grd_dense),
          (t_sub_sparse, t_sub_dense),
          identical )
        :: !rows)
    (Registry.dense () @ Registry.difficult ());
  hline 104;
  let rows = List.rev !rows in
  let hot (_, _, _, _, (ds, dd), (gs, gd), _, _) = (ds +. gs, dd +. gd) in
  let speedups = List.map (fun r -> let s, d = hot r in s /. d) rows in
  let geomean xs =
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))
  in
  let gm = geomean speedups and mn = List.fold_left min infinity speedups in
  let agg =
    List.fold_left (fun a r -> a +. fst (hot r)) 0. rows
    /. List.fold_left (fun a r -> a +. snd (hot r)) 0. rows
  in
  pr
    "hot-loop (dominance+greedy) speedup: suite aggregate %.2fx, geometric mean \
     %.2fx, minimum %.2fx@."
    agg gm mn;
  pr "results %s@."
    (if !identical_all then "identical on every instance and suite"
     else "MISMATCHED");
  let pair sparse_s dense_s =
    [
      ("sparse_s", J.Float sparse_s);
      ("dense_s", J.Float dense_s);
      ("speedup", J.Float (if dense_s > 0. then sparse_s /. dense_s else Float.nan));
    ]
  in
  let json =
    J.Obj
      [
        ("mode", J.String "dense");
        ("suite", J.String "dense+difficult");
        ("reps", J.Int reps);
        ("identical_results", J.Bool !identical_all);
        ("aggregate_total_speedup", J.Float agg);
        ("geomean_total_speedup", J.Float gm);
        ("min_total_speedup", J.Float mn);
        ( "instances",
          J.List
            (List.map
               (fun ((name, nr, nc, (density, build_s), (ds, dd), (gs, gd),
                      (ss, sd), identical)
                     as r) ->
                 let hs, hd = hot r in
                 J.Obj
                   [
                     ("name", J.String name);
                     ("rows", J.Int nr);
                     ("cols", J.Int nc);
                     ("density", J.Float density);
                     ("mirror_build_s", J.Float build_s);
                     ("identical", J.Bool identical);
                     ("dominance", J.Obj (pair ds dd));
                     ("greedy", J.Obj (pair gs gd));
                     ("subgradient", J.Obj (pair ss sd));
                     ("total", J.Obj (pair hs hd));
                   ])
               rows) );
      ]
  in
  let oc = open_out json_path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  pr "wrote %s@." json_path;
  if not !identical_all then exit 1

(* ------------------------------------------------------------------ *)
(* ZDD manager lifecycle (BENCH_zdd.json)                             *)
(*                                                                    *)
(* The collector and the chain fast paths on the implicit-reduction   *)
(* workload.  Per instance, the row family is built and the full      *)
(* implicit fixpoint (max_rows = max_cols = 0, no explicit fallback)  *)
(* runs three ways, each in a fresh domain so the unique table starts *)
(* empty and the schedule is deterministic:                           *)
(*   gc-off    — collection disabled, the always-grow peak;           *)
(*   gc-on     — a small threshold, peak occupancy after collection;  *)
(*   chain-off — the chain fast paths disabled.                       *)
(* Gated facts are machine-independent: fingerprints of the reduced   *)
(* family must match across all three runs, each instance's gc-on     *)
(* peak must not grow and must stay under a fixed node ceiling (past  *)
(* it the MaxR/MaxC explicit fallback would be forced), and the chain *)
(* fast paths must fire.  The build's seconds and created nodes and   *)
(* the reduction's seconds are echoed, never gated.                   *)
(* ------------------------------------------------------------------ *)

let zdd_gc_threshold = 16_384
let zdd_node_ceiling = 150_000

type zdd_run = {
  z_fp : int; (* fingerprint of reduced family + fixed columns *)
  z_rows : float;
  z_built : int; (* unique-table nodes after the row-family build *)
  z_build_seconds : float;
  z_peak : int;
  z_final : int;
  z_collections : int;
  z_reclaimed : int;
  z_chain_hits : int;
  z_seconds : float; (* the reduction only *)
}

(* the registry's cyclic suites plus seeded synthetic instances big
   enough to stress the collector: the registry tops out around 8k
   implicit nodes, while the paper's regime of interest is the one
   where the always-grow table outruns the node ceiling *)
let zdd_cases () =
  List.map
    (fun (i : Registry.instance) ->
      (i.Registry.name, fun () -> Registry.matrix i))
    (Registry.difficult () @ Registry.dense ())
  @ [
      ( "cyc-3000x500",
        fun () ->
          Benchsuite.Randucp.cyclic ~name:"cyc-3000x500" ~n_rows:3000
            ~n_cols:500 ~k:12 () );
      ( "dense-700x280",
        fun () ->
          Benchsuite.Randucp.dense_cyclic ~name:"dense-700x280" ~n_rows:700
            ~n_cols:280 ~density:0.30 () );
      ( "beasley-400x4000",
        fun () ->
          Benchsuite.Randucp.beasley ~name:"beasley-400x4000" ~n_rows:400
            ~n_cols:4000 ~rows_per_col:8 () );
    ]

(* one measurement = one fresh domain: a pristine manager, so peaks and
   collection schedules depend only on the instance and the knobs *)
let zdd_measure ~gc_threshold ~chain mk =
  Domain.join
    (Domain.spawn (fun () ->
         Zdd.configure ~gc_threshold ~chain_reduction:chain ();
         let m = mk () in
         (* create the manager first: its table allocation is not the build *)
         ignore (Zdd.node_count ());
         let p0, build_secs = timed (fun () -> Covering.Implicit.of_matrix m) in
         let built = Zdd.node_count () in
         let p, secs =
           timed (fun () ->
               Covering.Implicit.reduce ~max_rows:0 ~max_cols:0 p0)
         in
         let st = Zdd.Gc.stats () in
         {
           z_fp =
             Hashtbl.hash
               ( Zdd.to_sets p.Covering.Implicit.rows,
                 p.Covering.Implicit.essential );
           z_rows = Covering.Implicit.row_count p;
           z_built = built;
           z_build_seconds = build_secs;
           z_peak = Zdd.peak_node_count ();
           z_final = Zdd.node_count ();
           z_collections = st.Zdd.Gc.collections;
           z_reclaimed = st.Zdd.Gc.reclaimed_total;
           z_chain_hits = Zdd.chain_hit_count ();
           z_seconds = secs;
         }))

let run_zdd ~json_path () =
  let module J = Telemetry.Json in
  pr "@.== ZDD lifecycle — generational GC on the implicit fixpoint ==@.";
  pr "row-family build + full implicit reduction (no explicit fallback),@.";
  pr "fresh domain per run; gc-on threshold %d allocations, node ceiling %d@."
    zdd_gc_threshold zdd_node_ceiling;
  hline 108;
  pr "%-10s | %9s %9s | %6s %9s | %7s | %8s %8s %8s | %5s@." "name" "peak-off"
    "peak-on" "colls" "reclaim" "chain" "built" "build(s)" "T(s)" "<=on";
  hline 108;
  let rows = ref [] in
  let identical_all = ref true in
  let chain_total = ref 0 in
  let build_total = ref 0. and reduce_total = ref 0. in
  List.iter
    (fun (name, mk) ->
      let m = mk () in
      let off = zdd_measure ~gc_threshold:0 ~chain:true mk in
      let on_ = zdd_measure ~gc_threshold:zdd_gc_threshold ~chain:true mk in
      let nochain = zdd_measure ~gc_threshold:0 ~chain:false mk in
      let identical = off.z_fp = on_.z_fp && off.z_fp = nochain.z_fp in
      if not identical then identical_all := false;
      let under_on = on_.z_peak <= zdd_node_ceiling in
      chain_total := !chain_total + off.z_chain_hits;
      let reduce_secs = off.z_seconds +. on_.z_seconds +. nochain.z_seconds in
      build_total := !build_total +. on_.z_build_seconds;
      reduce_total := !reduce_total +. reduce_secs;
      pr "%-10s | %9d %9d | %6d %9d | %7d | %8d %8.4f %8.2f | %5s%s@." name
        off.z_peak on_.z_peak on_.z_collections on_.z_reclaimed off.z_chain_hits
        on_.z_built on_.z_build_seconds reduce_secs
        (if under_on then "yes" else "NO")
        (if identical then "" else "  MISMATCH");
      csv_emit
        [
          "zdd"; name; "implicit"; ""; string_of_bool identical;
          ""; Printf.sprintf "%.4f" on_.z_seconds;
          Printf.sprintf "peak_off=%d peak_on=%d built=%d" off.z_peak on_.z_peak
            on_.z_built;
        ];
      rows :=
        J.Obj
          [
            ("name", J.String name);
            ("rows", J.Int (Matrix.n_rows m));
            ("cols", J.Int (Matrix.n_cols m));
            ("rows_left", J.Float off.z_rows);
            ("identical", J.Bool identical);
            ("under_ceiling_gc_on", J.Bool under_on);
            ( "build",
              J.Obj
                [
                  ("nodes", J.Int on_.z_built);
                  ("seconds", J.Float on_.z_build_seconds);
                ] );
            ( "gc_off",
              J.Obj
                [
                  ("peak_nodes", J.Int off.z_peak);
                  ("final_nodes", J.Int off.z_final);
                  ("chain_hits", J.Int off.z_chain_hits);
                  ("seconds", J.Float off.z_seconds);
                ] );
            ( "gc_on",
              J.Obj
                [
                  ("peak_nodes", J.Int on_.z_peak);
                  ("final_nodes", J.Int on_.z_final);
                  ("collections", J.Int on_.z_collections);
                  ("reclaimed", J.Int on_.z_reclaimed);
                  ("seconds", J.Float on_.z_seconds);
                ] );
            ( "chain_off",
              J.Obj
                [
                  ("peak_nodes", J.Int nochain.z_peak);
                  ("seconds", J.Float nochain.z_seconds);
                ] );
          ]
        :: !rows)
    (zdd_cases ());
  (* the bench's own configure calls ran in child domains, but restore
     the shared knobs anyway: later tables must see the defaults *)
  Zdd.configure ~initial_size:Zdd.default_initial_size
    ~gc_threshold:Zdd.default_gc_threshold ~chain_reduction:true ();
  hline 108;
  pr "%d chain hits; builds %.4f s, reductions %.2f s (not gated)@."
    !chain_total !build_total !reduce_total;
  pr "results %s@."
    (if !identical_all then "identical across gc and chain variants"
     else "MISMATCHED");
  let json =
    J.Obj
      [
        ("mode", J.String "zdd");
        ("suite", J.String "difficult+dense");
        ("gc_threshold", J.Int zdd_gc_threshold);
        ("node_ceiling", J.Int zdd_node_ceiling);
        ("identical_results", J.Bool !identical_all);
        ("chain_hits", J.Int !chain_total);
        ("instances", J.List (List.rev !rows));
      ]
  in
  let oc = open_out json_path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  pr "wrote %s@." json_path;
  if not !identical_all then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table                 *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let fig1 = Benchsuite.Worked.fig1 () in
  let easy_m = Registry.matrix (Registry.find "ucp-easy20") in
  let t1 = Registry.matrix (Registry.find "t1") in
  let misj = Registry.matrix (Registry.find "misj") in
  let pdc = Registry.matrix (Registry.find "pdc") in
  let quick_cfg =
    {
      Scg.Config.default with
      Scg.Config.num_iter = 1;
      subgradient = { Lagrangian.Subgradient.default_config with max_steps = 100 };
    }
  in
  [
    Test.make ~name:"fig1/subgradient"
      (Staged.stage (fun () -> ignore (Lagrangian.Subgradient.run fig1)));
    Test.make ~name:"easy/scg"
      (Staged.stage (fun () -> ignore (Scg.solve ~config:quick_cfg easy_m)));
    Test.make ~name:"table1/scg-t1"
      (Staged.stage (fun () -> ignore (Scg.solve ~config:quick_cfg t1)));
    Test.make ~name:"table2/scg-misj"
      (Staged.stage (fun () -> ignore (Scg.solve ~config:quick_cfg misj)));
    Test.make ~name:"table3/exact-t1"
      (Staged.stage (fun () -> ignore (Covering.Exact.solve ~max_nodes:5_000 t1)));
    Test.make ~name:"table4/exact-pdc"
      (Staged.stage (fun () -> ignore (Covering.Exact.solve ~max_nodes:1_000 pdc)));
  ]

let run_timing () =
  let open Bechamel in
  pr "@.== Bechamel micro-benchmarks (one kernel per table) ==@.";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"ucp" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  hline 60;
  pr "%-28s %14s %8s@." "kernel" "time/run" "r^2";
  hline 60;
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some [ e ] -> e
        | Some _ | None -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square est) in
      let pretty =
        if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else Printf.sprintf "%.2f us" (ns /. 1e3)
      in
      pr "%-28s %14s %8.3f@." name pretty r2)
    (List.sort Stdlib.compare rows);
  hline 60

(* ------------------------------------------------------------------ *)
(* Baseline check (`--check BASELINE.json`) — the regression gate      *)
(* ------------------------------------------------------------------ *)

(* re-run the benchmark a committed baseline describes, then gate the
   fresh BENCH_*.json against it (Obs.Gate has the comparison rules);
   exits 1 on any regression so `make bench-check` can gate CI *)
(* ------------------------------------------------------------------ *)
(* Serve: daemon throughput, overload shedding, crash isolation       *)
(*                                                                    *)
(* Three in-process daemons, one per question:                        *)
(*   throughput — steady mix over repeated signatures: rps, p50/p99,  *)
(*     and the warm cache actually hitting;                           *)
(*   overload   — 1 worker, queue depth 2, 16 client lanes: the       *)
(*     admission queue must shed (OVERLOAD), not queue unboundedly;   *)
(*   torture    — the full acceptance mix with fault injection: every *)
(*     response code must match its expectation and the daemon must   *)
(*     survive its own crashes.                                       *)
(* The gated facts in BENCH_serve.json are booleans and counts only   *)
(* (see Obs.Gate); absolute timings are echoed for trend reading.     *)
(* ------------------------------------------------------------------ *)

let run_serve ~json_path () =
  let module J = Telemetry.Json in
  pr "@.== serve: daemon throughput, overload shedding, crash isolation ==@.";
  let sock tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucp-bench-%d-%s.sock" (Unix.getpid ()) tag)
  in
  let stat_int stats path =
    (* "cache.hits" or "crashes" out of the daemon's STATS object *)
    let rec walk j = function
      | [] -> (match j with J.Int n -> Some n | _ -> None)
      | k :: rest -> (
        match j with
        | J.Obj fields ->
          (match List.assoc_opt k fields with
          | Some j' -> walk j' rest
          | None -> None)
        | _ -> None)
    in
    walk stats (String.split_on_char '.' path)
  in
  let with_daemon cfg f =
    let d = Serve.Daemon.start cfg in
    let socket = (Serve.Daemon.config d).Serve.Daemon.socket in
    if not (Serve.Client.wait_ready ~socket ()) then begin
      Serve.Daemon.stop d;
      pr "serve: daemon on %s never became ready@." socket;
      exit 1
    end;
    let before = try Some (Serve.Client.stats ~socket) with _ -> None in
    let result = f socket in
    let alive = Serve.Client.ping ~socket in
    let stats = if alive then Some (Serve.Client.stats ~socket) else None in
    (* the server's own registry windowed onto this run: latency
       quantiles and cache behaviour as the daemon saw them *)
    let view =
      match (before, stats) with
      | Some b, Some a -> Some (Serve.Load.server_view ~before:b ~after:a)
      | _ -> None
    in
    let (), drain_s = timed (fun () -> Serve.Daemon.stop d) in
    (result, alive, stats, view, drain_s)
  in
  (* throughput + warm cache *)
  let t_cfg =
    {
      (Serve.Daemon.default_config ~socket:(sock "throughput")) with
      workers = 2;
      queue_depth = 16;
      max_timeout = 10.0;
    }
  in
  let through, alive_t, stats_t, view_t, drain_t =
    with_daemon t_cfg (fun socket ->
        Serve.Load.run ~socket ~concurrency:4 ~retries:3
          (Serve.Load.steady_jobs ~n:60 ~distinct:6 ~seed:7 ~rows:30 ~cols:60))
  in
  let warm_hits =
    Option.value ~default:0 (Option.bind stats_t (fun s -> stat_int s "cache.hits"))
  in
  let warm_misses =
    Option.value ~default:0
      (Option.bind stats_t (fun s -> stat_int s "cache.misses"))
  in
  pr "throughput: %.1f rps, p50 %.2fms, p99 %.2fms (warm hits %d / misses %d)@."
    through.Serve.Load.rps through.Serve.Load.p50_ms through.Serve.Load.p99_ms
    warm_hits warm_misses;
  (* overload shedding: a deliberately starved daemon under 16 lanes *)
  let o_cfg =
    {
      (Serve.Daemon.default_config ~socket:(sock "overload")) with
      workers = 1;
      queue_depth = 2;
      max_timeout = 10.0;
    }
  in
  let overload, alive_o, stats_o, _view_o, drain_o =
    with_daemon o_cfg (fun socket ->
        Serve.Load.run ~socket ~concurrency:16 ~retries:0
          (Serve.Load.steady_jobs ~n:48 ~distinct:2 ~seed:11 ~rows:60 ~cols:120))
  in
  let shed =
    Option.value ~default:0 (Option.bind stats_o (fun s -> stat_int s "shed"))
  in
  pr "overload: %d/%d shed (rate %.3f over attempts)@." shed
    overload.Serve.Load.requests overload.Serve.Load.shed_rate;
  (* torture: correctness of every response code under fault injection *)
  let x_cfg =
    {
      (Serve.Daemon.default_config ~socket:(sock "torture")) with
      workers = 2;
      queue_depth = 8;
      allow_fault_injection = true;
      max_timeout = 10.0;
    }
  in
  let torture, alive_x, stats_x, _view_x, drain_x =
    with_daemon x_cfg (fun socket ->
        Serve.Load.run ~socket ~concurrency:6 ~retries:6
          (Serve.Load.torture_jobs ~n:24 ~seed:3 ~fault:true))
  in
  let crashes =
    Option.value ~default:0 (Option.bind stats_x (fun s -> stat_int s "crashes"))
  in
  let invalidations =
    Option.value ~default:0
      (Option.bind stats_x (fun s -> stat_int s "cache.invalidations"))
  in
  List.iter (fun c -> pr "serve: UNEXPECTED %s@." c) torture.Serve.Load.unexpected;
  pr "torture: %d requests, %d isolated crashes, %d invalidations, %d unexpected@."
    torture.Serve.Load.requests crashes invalidations
    (List.length torture.Serve.Load.unexpected);
  let alive = alive_t && alive_o && alive_x in
  let correct = torture.Serve.Load.unexpected = [] in
  let isolated = alive_x && crashes > 0 in
  let json =
    J.Obj
      ([
        ("mode", J.String "serve");
        ("daemon_alive_after", J.Bool alive);
        ("clean_drain", J.Bool true);
        ("correct_codes", J.Bool correct);
        ("crashes_isolated", J.Bool isolated);
        ( "overload",
          J.Obj
            [
              ("requests", J.Int overload.Serve.Load.requests);
              ("shed", J.Int shed);
              ("shed_rate", J.Float overload.Serve.Load.shed_rate);
            ] );
        ( "warm",
          J.Obj
            [
              ("hits", J.Int warm_hits);
              ("misses", J.Int warm_misses);
              ( "hit_ratio",
                J.Float
                  (if warm_hits + warm_misses > 0 then
                     float_of_int warm_hits
                     /. float_of_int (warm_hits + warm_misses)
                   else 0.) );
            ] );
        (* informational only — latency quantiles and ratios are
           machine-dependent, so Obs.Gate never gates on them *)
        ( "throughput",
          J.Obj
            [
              ("requests", J.Int through.Serve.Load.requests);
              ("rps", J.Float through.Serve.Load.rps);
              ("p50_ms", J.Float through.Serve.Load.p50_ms);
              ("p90_ms", J.Float through.Serve.Load.p90_ms);
              ("p99_ms", J.Float through.Serve.Load.p99_ms);
              ("p999_ms", J.Float through.Serve.Load.p999_ms);
            ] );
        ( "torture",
          J.Obj
            [
              ("requests", J.Int torture.Serve.Load.requests);
              ("crashes", J.Int crashes);
              ("invalidations", J.Int invalidations);
            ] );
        ("drain_seconds", J.Float (drain_t +. drain_o +. drain_x));
      ]
      @
      match view_t with
      | Some v -> [ ("server", Serve.Load.server_view_json v) ]
      | None -> [])
  in
  let oc = open_out json_path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  pr "wrote %s@." json_path;
  if not (alive && correct && isolated && shed > 0 && warm_hits > 0) then begin
    pr "serve: FAILED (alive %b, correct %b, isolated %b, shed %d, warm hits %d)@."
      alive correct isolated shed warm_hits;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Scale: streaming parsers + adversarial generators (BENCH_scale.json)*)
(*                                                                    *)
(* One row per registry scale instance, each exercising the big-       *)
(* instance input pipeline end to end: the matrix is written in both   *)
(* text formats with the streaming writers, re-parsed with the         *)
(* streaming parsers (round-trip identity is a hard gate), counted     *)
(* through the orlib event stream with the parser's heap high-water    *)
(* gauge on (the O(1)-memory evidence), and solved under a             *)
(* deterministic step budget — never a wall-clock one, so the gated    *)
(* costs are reproducible across machines.  The planted instances      *)
(* carry construction-time cost certificates; matching them is the     *)
(* end-to-end correctness gate at sizes no exact solver confirms in    *)
(* CI time.  A routing section drives the same large-input path        *)
(* through the espresso loop and the KISS/binate minimiser.            *)
(* ------------------------------------------------------------------ *)

(* deterministic solve allowance for the tier: enough for the planted
   instances to prove their certificates, bounded enough that the wide
   pricing instances stop in seconds *)
let scale_steps = 2_000

let matrix_equal a b =
  Matrix.n_rows a = Matrix.n_rows b
  && Matrix.n_cols a = Matrix.n_cols b
  && (let ok = ref true in
      for j = 0 to Matrix.n_cols a - 1 do
        if Matrix.cost a j <> Matrix.cost b j then ok := false
      done;
      for i = 0 to Matrix.n_rows a - 1 do
        if Matrix.row a i <> Matrix.row b i then ok := false
      done;
      !ok)

let run_scale ~json_path () =
  let module J = Telemetry.Json in
  pr "@.== scale: streaming round-trips, fold memory, planted certificates ==@.";
  pr "solves under a deterministic %d-step budget (machine-independent costs)@."
    scale_steps;
  let tmp tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucp-scale-%d-%s" (Unix.getpid ()) tag)
  in
  hline 100;
  pr "%-18s | %6s %6s %8s | %9s | %5s %8s | %8s %7s %6s@." "name" "rows"
    "cols" "bytes" "fold-mem" "equiv" "planted" "cost" "bound" "T(s)";
  hline 100;
  let rows = ref [] in
  let all_equiv = ref true and all_planted = ref true in
  List.iter
    (fun (inst : Registry.instance) ->
      let name = inst.Registry.name in
      let m = Registry.matrix inst in
      let ucp_path = tmp (name ^ ".ucp") in
      let orlib_path = tmp (name ^ ".orlib") in
      Covering.Instance.write_file ucp_path m;
      let oc = open_out_bin orlib_path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Covering.Instance.output_orlib oc m);
      let file_bytes = (Unix.stat orlib_path).Unix.st_size in
      (* streaming round-trip identity, both formats *)
      let m_ucp, t_parse =
        timed (fun () -> Covering.Instance.parse_file ucp_path)
      in
      let m_orlib = Covering.Instance.parse_orlib_file orlib_path in
      let equiv = matrix_equal m m_ucp && matrix_equal m m_orlib in
      if not equiv then all_equiv := false;
      (* counting fold over the orlib event stream: retained memory must
         not scale with the file, whatever its size *)
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.heap_words in
      Logic.Reader.reset_heap_peak ();
      let fold_rows = ref 0 and fold_nnz = ref 0 in
      let ic = open_in_bin orlib_path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Covering.Instance.stream_orlib
            (Logic.Reader.of_channel ic)
            ~dims:(fun ~n_rows:_ ~n_cols:_ -> ())
            ~cost:(fun _ _ -> ())
            ~row:(fun _ cols ->
              incr fold_rows;
              fold_nnz := !fold_nnz + List.length cols));
      let peak = Logic.Reader.peak_heap_words () in
      let growth_bytes = max 0 (peak - before) * (Sys.word_size / 8) in
      let fold_ratio = float_of_int growth_bytes /. float_of_int (max 1 file_bytes) in
      let fold_ok = !fold_rows = Matrix.n_rows m && !fold_nnz = Matrix.nnz m in
      if not fold_ok then all_equiv := false;
      (* deterministic budgeted solve *)
      let budget = Budget.create ~steps:scale_steps () in
      let r, t_solve = timed (fun () -> Scg.solve ~budget m) in
      let planted_ok =
        match inst.Registry.expected_cost with
        | Some c ->
          let ok = r.Scg.cost = c in
          if not ok then all_planted := false;
          Some ok
        | None -> None
      in
      Sys.remove ucp_path;
      Sys.remove orlib_path;
      pr "%-18s | %6d %6d %8d | %8.4f | %5s %8s | %8d %7d %6.2f@." name
        (Matrix.n_rows m) (Matrix.n_cols m) file_bytes fold_ratio
        (if equiv && fold_ok then "yes" else "NO")
        (match planted_ok with
        | Some true -> "ok"
        | Some false -> "WRONG"
        | None -> "-")
        r.Scg.cost r.Scg.lower_bound (t_parse +. t_solve);
      csv_emit
        [
          "scale"; name; "scg"; string_of_int r.Scg.cost;
          string_of_bool r.Scg.proven_optimal; string_of_int r.Scg.lower_bound;
          Printf.sprintf "%.4f" t_solve;
          Printf.sprintf "bytes=%d fold_ratio=%.4f equiv=%b" file_bytes
            fold_ratio (equiv && fold_ok);
        ];
      rows :=
        J.Obj
          ([
             ("name", J.String name);
             ("rows", J.Int (Matrix.n_rows m));
             ("cols", J.Int (Matrix.n_cols m));
             ("nnz", J.Int (Matrix.nnz m));
             ("file_bytes", J.Int file_bytes);
             ("stream_equiv", J.Bool (equiv && fold_ok));
             ("fold_mem_ratio", J.Float fold_ratio);
             ("cost", J.Int r.Scg.cost);
             ("lower_bound", J.Int r.Scg.lower_bound);
             ("proven_optimal", J.Bool r.Scg.proven_optimal);
             (* informational: absolute wall numbers, never gated *)
             ("parse_seconds", J.Float t_parse);
             ("solve_seconds", J.Float t_solve);
           ]
          @
          match planted_ok with
          | Some ok -> [ ("planted_ok", J.Bool ok) ]
          | None -> [])
        :: !rows)
    (Registry.scale ());
  hline 100;
  (* the same large-input pipeline through the other two solver fronts:
     a PLA through the espresso loop, a synthetic thousand-transition
     KISS machine through the streaming parser and the binate search *)
  let spec =
    Benchsuite.Plagen.random_pla ~name:"scale-route-pla" ~ni:10 ~terms:80
      ~dc_terms:10
  in
  let esp =
    Espresso.minimise ~mode:Espresso.Normal ~on:spec.Benchsuite.Plagen.on
      ~dc:spec.Benchsuite.Plagen.dc ()
  in
  let espresso_ok =
    esp.Espresso.cost > 0 && esp.Espresso.cost <= Logic.Cover.size spec.Benchsuite.Plagen.on
  in
  (* the state count must be a multiple of the class count: both
     transitions shift by 1 and by kiss_classes mod kiss_states, and
     only then does the wraparound preserve the class structure that
     makes the machine mergeable *)
  let kiss_states = 512 in
  let kiss_classes = 64 in
  let kiss_text =
    (* states fall into behaviour classes of ~8 (index mod 64, encoded in
       the 6 output bits) and both transitions preserve the class
       structure, so the minimiser has real merging to find — while
       classes that small keep the compatible enumeration polynomially
       bounded (64 · 2^8 sets), which is what lets a near-thousand-
       transition machine through the binate front at all *)
    let buf = Buffer.create (1 lsl 16) in
    Buffer.add_string buf (Printf.sprintf ".i 1\n.o 6\n.r s0\n");
    let out s =
      String.init 6 (fun b -> if (s mod kiss_classes) land (1 lsl b) <> 0 then '1' else '0')
    in
    for s = 0 to kiss_states - 1 do
      Buffer.add_string buf
        (Printf.sprintf "0 s%d s%d %s\n" s ((s + 1) mod kiss_states) (out s));
      Buffer.add_string buf
        (Printf.sprintf "1 s%d s%d %s\n" s ((s + kiss_classes) mod kiss_states) (out s))
    done;
    Buffer.add_string buf ".e\n";
    Buffer.contents buf
  in
  let fsm_ok, fsm_from, fsm_to =
    match Fsm.Kiss.parse kiss_text with
    | machine ->
      let r =
        Fsm.Minimise.minimise ~budget:(Budget.create ~steps:scale_steps ())
          ~max_nodes:50_000 machine
      in
      (* the construction has exactly kiss_classes behaviour classes, so
         anything else means the streaming parse or the binate search
         lost information *)
      ( r.Fsm.Minimise.minimised_states = kiss_classes,
        r.Fsm.Minimise.original_states, r.Fsm.Minimise.minimised_states )
    | exception Logic.Parse_error.Parse_error _ -> (false, 0, 0)
  in
  pr "routing: espresso %d -> %d products (%s), kiss %d -> %d states (%s)@."
    (Logic.Cover.size spec.Benchsuite.Plagen.on)
    esp.Espresso.cost
    (if espresso_ok then "ok" else "FAIL")
    fsm_from fsm_to
    (if fsm_ok then "ok" else "FAIL");
  let json =
    J.Obj
      [
        ("mode", J.String "scale");
        ("max_steps", J.Int scale_steps);
        ("stream_equiv_all", J.Bool !all_equiv);
        ("planted_all", J.Bool !all_planted);
        ( "routing",
          J.Obj
            [
              ("espresso_ok", J.Bool espresso_ok);
              ("espresso_products", J.Int esp.Espresso.cost);
              ("fsm_ok", J.Bool fsm_ok);
              ("fsm_states_before", J.Int fsm_from);
              ("fsm_states_after", J.Int fsm_to);
            ] );
        ("instances", J.List (List.rev !rows));
      ]
  in
  let oc = open_out json_path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  pr "wrote %s@." json_path;
  if not (!all_equiv && !all_planted && espresso_ok && fsm_ok) then begin
    pr "scale: FAILED (equiv %b, planted %b, espresso %b, fsm %b)@." !all_equiv
      !all_planted espresso_ok fsm_ok;
    exit 1
  end

let run_check ~tolerance ~reduce_reps baseline_path =
  let module J = Telemetry.Json in
  let read_json path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg ->
      pr "bench-check: cannot read %s: %s@." path msg;
      exit 1
    | text -> (
      match J.of_string (String.trim text) with
      | Ok j -> j
      | Error msg ->
        pr "bench-check: %s is not valid JSON: %s@." path msg;
        exit 1)
  in
  let baseline = read_json baseline_path in
  let fresh_path =
    match (Option.bind (J.member "mode" baseline) J.to_str,
           Option.bind (J.member "table" baseline) J.to_str)
    with
    | Some "dense", _ ->
      let path = "BENCH_dense.json" in
      run_dense ~reps:reduce_reps ~json_path:path ();
      path
    | Some "serve", _ ->
      let path = "BENCH_serve.json" in
      run_serve ~json_path:path ();
      path
    | Some "zdd", _ ->
      let path = "BENCH_zdd.json" in
      run_zdd ~json_path:path ();
      path
    | Some "scale", _ ->
      let path = "BENCH_scale.json" in
      run_scale ~json_path:path ();
      path
    | _, Some "par" ->
      run_par ~jobs:(Scg.Par.default_jobs ()) ();
      "BENCH_par.json"
    | _, Some table_id ->
      (match table_id with
      | "table1" -> run_table1 ()
      | "table2" -> run_table2 ()
      | "table3" -> run_table3 ~max_nodes:150_000 ()
      | "table4" -> run_table4 ~max_nodes:30_000 ()
      | other ->
        pr "bench-check: baseline names unknown table %S@." other;
        exit 1);
      Printf.sprintf "BENCH_%s.json" table_id
    | Some mode, None ->
      pr "bench-check: %s names unknown mode %S@." baseline_path mode;
      exit 1
    | None, None ->
      pr "bench-check: %s has neither a \"mode\" nor a \"table\" field@."
        baseline_path;
      exit 1
  in
  let fresh = read_json fresh_path in
  let verdict = Obs.Gate.check ?tolerance ~baseline ~fresh () in
  pr "@.== bench-check: %s vs fresh %s ==@." baseline_path fresh_path;
  pr "%a" Obs.Gate.pp verdict;
  if not verdict.Obs.Gate.pass then exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let table_names =
  [ "fig1"; "easy"; "1"; "2"; "3"; "4"; "ablation"; "dense"; "par"; "serve";
    "zdd"; "scale"; "methods"; "pricing"; "timing"; "all" ]

let usage () =
  pr
    "usage: main.exe [--table %s] [--verbose]@,\
    \       [--timing] [--exact-nodes-difficult N] [--exact-nodes-challenging N]@,\
    \       [--csv FILE] [--no-csv] [--reduce-reps N]@,\
    \       [--dense-json FILE] [--serve-json FILE] [--zdd-json FILE] [--scale-json FILE]@,\
    \       [--jobs N] [--check BASELINE.json] [--check-tolerance T]@."
    (String.concat "|" table_names);
  exit 2

let () =
  let tables = ref [] in
  let verbose = ref false in
  let timing = ref false in
  let nodes_difficult = ref 150_000 in
  let nodes_challenging = ref 30_000 in
  (* per-instance rows are mirrored to bench_results.csv by default so
     the CSV regenerates from the same run that writes the BENCH_*.json
     files (both untracked); --no-csv opts out, --csv redirects *)
  let csv = ref (Some "bench_results.csv") in
  let reduce_reps = ref 5 in
  let dense_json = ref "BENCH_dense.json" in
  let serve_json = ref "BENCH_serve.json" in
  let zdd_json = ref "BENCH_zdd.json" in
  let scale_json = ref "BENCH_scale.json" in
  (* 0 = the machine's recommended domain count, resolved at use *)
  let jobs = ref 0 in
  let check = ref None in
  let check_tolerance = ref None in
  let rec parse = function
    | [] -> ()
    | "--table" :: t :: rest ->
      if not (List.mem t table_names) then begin
        pr "unknown table %s@." t;
        usage ()
      end;
      tables := t :: !tables;
      parse rest
    | "--verbose" :: rest ->
      verbose := true;
      parse rest
    | "--timing" :: rest ->
      timing := true;
      parse rest
    | "--exact-nodes-difficult" :: n :: rest ->
      nodes_difficult := int_of_string n;
      parse rest
    | "--exact-nodes-challenging" :: n :: rest ->
      nodes_challenging := int_of_string n;
      parse rest
    | "--csv" :: path :: rest ->
      csv := Some path;
      parse rest
    | "--no-csv" :: rest ->
      csv := None;
      parse rest
    | "--reduce-reps" :: n :: rest ->
      reduce_reps := max 1 (int_of_string n);
      parse rest
    | "--dense-json" :: path :: rest ->
      dense_json := path;
      parse rest
    | "--serve-json" :: path :: rest ->
      serve_json := path;
      parse rest
    | "--zdd-json" :: path :: rest ->
      zdd_json := path;
      parse rest
    | "--scale-json" :: path :: rest ->
      scale_json := path;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse rest
    | "--check" :: path :: rest ->
      check := Some path;
      parse rest
    | "--check-tolerance" :: t :: rest ->
      check_tolerance := Some (float_of_string t);
      parse rest
    | "--help" :: _ -> usage ()
    | arg :: _ ->
      pr "unknown argument %s@." arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !check with
  | Some baseline_path ->
    (* gate mode runs exactly the baseline's benchmark and nothing
       else; no CSV so a partial run never clobbers a full run's file *)
    run_check ~tolerance:!check_tolerance ~reduce_reps:!reduce_reps baseline_path;
    pr "@.done.@.";
    exit 0
  | None -> ());
  let wanted = if !tables = [] then [ "all" ] else List.rev !tables in
  let want t = List.mem "all" wanted || List.mem t wanted in
  Option.iter csv_open !csv;
  pr "ZDD_SCG reproduction bench — synthetic suite (see DESIGN.md / EXPERIMENTS.md)@.";
  if want "fig1" then run_fig1 ();
  if want "easy" then run_easy ~verbose:!verbose ();
  if want "1" then run_table1 ();
  if want "2" then run_table2 ();
  if want "3" then run_table3 ~max_nodes:!nodes_difficult ();
  if want "4" then run_table4 ~max_nodes:!nodes_challenging ();
  if want "ablation" then run_ablation ();
  if want "dense" then run_dense ~reps:!reduce_reps ~json_path:!dense_json ();
  if want "par" then
    run_par ~jobs:(if !jobs <= 0 then Scg.Par.default_jobs () else !jobs) ();
  if want "serve" then run_serve ~json_path:!serve_json ();
  if want "zdd" then run_zdd ~json_path:!zdd_json ();
  if want "scale" then run_scale ~json_path:!scale_json ();
  if want "methods" then run_methods ();
  if want "pricing" then run_pricing ();
  if !timing || want "timing" then run_timing ();
  csv_close ();
  pr "@.done.@."
