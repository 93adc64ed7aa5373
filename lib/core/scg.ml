module Config = Config
module Stats = Stats
module Budget = Budget
module Telemetry = Telemetry
module Warm = Warm
module Par = Par
module Matrix = Covering.Matrix
module Reduce = Covering.Reduce
module Reduce2 = Covering.Reduce2
module Implicit = Covering.Implicit
module Subgradient = Lagrangian.Subgradient
module Penalties = Lagrangian.Penalties
module Fixing = Lagrangian.Fixing

(* ZDD unique-table and dense-mirror gauges, sampled at every span
   boundary by any collector created after this module is linked.  The
   scg library is built with -linkall, so linking against it is enough —
   no value of this module needs to be touched first (DESIGN.md §8). *)
let () =
  Telemetry.register_probe "zdd.nodes" (fun () ->
      float_of_int (Zdd.node_count ()));
  Telemetry.register_probe "zdd.peak_nodes" (fun () ->
      float_of_int (Zdd.peak_node_count ()));
  Telemetry.register_probe "zdd.gc.collections" (fun () ->
      float_of_int (Zdd.Gc.stats ()).Zdd.Gc.collections);
  Telemetry.register_probe "zdd.gc.reclaimed" (fun () ->
      float_of_int (Zdd.Gc.stats ()).Zdd.Gc.reclaimed_total);
  Telemetry.register_probe "zdd.gc.live" (fun () ->
      float_of_int (Zdd.Gc.stats ()).Zdd.Gc.live_after_last);
  Telemetry.register_probe "zdd.chain_hits" (fun () ->
      float_of_int (Zdd.chain_hit_count ()));
  Telemetry.register_probe "dense.components" (fun () ->
      float_of_int (Atomic.get Covering.Dense.built_total));
  Telemetry.register_probe "dense.words" (fun () ->
      float_of_int (Atomic.get Covering.Dense.words_total))

let src = Logs.Src.create "scg" ~doc:"ZDD_SCG solver"

module Log = (val Logs.src_log src : Logs.LOG)

type status =
  | Optimal
  | Feasible
  | Feasible_budget_exhausted of Budget.trip

type result = {
  solution : int list;
  cost : int;
  lower_bound : int;
  proven_optimal : bool;
  status : status;
  stats : Stats.t;
}

let ceil_int x = int_of_float (Float.ceil (x -. 1e-6))

(* Bookkeeping for solutions expressed as column identifiers of the saved
   cyclic core A_e (virtual Gimpel identifiers of the initial reduction are
   legal members). *)
module Core_space = struct
  type t = {
    core : Matrix.t;
    cost_by_id : (int, int) Hashtbl.t;
    index_by_id : (int, int) Hashtbl.t;
  }

  let make core =
    let cost_by_id = Hashtbl.create 64 and index_by_id = Hashtbl.create 64 in
    for j = 0 to Matrix.n_cols core - 1 do
      Hashtbl.replace cost_by_id (Matrix.col_id core j) (Matrix.cost core j);
      Hashtbl.replace index_by_id (Matrix.col_id core j) j
    done;
    { core; cost_by_id; index_by_id }

  let cost t ids =
    List.fold_left (fun acc id -> acc + Hashtbl.find t.cost_by_id id) 0 ids

  let irredundant t ids =
    let idx = List.map (Hashtbl.find t.index_by_id) ids in
    let idx = Matrix.irredundant t.core (List.sort_uniq Stdlib.compare idx) in
    List.map (Matrix.col_id t.core) idx
end

(* One constructive descent from the cyclic core: alternate subgradient,
   penalties, heuristic fixing and explicit reductions until the matrix is
   empty or the path is bound-dominated.  Returns the candidate solutions
   found (in core-identifier space) and the best lower bound certified for
   the *full* core (i.e. from subgradient runs before any fixing). *)
let construct ~(config : Config.t) ~budget ~telemetry ~warm ~component ~rand
    ~best_cols ~(space : Core_space.t) ~(z_best : int ref)
    ~(best_ids : int list ref) ~stats_steps ~stats_fixes ~stats_pen =
  (* [warm]: externally owned multiplier memory (a solve daemon passing
     state from a previous request for the same instance); the memory is
     written through, so later descents — and later solves handed the
     same pair — start from the freshest multipliers.  Without it each
     descent owns a fresh memory, the paper's §3.2 semantics. *)
  let lambda_mem, mu_mem =
    match warm with
    | Some (l, u) -> (l, u)
    | None -> (Warm.create (), Warm.create ())
  in
  let root_lb = ref 0. in
  let consider ids =
    let ids = Core_space.irredundant space ids in
    let c = Core_space.cost space ids in
    if c < !z_best then begin
      z_best := c;
      best_ids := ids;
      if Telemetry.enabled telemetry then begin
        Telemetry.incr telemetry "incumbent.improvements";
        Telemetry.event telemetry "incumbent"
          [ ("component", Telemetry.Json.Int component); ("cost", Telemetry.Json.Int c) ]
      end;
      Log.debug (fun k -> k "incumbent improved to %d" c)
    end
  in
  let rec descend m committed_ids committed_cost ~first =
    if Matrix.is_empty m then consider committed_ids
    else if Budget.tripped budget <> None then
      (* wind down: complete the committed prefix with a greedy cover of
         the remaining matrix so this path still yields a feasible
         candidate, then stop descending *)
      consider
        (committed_ids
        @ List.map (Matrix.col_id m)
            (Covering.Greedy.solve_best
               ?dense:
                 (Covering.Dense.attach ~threshold:config.Config.dense_threshold m)
               m))
    else begin
      let lambda0 = if config.Config.warm_start then Warm.lambda0 lambda_mem m else None in
      let mu0 = if config.Config.warm_start then Warm.mu0 mu_mem m else None in
      if config.Config.warm_start && Telemetry.enabled telemetry then
        Telemetry.incr telemetry
          (if lambda0 = None then "warm.lambda0_miss" else "warm.lambda0_hit");
      let ub = !z_best - committed_cost in
      let sg =
        Telemetry.span telemetry "subgradient" (fun () ->
            let on_step =
              if Telemetry.enabled telemetry then
                Some
                  (fun ~step ~value ~best ->
                    Telemetry.step telemetry ~phase:"subgradient" ~component ~step
                      ~value ~best)
              else None
            in
            Subgradient.run ~budget ~config:config.Config.subgradient
              ~dense_threshold:config.Config.dense_threshold ?lambda0 ?mu0
              ?on_step ~ub m)
      in
      stats_steps := !stats_steps + sg.Subgradient.steps;
      Telemetry.add telemetry "subgradient.steps" sg.Subgradient.steps;
      Warm.store_rows lambda_mem m sg.Subgradient.lambda;
      Warm.store_cols mu_mem m sg.Subgradient.mu;
      if first then root_lb := sg.Subgradient.lower_bound;
      (* the subgradient incumbent completes the committed prefix *)
      let sol_ids = List.map (Matrix.col_id m) sg.Subgradient.best_solution in
      consider (committed_ids @ sol_ids);
      let path_lb = committed_cost + ceil_int sg.Subgradient.lower_bound in
      if path_lb < !z_best then begin
        (* penalties (§3.6) *)
        let pen_lag =
          if config.Config.use_penalties then
            Penalties.lagrangian m ~lp_value:sg.Subgradient.lower_bound
              ~reduced_costs:sg.Subgradient.reduced_costs
              ~z_best:(!z_best - committed_cost)
          else Penalties.nothing
        in
        let pen_dual =
          Penalties.dual ~max_cols:config.Config.dual_pen_max_cols m
            ~z_best:(!z_best - committed_cost)
        in
        let forced_out =
          List.sort_uniq Stdlib.compare
            (pen_lag.Penalties.forced_out @ pen_dual.Penalties.forced_out)
        in
        let out_mask = Array.make (Matrix.n_cols m) false in
        List.iter (fun j -> out_mask.(j) <- true) forced_out;
        let forced_in =
          List.sort_uniq Stdlib.compare
            (pen_lag.Penalties.forced_in @ pen_dual.Penalties.forced_in)
          |> List.filter (fun j -> not out_mask.(j))
        in
        stats_pen := !stats_pen + List.length forced_in + List.length forced_out;
        Telemetry.add telemetry "fix.penalty"
          (List.length forced_in + List.length forced_out);
        (* heuristic fixing (§3.7): promising columns plus one σ-best *)
        let promising =
          Fixing.promising ~c_hat:config.Config.c_hat ~mu_hat:config.Config.mu_hat m
            ~reduced_costs:sg.Subgradient.reduced_costs ~mu:sg.Subgradient.mu
          |> List.filter (fun j -> not out_mask.(j))
        in
        let fixed = List.sort_uniq Stdlib.compare (forced_in @ promising) in
        let fixed =
          if fixed <> [] then fixed
          else begin
            let sigma =
              Fixing.sigma ~alpha:config.Config.alpha
                ~reduced_costs:sg.Subgradient.reduced_costs ~mu:sg.Subgradient.mu ()
            in
            let candidates =
              Fixing.best_columns ~sigma ~k:(best_cols + List.length forced_out)
              |> List.filter (fun j -> not out_mask.(j))
            in
            match candidates with
            | [] -> [] (* every column is forced out: path dead *)
            | cs ->
              let k = min best_cols (List.length cs) in
              [ List.nth cs (if k <= 1 then 0 else rand k) ]
          end
        in
        stats_fixes := !stats_fixes + List.length fixed;
        Telemetry.add telemetry "fix.heuristic" (List.length fixed);
        if fixed = [] && forced_out = [] then () (* nothing to do: stop path *)
        else begin
          (* commit [fixed], drop [forced_out], then re-reduce *)
          let keep_cols = Array.make (Matrix.n_cols m) true in
          List.iter (fun j -> keep_cols.(j) <- false) forced_out;
          List.iter (fun j -> keep_cols.(j) <- false) fixed;
          let keep_rows = Array.make (Matrix.n_rows m) true in
          List.iter
            (fun j -> Array.iter (fun i -> keep_rows.(i) <- false) (Matrix.col m j))
            fixed;
          let feasible = ref true in
          for i = 0 to Matrix.n_rows m - 1 do
            if
              keep_rows.(i)
              && not (Array.exists (fun j -> keep_cols.(j)) (Matrix.row m i))
            then feasible := false
          done;
          if not !feasible then () (* no better-than-incumbent completion *)
          else begin
            let committed_ids =
              committed_ids @ List.map (Matrix.col_id m) fixed
            in
            let committed_cost =
              committed_cost + List.fold_left (fun a j -> a + Matrix.cost m j) 0 fixed
            in
            let m = Matrix.submatrix m ~keep_rows ~keep_cols in
            if Matrix.is_empty m then consider committed_ids
            else begin
              (* explicit reductions to the next stable point; Gimpel is
                 disabled mid-descent so committed identifiers stay real *)
              let red =
                Reduce2.cyclic_core ~budget ~telemetry ~gimpel:false
                  ~dense_threshold:config.Config.dense_threshold m
              in
              let ess_ids = Reduce.lift red.Reduce.trace [] in
              let committed_ids = committed_ids @ ess_ids in
              let committed_cost = committed_cost + red.Reduce.fixed_cost in
              if Matrix.is_empty red.Reduce.core then consider committed_ids
              else descend red.Reduce.core committed_ids committed_cost ~first:false
            end
          end
        end
      end
    end
  in
  descend space.Core_space.core [] 0 ~first:true;
  !root_lb

(* Everything one component contributes to the merged answer.  Both the
   sequential and the parallel paths produce these records and merge them
   identically (in component order), which is the heart of the
   determinism argument in DESIGN.md §10. *)
type comp_result = {
  comp_ids : int list;
  comp_lb : int;
  comp_steps : int;
  comp_fixes : int;
  comp_pen : int;
  comp_iterations : int;
  comp_best_iteration : int;
}

let solve ?(budget = Budget.none) ?(telemetry = Telemetry.null) ?pool ?warm
    ?zdd_universe ?(config = Config.default) input =
  for j = 0 to Matrix.n_cols input - 1 do
    if Matrix.col_id input j <> j then invalid_arg "Scg.solve: matrix already re-indexed"
  done;
  (* engine-wide manager tunables: shared atomics, so worker domains
     spawned below inherit them and a running manager re-reads the GC
     threshold at its next safe point *)
  Zdd.configure ~initial_size:config.zdd_initial_size
    ~gc_threshold:config.zdd_gc_threshold
    ~chain_reduction:config.zdd_chain_reduction ();
  Bdd.configure ~initial_size:config.zdd_initial_size ();
  (* externally owned warm memory is a plain hashtable: never share it
     across worker domains — a warmed solve runs its components on the
     calling domain (the daemon parallelises across requests instead) *)
  let pool = if warm = None then pool else None in
  let config = if warm = None then config else { config with Config.jobs = 1 } in
  (* all timings on the governor's wall clock, so [stats.total_seconds]
     is consistent with a tripped [--timeout] *)
  let t_start = Budget.Clock.now () in
  (* ---- implicit phase ---- *)
  (* when the raised MaxR/MaxC guards already admit the whole input,
     [Implicit.reduce] would return it untouched, so even building the
     row ZDD is pure overhead (it dominates the solve on 10^5-row
     instances).  The skip is opt-in: decode canonicalises row order, so
     inputs within the paper's *default* guards keep the historical path
     bit-for-bit. *)
  let skip_implicit =
    let within ~max_rows ~max_cols =
      Matrix.n_rows input <= max_rows && Matrix.n_cols input <= max_cols
    in
    zdd_universe = None
    && within ~max_rows:config.max_rows_implicit
         ~max_cols:config.max_cols_implicit
    && not
         (within ~max_rows:Config.default.max_rows_implicit
            ~max_cols:Config.default.max_cols_implicit)
  in
  let imp =
    if skip_implicit then None
    else
      Some
        (Telemetry.span telemetry "implicit-reduce" (fun () ->
             Implicit.reduce ~budget ~telemetry
               ~max_rows:config.max_rows_implicit
               ~max_cols:config.max_cols_implicit
               (Implicit.of_matrix ?rows:zdd_universe input)))
  in
  let decoded, essential0 =
    match imp with Some imp -> Implicit.decode imp | None -> (input, [])
  in
  let essential0_cost =
    List.fold_left (fun acc j -> acc + Matrix.cost input j) 0 essential0
  in
  (* ---- explicit reductions to the exact cyclic core ---- *)
  let red =
    Telemetry.span telemetry "explicit-reduce" (fun () ->
        Reduce2.cyclic_core ~budget ~telemetry ~gimpel:config.use_gimpel
          ~dense_threshold:config.dense_threshold decoded)
  in
  let t_core = Budget.Clock.now () -. t_start in
  let core = red.Reduce.core in
  let finish ~core_ids ~lb_core_int ~steps ~iterations ~best_iteration ~fixes ~pen =
    (* map a core-space solution back to input indices and report *)
    let lifted = Reduce.lift red.Reduce.trace core_ids in
    let full = List.sort_uniq Stdlib.compare (essential0 @ lifted) in
    let full = Matrix.irredundant input full in
    let cost = Matrix.cost_of input full in
    let lower_bound = essential0_cost + red.Reduce.fixed_cost + lb_core_int in
    let total = Budget.Clock.now () -. t_start in
    let stats =
      {
        Stats.input_rows = Matrix.n_rows input;
        input_cols = Matrix.n_cols input;
        implicit_rows_left =
          (match imp with
          | Some imp -> Implicit.row_count imp
          | None -> float_of_int (Matrix.n_rows input));
        core_rows = Matrix.n_rows core;
        core_cols = Matrix.n_cols core;
        essential_count = List.length essential0 + List.length (Reduce.lift red.Reduce.trace []);
        cyclic_core_seconds = t_core;
        total_seconds = total;
        subgradient_steps = steps;
        iterations;
        best_iteration;
        fixes;
        penalty_fixes = pen;
        budget_trip = Option.map Budget.describe (Budget.tripped budget);
      }
    in
    let proven_optimal = cost <= lower_bound in
    let status =
      if proven_optimal then Optimal
      else
        match Budget.tripped budget with
        | Some trip -> Feasible_budget_exhausted trip
        | None -> Feasible
    in
    {
      solution = full;
      cost;
      lower_bound = min lower_bound cost;
      proven_optimal;
      status;
      stats;
    }
  in
  if Matrix.is_empty core then
    finish ~core_ids:[] ~lb_core_int:0 ~steps:0 ~iterations:0 ~best_iteration:0
      ~fixes:0 ~pen:0
  else begin
    (* the oldest reduction of all (§2, "partitioning"): disconnected
       blocks of the cyclic core are independent subproblems, solved
       separately — their bounds add up, so optimality proofs compose.
       With [jobs > 1] (or an explicit pool) they are also solved
       concurrently; the RNG is seeded per component in both paths, so
       the parallel schedule cannot change any component's search and
       covers/costs/status are bit-identical to the sequential run. *)
    let components = Array.of_list (Covering.Partition.split core) in
    let n_comp = Array.length components in
    let solve_component ~budget ~telemetry ~component sub =
      let rng = Random.State.make [| config.seed; component |] in
      let rand bound = Random.State.int rng bound in
      let steps = ref 0 and fixes = ref 0 and pen = ref 0 in
      let iterations = ref 0 in
      (* 0 until the greedy incumbent is actually improved by some run —
         a solve where the seed survives every iteration reports 0 *)
      let best_iteration = ref 0 in
      let space = Core_space.make sub in
      (* prime the incumbent with the plain greedy so every run has a bound *)
      let g =
        Covering.Greedy.solve_best
          ?dense:(Covering.Dense.attach ~threshold:config.Config.dense_threshold sub)
          sub
      in
      let z_best = ref (Matrix.cost_of sub g) in
      let best_ids = ref (List.map (Matrix.col_id sub) g) in
      let best_lb = ref 0 in
      (try
         for iter = 0 to config.num_iter - 1 do
           if Budget.tripped budget <> None then raise Exit;
           iterations := iter + 1;
           let best_cols = config.best_col_start + (iter * config.best_col_growth) in
           let before = !z_best in
           let lb =
             Telemetry.span telemetry "descent" (fun () ->
                 construct ~config ~budget ~telemetry ~warm ~component ~rand
                   ~best_cols ~space ~z_best ~best_ids ~stats_steps:steps
                   ~stats_fixes:fixes ~stats_pen:pen)
           in
           if !z_best < before then best_iteration := iter + 1;
           best_lb := max !best_lb (ceil_int lb);
           if !z_best <= !best_lb then raise Exit
         done
       with Exit -> ());
      {
        comp_ids = !best_ids;
        comp_lb = !best_lb;
        comp_steps = !steps;
        comp_fixes = !fixes;
        comp_pen = !pen;
        comp_iterations = !iterations;
        comp_best_iteration = !best_iteration;
      }
    in
    let sequential () =
      (* the legacy path: parent budget and collector used directly, so
         traces, budget tick accounting and the emitted record stream are
         exactly those of the pre-parallel solver *)
      Array.mapi
        (fun component sub ->
          Telemetry.span telemetry ~index:component "component" (fun () ->
              solve_component ~budget ~telemetry ~component sub))
        components
    in
    let parallel pool =
      (* per-worker ownership: each component gets a forked governor
         (shared absolute deadline, private tick counters) and a forked
         collector; merging back in component order keeps trip selection
         and merged summaries deterministic.  Each worker domain builds
         its ZDDs in its own domain-local manager.  Components below
         [par_min_rows] rows run inline on the caller — they still get
         forked budget/telemetry, so the merged records are identical
         whichever side of the threshold a component lands on. *)
      let children =
        Array.map (fun _ -> (Budget.fork budget, Telemetry.fork telemetry)) components
      in
      let out =
        Par.map_if ~pool
          ~big:(fun component ->
            Matrix.n_rows components.(component) >= config.Config.par_min_rows)
          (fun component ->
            let b, t = children.(component) in
            Telemetry.span t ~index:component "component" (fun () ->
                solve_component ~budget:b ~telemetry:t ~component
                  components.(component)))
          (Array.init n_comp Fun.id)
      in
      Array.iter
        (fun (b, t) ->
          Budget.absorb budget b;
          Telemetry.merge telemetry t)
        children;
      out
    in
    (* a pool only pays off when at least two components are big enough
       to cross a domain boundary; otherwise stay on the legacy
       sequential path and spawn nothing *)
    let n_big =
      Array.fold_left
        (fun acc sub ->
          if Matrix.n_rows sub >= config.Config.par_min_rows then acc + 1 else acc)
        0 components
    in
    let results =
      if n_comp <= 1 then sequential ()
      else
        match pool with
        | Some p when Par.Pool.jobs p > 1 && n_big > 1 -> parallel p
        | Some _ -> sequential ()
        | None when config.jobs > 1 && n_big > 1 ->
          Par.Pool.with_pool ~jobs:config.jobs parallel
        | None -> sequential ()
    in
    let core_ids = Array.fold_left (fun acc r -> r.comp_ids @ acc) [] results in
    let lb_core_int = Array.fold_left (fun acc r -> acc + r.comp_lb) 0 results in
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
    let max_of f = Array.fold_left (fun acc r -> max acc (f r)) 0 results in
    finish ~core_ids ~lb_core_int
      ~steps:(sum (fun r -> r.comp_steps))
      ~iterations:(max_of (fun r -> r.comp_iterations))
      ~best_iteration:(max_of (fun r -> r.comp_best_iteration))
      ~fixes:(sum (fun r -> r.comp_fixes))
      ~pen:(sum (fun r -> r.comp_pen))
  end

(* The two-level bridge builds the covering matrix before [solve] opens
   any span, and on benchmark-sized PLAs it is most of the solve, so it
   gets a span of its own. *)
let bridge ?(telemetry = Telemetry.null) ~matrix build =
  Telemetry.span telemetry "bridge" (fun () ->
      let b = build () in
      let m = matrix b in
      Telemetry.add telemetry "bridge.primes" (Matrix.n_cols m);
      Telemetry.add telemetry "bridge.rows" (Matrix.n_rows m);
      b)

let solve_logic ?budget ?telemetry ?pool ?config ?cost ~on ~dc () =
  let bridge =
    bridge ?telemetry
      ~matrix:(fun b -> b.Covering.From_logic.matrix)
      (fun () -> Covering.From_logic.build ?cost ~on ~dc ())
  in
  let result =
    solve ?budget ?telemetry ?pool ?config bridge.Covering.From_logic.matrix
  in
  (result, bridge)

let solve_logic_implicit ?budget ?telemetry ?pool ?config ?cost ~on ~dc () =
  let bridge =
    bridge ?telemetry
      ~matrix:(fun b -> b.Covering.From_logic.imatrix)
      (fun () -> Covering.From_logic.build_implicit ?cost ~on ~dc ())
  in
  let result =
    solve ?budget ?telemetry ?pool ?config bridge.Covering.From_logic.imatrix
  in
  (result, bridge)

let solve_pla ?budget ?telemetry ?pool ?config pla ~output =
  solve_logic ?budget ?telemetry ?pool ?config ~on:(Logic.Pla.onset pla output)
    ~dc:(Logic.Pla.dcset pla output) ()

let solve_pla_multi ?budget ?telemetry ?pool ?config pla =
  let bridge =
    bridge ?telemetry
      ~matrix:(fun b -> b.Covering.From_logic.mmatrix)
      (fun () -> Covering.From_logic.build_multi pla)
  in
  let result =
    solve ?budget ?telemetry ?pool ?config bridge.Covering.From_logic.mmatrix
  in
  (result, bridge)
