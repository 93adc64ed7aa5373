module Config = Config
module Stats = Stats
module Budget = Budget
module Telemetry = Telemetry
module Warm = Warm
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
    let idx = Matrix.irredundant t.core (List.map (Hashtbl.find t.index_by_id) ids) in
    List.map (Matrix.col_id t.core) idx
end

(* A component's last cold root (doc/ALGORITHMS.md, "Reusing the cold
   root").  Every descent opens on the whole core with a fresh
   multiplier memory, and nothing random runs before fixing, so the
   root's subgradient outcome is a function of the core, the
   configuration and [ub], and its dual penalties one of the core and
   their own [z_best].  Each is kept under its key, and only the last of
   each: the incumbent only falls, so an older key never returns. *)
type root_memo = {
  mutable cold : (int * Subgradient.outcome * int) option;
      (* ub, the outcome, and the Dual_ascent ticks it took (its
         Subgradient ticks are its steps) *)
  mutable dual_pen : (int * Penalties.outcome) option;  (* z_best, outcome *)
}

(* The work a component's descents add up, reported in [Stats]. *)
type tally = {
  mutable steps : int;
  mutable warm_steps : int;
  mutable warm_stalls : int;
  mutable fixes : int;
  mutable penalty_fixes : int;
}

let new_tally () =
  { steps = 0; warm_steps = 0; warm_stalls = 0; fixes = 0; penalty_fixes = 0 }

(* One constructive descent from the cyclic core: alternate subgradient,
   penalties, heuristic fixing and explicit reductions until the matrix is
   empty or the path is bound-dominated.  Returns the candidate solutions
   found (in core-identifier space) and the best lower bound certified for
   the *full* core (i.e. from subgradient runs before any fixing).  [memo]
   is the component's root memo, read and written on the root only. *)
let construct ~(config : Config.t) ~budget ~telemetry ~(memo : root_memo)
    ~component ~rand ~best_cols ~(space : Core_space.t) ~(z_best : int ref)
    ~(best_ids : int list ref) ~(tally : tally) =
  (* each descent owns a fresh multiplier memory, the paper's §3.2
     semantics: λ and μ pass from one subproblem to the next *)
  let lambda_mem = Warm.create () and mu_mem = Warm.create () in
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
      let run () =
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
      let sg =
        if not first then run ()
        else
          (* reuse the root only once the governor has booked the ticks
             it took; a refused charge re-runs it, so a trip lands on
             the very tick it would have *)
          match memo.cold with
          | Some (ub', sg, dual_ticks)
            when ub' = ub
                 && Budget.charge budget
                      [
                        (Budget.Dual_ascent, dual_ticks);
                        (Budget.Subgradient, sg.Subgradient.steps);
                      ] ->
            Telemetry.add telemetry "subgradient.reused_steps" sg.Subgradient.steps;
            sg
          | _ ->
            let ticks0 = Budget.ticks budget in
            let sg = run () in
            (* nothing in a run ticks but its steps and its dual-ascent
               seeding; a tripped root is never reused *)
            if Budget.tripped budget = None then begin
              let dual_ticks =
                if Budget.is_active budget then
                  Budget.ticks budget - ticks0 - sg.Subgradient.steps
                else 0
              in
              memo.cold <- Some (ub, sg, dual_ticks)
            end;
            sg
      in
      tally.steps <- tally.steps + sg.Subgradient.steps;
      Telemetry.add telemetry "subgradient.steps" sg.Subgradient.steps;
      if lambda0 <> None then begin
        tally.warm_steps <- tally.warm_steps + sg.Subgradient.steps;
        Telemetry.add telemetry "warm_steps" sg.Subgradient.steps;
        if sg.Subgradient.stalled then begin
          tally.warm_stalls <- tally.warm_stalls + 1;
          Telemetry.incr telemetry "warm_stalls"
        end
      end;
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
          let z = !z_best - committed_cost in
          let compute () =
            Telemetry.span telemetry "dual-penalties" (fun () ->
                Penalties.dual ~max_cols:config.Config.dual_pen_max_cols
                  ~upper_dual:sg.Subgradient.upper_dual m ~z_best:z)
          in
          if not first then compute ()
          else
            match memo.dual_pen with
            | Some (z', pen) when z' = z -> pen
            | _ ->
              let pen = compute () in
              memo.dual_pen <- Some (z, pen);
              pen
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
        tally.penalty_fixes <-
          tally.penalty_fixes + List.length forced_in + List.length forced_out;
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
            match Fixing.best_columns ~sigma ~exclude:out_mask ~k:best_cols with
            | [] -> [] (* every column is forced out: path dead *)
            | cs ->
              let k = List.length cs in
              [ List.nth cs (if k <= 1 then 0 else rand k) ]
          end
        in
        tally.fixes <- tally.fixes + List.length fixed;
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
                Telemetry.span telemetry "re-reduce" (fun () ->
                    Reduce2.cyclic_core ~budget ~telemetry ~gimpel:false
                      ~dense_threshold:config.Config.dense_threshold m)
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

(* Everything one component contributes to the merged answer, folded
   in component order. *)
type comp_result = {
  comp_ids : int list;
  comp_lb : int;
  comp_iterations : int;
  comp_best_iteration : int;
}

let solve ?(budget = Budget.none) ?(telemetry = Telemetry.null)
    ?(config = Config.default) input =
  for j = 0 to Matrix.n_cols input - 1 do
    if Matrix.col_id input j <> j then invalid_arg "Scg.solve: matrix already re-indexed"
  done;
  (* engine-wide manager tunables: shared atomics, so every domain's
     manager sees them and a running manager re-reads the GC threshold
     at its next safe point *)
  Zdd.configure ~initial_size:config.zdd_initial_size
    ~gc_threshold:config.zdd_gc_threshold
    ~chain_reduction:config.zdd_chain_reduction ();
  Bdd.configure ~initial_size:config.zdd_initial_size ();
  (* all timings on the governor's wall clock, so [stats.total_seconds]
     is consistent with a tripped [--timeout] *)
  let t_start = Budget.Clock.now () in
  (* ---- implicit phase (Figure 2) ---- *)
  (* the ZDD reductions run only above the MaxR/MaxC guards.  An input
     within them would come back from [Implicit.reduce] untouched, so it
     skips the row ZDD and goes straight to the explicit phase, its rows
     sorted into the order decoding that ZDD would give them: the
     explicit phase sees the very matrix the round trip would hand it *)
  let decoded, essential0 =
    if
      Matrix.n_rows input <= config.max_rows_implicit
      && Matrix.n_cols input <= config.max_cols_implicit
    then (Matrix.canonical input, [])
    else
      Implicit.decode
        (Telemetry.span telemetry "implicit-reduce" (fun () ->
             Implicit.reduce ~budget ~telemetry
               ~max_rows:config.max_rows_implicit
               ~max_cols:config.max_cols_implicit (Implicit.of_matrix input)))
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
  let finish ~core_ids ~lb_core_int ~iterations ~best_iteration ~(tally : tally) =
    (* map a core-space solution back to input indices and report *)
    let lifted = Reduce.lift red.Reduce.trace core_ids in
    let full = Matrix.irredundant input (essential0 @ lifted) in
    let cost = Matrix.cost_of input full in
    let lower_bound = essential0_cost + red.Reduce.fixed_cost + lb_core_int in
    let total = Budget.Clock.now () -. t_start in
    let stats =
      {
        Stats.input_rows = Matrix.n_rows input;
        input_cols = Matrix.n_cols input;
        implicit_rows_left = float_of_int (Matrix.n_rows decoded);
        core_rows = Matrix.n_rows core;
        core_cols = Matrix.n_cols core;
        essential_count = List.length essential0 + List.length (Reduce.lift red.Reduce.trace []);
        cyclic_core_seconds = t_core;
        total_seconds = total;
        subgradient_steps = tally.steps;
        warm_steps = tally.warm_steps;
        warm_stalls = tally.warm_stalls;
        iterations;
        best_iteration;
        fixes = tally.fixes;
        penalty_fixes = tally.penalty_fixes;
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
    finish ~core_ids:[] ~lb_core_int:0 ~iterations:0 ~best_iteration:0
      ~tally:(new_tally ())
  else begin
    (* the oldest reduction of all (§2, "partitioning"): disconnected
       blocks of the cyclic core are independent subproblems, solved
       separately — their bounds add up, so optimality proofs compose.
       The RNG is seeded per component, so no component's search
       depends on the components solved before it. *)
    let components = Array.of_list (Covering.Partition.split core) in
    (* the components run one after another and their counts add up *)
    let tally = new_tally () in
    let solve_component ~component sub =
      let rng = Random.State.make [| config.seed; component |] in
      let rand bound = Random.State.int rng bound in
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
      (* lives for this component only: no state outlives the solve *)
      let memo = { cold = None; dual_pen = None } in
      (try
         for iter = 0 to config.num_iter - 1 do
           if Budget.tripped budget <> None then raise Exit;
           iterations := iter + 1;
           let best_cols = config.best_col_start + (iter * config.best_col_growth) in
           let before = !z_best in
           let lb =
             Telemetry.span telemetry "descent" (fun () ->
                 construct ~config ~budget ~telemetry ~memo ~component ~rand
                   ~best_cols ~space ~z_best ~best_ids ~tally)
           in
           if !z_best < before then best_iteration := iter + 1;
           best_lb := max !best_lb (ceil_int lb);
           if !z_best <= !best_lb then raise Exit
         done
       with Exit -> ());
      {
        comp_ids = !best_ids;
        comp_lb = !best_lb;
        comp_iterations = !iterations;
        comp_best_iteration = !best_iteration;
      }
    in
    let results =
      Array.mapi
        (fun component sub ->
          Telemetry.span telemetry ~index:component "component" (fun () ->
              solve_component ~component sub))
        components
    in
    let core_ids = Array.fold_left (fun acc r -> r.comp_ids @ acc) [] results in
    let lb_core_int = Array.fold_left (fun acc r -> acc + r.comp_lb) 0 results in
    let max_of f = Array.fold_left (fun acc r -> max acc (f r)) 0 results in
    finish ~core_ids ~lb_core_int
      ~iterations:(max_of (fun r -> r.comp_iterations))
      ~best_iteration:(max_of (fun r -> r.comp_best_iteration))
      ~tally
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

let solve_logic ?budget ?telemetry ?config ?cost ~on ~dc () =
  let bridge =
    bridge ?telemetry
      ~matrix:(fun b -> b.Covering.From_logic.matrix)
      (fun () -> Covering.From_logic.build ?telemetry ?cost ~on ~dc ())
  in
  let result =
    solve ?budget ?telemetry ?config bridge.Covering.From_logic.matrix
  in
  (result, bridge)

let solve_logic_implicit ?budget ?telemetry ?config ?cost ~on ~dc () =
  let bridge =
    bridge ?telemetry
      ~matrix:(fun b -> b.Covering.From_logic.imatrix)
      (fun () -> Covering.From_logic.build_implicit ?telemetry ?cost ~on ~dc ())
  in
  let result =
    solve ?budget ?telemetry ?config bridge.Covering.From_logic.imatrix
  in
  (result, bridge)

let solve_pla ?budget ?telemetry ?config pla ~output =
  solve_logic ?budget ?telemetry ?config ~on:(Logic.Pla.onset pla output)
    ~dc:(Logic.Pla.dcset pla output) ()

let solve_pla_multi ?budget ?telemetry ?config pla =
  let bridge =
    bridge ?telemetry
      ~matrix:(fun b -> b.Covering.From_logic.mmatrix)
      (fun () -> Covering.From_logic.build_multi ?telemetry pla)
  in
  let result =
    solve ?budget ?telemetry ?config bridge.Covering.From_logic.mmatrix
  in
  (result, bridge)
