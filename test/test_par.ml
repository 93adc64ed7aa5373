(* The parallel solve engine.

   Three layers of checks:
   - pool unit tests: Par.map is observationally Array.map under every
     pool size, including exceptions, nesting and reuse;
   - differential solver runs: jobs ∈ {1, 2, 8} produce bit-identical
     covers, costs, bounds and status over the registry suite, and the
     batch driver preserves per-instance results;
   - merged-telemetry conservation and budget trips under parallelism. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_identity () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 100 Fun.id in
      let out = Par.map ~pool (fun x -> (x * x) + 1) input in
      check (Alcotest.array int) "map = Array.map"
        (Array.map (fun x -> (x * x) + 1) input)
        out)

let test_map_empty_and_small () =
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      check (Alcotest.array int) "empty" [||] (Par.map ~pool succ [||]);
      check (Alcotest.array int) "singleton" [| 8 |] (Par.map ~pool succ [| 7 |]);
      check
        (Alcotest.list int)
        "map_list" [ 2; 3; 4 ]
        (Par.map_list ~pool succ [ 1; 2; 3 ]))

let test_map_no_pool () =
  check (Alcotest.array int) "no pool" [| 2; 4; 6 |]
    (Par.map (fun x -> 2 * x) [| 1; 2; 3 |])

let test_jobs_one_spawns_nothing () =
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      check int "jobs" 1 (Par.Pool.jobs pool);
      check (Alcotest.array int) "sequential degenerate" [| 1; 2; 3 |]
        (Par.map ~pool succ [| 0; 1; 2 |]))

exception Boom of int

let test_exception_lowest_index () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Par.map ~pool
               (fun x -> if x mod 3 = 1 then raise (Boom x) else x)
               (Array.init 32 Fun.id));
          None
        with Boom k -> Some k
      in
      (* all tasks still ran; the lowest failing index is re-raised *)
      check (Alcotest.option int) "first failure wins" (Some 1) raised)

let test_nested_map () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Par.map ~pool
          (fun i ->
            (* nested map on the same pool must not deadlock *)
            Array.fold_left ( + ) 0
              (Par.map ~pool (fun j -> (i * 10) + j) (Array.init 5 Fun.id)))
          (Array.init 8 Fun.id)
      in
      let expect =
        Array.init 8 (fun i ->
            Array.fold_left ( + ) 0 (Array.init 5 (fun j -> (i * 10) + j)))
      in
      check (Alcotest.array int) "nested" expect out)

let test_pool_reuse () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      for round = 1 to 20 do
        let out = Par.map ~pool (fun x -> x + round) (Array.init 17 Fun.id) in
        check (Alcotest.array int)
          (Printf.sprintf "round %d" round)
          (Array.init 17 (fun x -> x + round))
          out
      done)

let test_map_parallel_effects () =
  (* effects land exactly once per task even under real concurrency *)
  Par.Pool.with_pool ~jobs:8 (fun pool ->
      let hits = Atomic.make 0 in
      let _ = Par.map ~pool (fun () -> Atomic.incr hits) (Array.make 200 ()) in
      check int "each task ran once" 200 (Atomic.get hits))

(* ------------------------------------------------------------------ *)
(* Differential: sequential vs parallel solves                         *)
(* ------------------------------------------------------------------ *)

let solve_with_jobs ~jobs problem =
  let config = { Scg.Config.default with jobs } in
  Scg.solve ~config problem

let same_result name (a : Scg.result) (b : Scg.result) =
  check (Alcotest.list int) (name ^ ": solution") a.solution b.solution;
  check int (name ^ ": cost") a.cost b.cost;
  check int (name ^ ": lower bound") a.lower_bound b.lower_bound;
  check bool (name ^ ": proven_optimal") a.proven_optimal b.proven_optimal;
  check bool (name ^ ": status") true (a.status = b.status)

let differential_suite instances jobs_list () =
  List.iter
    (fun (inst : Benchsuite.Registry.instance) ->
      let problem = Benchsuite.Registry.matrix inst in
      let reference = solve_with_jobs ~jobs:1 problem in
      List.iter
        (fun jobs ->
          let r = solve_with_jobs ~jobs problem in
          same_result (Printf.sprintf "%s (jobs=%d)" inst.name jobs) reference r)
        jobs_list)
    instances

let test_differential_easy () =
  differential_suite (Benchsuite.Registry.easy ()) [ 2; 8 ] ()

let test_differential_difficult () =
  differential_suite (Benchsuite.Registry.difficult ()) [ 2; 8 ] ()

let test_batch_matches_sequential () =
  (* batch parallelism: solving many instances concurrently, each on its
     own domain with its own collector, changes nothing per instance *)
  let problems =
    Array.of_list
      (List.map Benchsuite.Registry.matrix (Benchsuite.Registry.difficult ()))
  in
  let sequential = Array.map (solve_with_jobs ~jobs:1) problems in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let parallel = Par.map ~pool (solve_with_jobs ~jobs:1) problems in
      Array.iteri
        (fun i r -> same_result (Printf.sprintf "batch[%d]" i) sequential.(i) r)
        parallel)

(* ------------------------------------------------------------------ *)
(* Budget under parallelism                                            *)
(* ------------------------------------------------------------------ *)

let test_budget_trip_parallel () =
  (* an already-expired deadline trips in every component worker; the
     merged result reports the trip and still honours the anytime
     contract (feasible cover, valid lower bound).  Note bit-identity is
     NOT promised under a tripped budget: tick counters are per-domain,
     so where the axe falls differs between jobs counts (DESIGN.md §10). *)
  let problem = Benchsuite.Registry.matrix (Benchsuite.Registry.find "test4") in
  let run jobs =
    let budget = Scg.Budget.create ~timeout:0.0 () in
    let r = Scg.solve ~budget ~config:{ Scg.Config.default with jobs } problem in
    (r, Scg.Budget.tripped budget)
  in
  let r1, trip1 = run 1 in
  let r4, trip4 = run 4 in
  check bool "sequential tripped" true (trip1 <> None);
  check bool "parallel tripped" true (trip4 <> None);
  check bool "sequential cover feasible" true
    (Covering.Matrix.covers problem r1.solution);
  check bool "parallel cover feasible" true
    (Covering.Matrix.covers problem r4.solution);
  check bool "parallel bound valid" true (r4.lower_bound <= r4.cost);
  (match r1.status with
  | Scg.Feasible_budget_exhausted _ -> ()
  | _ -> Alcotest.fail "sequential status must report the trip");
  match r4.status with
  | Scg.Feasible_budget_exhausted _ -> ()
  | _ -> Alcotest.fail "parallel status must report the trip"

let test_budget_fork_absorb () =
  let parent = Budget.create ~steps:10 () in
  let child = Budget.fork parent in
  check bool "child active" true (Budget.is_active child);
  (* trip the child only *)
  let tripped = ref false in
  for _ = 1 to 20 do
    if Budget.tick child Budget.Subgradient then tripped := true
  done;
  check bool "child tripped" true !tripped;
  check bool "parent untouched" true (Budget.tripped parent = None);
  Budget.absorb parent child;
  check bool "parent absorbed trip" true (Budget.tripped parent <> None)

let test_budget_fork_of_none () =
  let child = Budget.fork Budget.none in
  check bool "fork of none is inactive" false (Budget.is_active child);
  Budget.absorb Budget.none child;
  check bool "none never trips" true (Budget.tripped Budget.none = None)

(* ------------------------------------------------------------------ *)
(* Telemetry merge                                                     *)
(* ------------------------------------------------------------------ *)

let test_telemetry_counter_conservation () =
  (* counters incremented across forked collectors sum exactly into the
     parent after merging — nothing lost, nothing double-counted *)
  let parent = Telemetry.create () in
  Telemetry.add parent "work" 5;
  let children = Array.init 4 (fun _ -> Telemetry.fork parent) in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Par.map ~pool
           (fun t ->
             for _ = 1 to 100 do
               Telemetry.incr t "work"
             done;
             Telemetry.event t "probe" [])
           children));
  Array.iter (fun c -> Telemetry.merge parent c) children;
  check int "counter conserved" 405 (Telemetry.counter parent "work");
  let events =
    match Telemetry.summary parent with
    | Telemetry.Json.Obj fields -> (
      match List.assoc_opt "events" fields with
      | Some (Telemetry.Json.Obj evs) -> (
        match List.assoc_opt "probe" evs with
        | Some (Telemetry.Json.Int n) -> n
        | _ -> -1)
      | _ -> -1)
    | _ -> -1
  in
  check int "events conserved" 4 events

let test_telemetry_span_merge () =
  let parent = Telemetry.create () in
  let child = Telemetry.fork parent in
  Telemetry.span child ~index:3 "component" (fun () -> ());
  Telemetry.merge parent child;
  let names = List.map (fun s -> s.Telemetry.name) (Telemetry.spans parent) in
  check bool "merged span visible" true (List.mem "component-3" names)

let test_telemetry_merged_solve_counters () =
  (* end to end: a parallel solve's merged collector reports the same
     counter totals as the sequential solve's collector *)
  let problem = Benchsuite.Registry.matrix (Benchsuite.Registry.find "exam") in
  let counters_with jobs =
    let telemetry = Telemetry.create () in
    let (_ : Scg.result) =
      Scg.solve ~telemetry ~config:{ Scg.Config.default with jobs } problem
    in
    Telemetry.counters telemetry
  in
  let seq = counters_with 1 in
  let par = counters_with 4 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "merged counters = sequential counters" seq par

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map identity" `Quick test_map_identity;
          Alcotest.test_case "empty/small" `Quick test_map_empty_and_small;
          Alcotest.test_case "no pool" `Quick test_map_no_pool;
          Alcotest.test_case "jobs=1" `Quick test_jobs_one_spawns_nothing;
          Alcotest.test_case "exception order" `Quick test_exception_lowest_index;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "parallel effects" `Quick test_map_parallel_effects;
        ] );
      ( "differential",
        [
          Alcotest.test_case "easy suite jobs={1,2,8}" `Slow test_differential_easy;
          Alcotest.test_case "difficult suite jobs={1,2,8}" `Slow
            test_differential_difficult;
          Alcotest.test_case "batch = sequential" `Slow test_batch_matches_sequential;
        ] );
      ( "budget",
        [
          Alcotest.test_case "trip under parallelism" `Quick test_budget_trip_parallel;
          Alcotest.test_case "fork/absorb" `Quick test_budget_fork_absorb;
          Alcotest.test_case "fork of none" `Quick test_budget_fork_of_none;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counter conservation" `Quick
            test_telemetry_counter_conservation;
          Alcotest.test_case "span merge" `Quick test_telemetry_span_merge;
          Alcotest.test_case "solve counters merge" `Slow
            test_telemetry_merged_solve_counters;
        ] );
    ]
