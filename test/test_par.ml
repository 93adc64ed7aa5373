(* The worker pool and batch parallelism.

   Three layers of checks:
   - pool unit tests: Par.map is observationally Array.map under every
     pool size, including exceptions, nesting and reuse;
   - batch runs: whole instances solved on a pool, one per task, give
     the answers of their sequential solves, and an expired deadline
     forked into every instance still yields anytime answers;
   - merged-telemetry conservation, the way the daemon folds each
     request's collector into its server collector. *)

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
      check (Alcotest.array int) "singleton" [| 8 |] (Par.map ~pool succ [| 7 |]))

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
(* Batch parallelism                                                   *)
(* ------------------------------------------------------------------ *)

let same_result name (a : Scg.result) (b : Scg.result) =
  check (Alcotest.list int) (name ^ ": solution") a.solution b.solution;
  check int (name ^ ": cost") a.cost b.cost;
  check int (name ^ ": lower bound") a.lower_bound b.lower_bound;
  check bool (name ^ ": proven_optimal") a.proven_optimal b.proven_optimal;
  check bool (name ^ ": status") true (a.status = b.status)

(* built on the calling domain: the registry's lazies are not
   domain-safe, and each task below owns its matrix outright *)
let difficult_problems () =
  Array.of_list
    (List.map Benchsuite.Registry.matrix (Benchsuite.Registry.difficult ()))

let test_batch_matches_sequential () =
  (* solving many instances concurrently, each on its own domain with
     its own ZDD manager, changes nothing per instance *)
  let problems = difficult_problems () in
  let sequential = Array.map Scg.solve problems in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let parallel = Par.map ~pool Scg.solve problems in
      Array.iteri
        (fun i r -> same_result (Printf.sprintf "batch[%d]" i) sequential.(i) r)
        parallel)

(* ------------------------------------------------------------------ *)
(* Budget forks in a batch                                             *)
(* ------------------------------------------------------------------ *)

let test_budget_trip_parallel () =
  (* the CLI batch's wiring: one fork of an already-expired deadline
     per instance, all solved on one pool.  The deadline trips in every
     instance, and every answer still honours the anytime contract
     (feasible cover, valid lower bound, the trip reported) *)
  let problems = difficult_problems () in
  let parent = Budget.create ~timeout:0.0 () in
  let budgets = Array.map (fun _ -> Budget.fork parent) problems in
  let results =
    Par.Pool.with_pool ~jobs:4 (fun pool ->
        Par.map ~pool
          (fun i -> Scg.solve ~budget:budgets.(i) problems.(i))
          (Array.init (Array.length problems) Fun.id))
  in
  Array.iteri
    (fun i (r : Scg.result) ->
      let name = Printf.sprintf "batch[%d]" i in
      check bool (name ^ ": cover feasible") true
        (Covering.Matrix.covers problems.(i) r.solution);
      check bool (name ^ ": bound valid") true (r.lower_bound <= r.cost);
      match r.status with
      | Scg.Feasible_budget_exhausted _ -> ()
      | _ -> Alcotest.failf "%s: status must report the trip" name)
    results;
  check int "the parent never ticked" 0 (Budget.ticks parent)

let test_budget_fork () =
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
  (* a fork of a tripped governor starts tripped *)
  for _ = 1 to 20 do
    ignore (Budget.tick parent Budget.Subgradient)
  done;
  check bool "late fork tripped" true
    (Budget.tripped (Budget.fork parent) <> None)

let test_budget_fork_of_none () =
  let child = Budget.fork Budget.none in
  check bool "fork of none is inactive" false (Budget.is_active child);
  check bool "none never trips" true (Budget.tripped Budget.none = None)

(* ------------------------------------------------------------------ *)
(* Telemetry merge                                                     *)
(* ------------------------------------------------------------------ *)

let test_telemetry_counter_conservation () =
  (* counters incremented across collectors on several domains sum
     exactly into the server collector after merging — nothing lost,
     nothing double-counted *)
  let server = Telemetry.create () in
  Telemetry.add server "work" 5;
  let children = Array.init 4 (fun _ -> Telemetry.create ()) in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Par.map ~pool
           (fun t ->
             for _ = 1 to 100 do
               Telemetry.incr t "work"
             done;
             Telemetry.event t "probe" [])
           children));
  Array.iter (fun c -> Telemetry.merge server c) children;
  check int "counter conserved" 405 (Telemetry.counter server "work");
  let events =
    match Telemetry.summary server with
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
  let server = Telemetry.create () in
  let request = Telemetry.create () in
  Telemetry.span request ~index:3 "component" (fun () -> ());
  Telemetry.merge server request;
  let names = List.map (fun s -> s.Telemetry.name) (Telemetry.spans server) in
  check bool "merged span visible" true (List.mem "component-3" names)

let test_telemetry_merged_solve_counters () =
  (* end to end: solves of a batch record into collectors of their own,
     and the collector they are merged into holds, per counter, the sum
     of the sequential solves' totals *)
  let problems =
    Array.map
      (fun name -> Benchsuite.Registry.matrix (Benchsuite.Registry.find name))
      [| "t1"; "exam" |]
  in
  let traced_solve m =
    let telemetry = Telemetry.create () in
    let (_ : Scg.result) = Scg.solve ~telemetry m in
    telemetry
  in
  let expected =
    Array.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc (name, v) ->
            let prev = Option.value ~default:0 (List.assoc_opt name acc) in
            (name, prev + v) :: List.remove_assoc name acc)
          acc
          (Telemetry.counters (traced_solve m)))
      [] problems
    |> List.sort Stdlib.compare
  in
  let server = Telemetry.create () in
  Par.Pool.with_pool ~jobs:2 (fun pool -> Par.map ~pool traced_solve problems)
  |> Array.iter (Telemetry.merge server);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "merged counters = summed sequential counters" expected
    (Telemetry.counters server)

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
          Alcotest.test_case "batch = sequential" `Slow test_batch_matches_sequential;
        ] );
      ( "budget",
        [
          Alcotest.test_case "trip under parallelism" `Quick test_budget_trip_parallel;
          Alcotest.test_case "fork trips the child only" `Quick test_budget_fork;
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
