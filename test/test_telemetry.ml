(* The telemetry subsystem: span nesting and monotonicity invariants
   (driven by a fake clock), JSON round-tripping of the trace stream,
   the null-sink differential guarantee (tracing must not change solver
   results), and the timing-consistency regression — reported times are
   wall-clock and therefore comparable with a tripped --timeout. *)

module Telemetry = Scg.Telemetry
module Json = Telemetry.Json
module Matrix = Covering.Matrix

let check = Alcotest.(check bool)

(* a deterministic clock: every read advances time by 1.0 *)
let fake_clock () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. 1.;
    v

(* ------------------------------------------------------------------ *)
(* Null collector                                                     *)
(* ------------------------------------------------------------------ *)

let test_null_inert () =
  let t = Telemetry.null in
  check "disabled" true (not (Telemetry.enabled t));
  Alcotest.(check int) "span runs thunk" 41 (Telemetry.span t "x" (fun () -> 41));
  Telemetry.add t "c" 5;
  Telemetry.incr t "c";
  Telemetry.event t "e" [ ("k", Json.Int 1) ];
  Telemetry.step t ~phase:"p" ~component:0 ~step:1 ~value:1. ~best:1.;
  Alcotest.(check int) "counter 0" 0 (Telemetry.counter t "c");
  check "no counters" true (Telemetry.counters t = []);
  check "no spans" true (Telemetry.spans t = []);
  check "no last_best" true (Telemetry.last_best t ~phase:"p" = None);
  check "elapsed 0" true (Telemetry.elapsed t = 0.);
  check "empty summary" true (Json.equal (Telemetry.summary t) (Json.Obj []));
  Telemetry.close t

(* ------------------------------------------------------------------ *)
(* Spans: nesting, monotonicity, exception safety                     *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  Telemetry.span t "outer" (fun () ->
      Telemetry.span t ~index:0 "inner" (fun () -> ());
      Telemetry.span t ~index:1 "inner" (fun () -> ()));
  Telemetry.span t "flat" (fun () -> ());
  let spans = Telemetry.spans t in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  (* completion order: inner spans close before their enclosing one *)
  let names = List.map (fun s -> s.Telemetry.name) spans in
  check "order" true (names = [ "inner-0"; "inner-1"; "outer"; "flat" ]);
  List.iter
    (fun s -> check "start <= stop" true (s.Telemetry.start <= s.Telemetry.stop))
    spans;
  let by_name n = List.find (fun s -> s.Telemetry.name = n) spans in
  let outer = by_name "outer" and i0 = by_name "inner-0" and i1 = by_name "inner-1" in
  Alcotest.(check int) "outer depth" 0 outer.Telemetry.depth;
  Alcotest.(check int) "inner depth" 1 i0.Telemetry.depth;
  check "inner inside outer" true
    (outer.Telemetry.start <= i0.Telemetry.start
    && i1.Telemetry.stop <= outer.Telemetry.stop);
  check "siblings ordered" true (i0.Telemetry.stop <= i1.Telemetry.start);
  Alcotest.(check int) "flat back at depth 0" 0 (by_name "flat").Telemetry.depth

let test_span_exception_safe () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  (try Telemetry.span t "outer" (fun () -> failwith "boom") with Failure _ -> ());
  (* the span is still recorded, and the depth counter is restored *)
  Alcotest.(check int) "span recorded" 1 (List.length (Telemetry.spans t));
  Telemetry.span t "next" (fun () -> ());
  let next = List.nth (Telemetry.spans t) 1 in
  Alcotest.(check int) "depth restored" 0 next.Telemetry.depth

let test_counters_and_steps () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  Telemetry.add t "a" 3;
  Telemetry.incr t "a";
  Telemetry.incr t "b";
  Alcotest.(check int) "a" 4 (Telemetry.counter t "a");
  Alcotest.(check int) "b" 1 (Telemetry.counter t "b");
  check "sorted" true (Telemetry.counters t = [ ("a", 4); ("b", 1) ]);
  Telemetry.step t ~phase:"subgradient" ~component:0 ~step:0 ~value:1.5 ~best:1.5;
  Telemetry.step t ~phase:"subgradient" ~component:0 ~step:1 ~value:1.2 ~best:1.7;
  check "last best" true (Telemetry.last_best t ~phase:"subgradient" = Some 1.7);
  match Json.member "steps" (Telemetry.summary t) with
  | Some (Json.Obj [ ("subgradient", sub) ]) ->
    check "step count" true (Json.member "count" sub = Some (Json.Int 2))
  | _ -> Alcotest.fail "summary.steps shape"

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_round_trip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 0.1;
      Json.Float 1e-9;
      Json.Float 12345.6789;
      Json.String "plain";
      Json.String "esc \" \\ \n \t \x07 unicode \xc3\xa9";
      Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Null) ]; Json.List [] ];
      Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool false ]) ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> check (Json.to_string v) true (Json.equal v v')
      | Error e -> Alcotest.failf "parse failed on %s: %s" (Json.to_string v) e)
    samples;
  (* non-finite floats canonicalise to null *)
  check "nan" true (Json.to_string (Json.Float Float.nan) = "null");
  check "inf" true (Json.to_string (Json.Float Float.infinity) = "null");
  check "reject garbage" true
    (match Json.of_string "{\"a\": }" with Error _ -> true | Ok _ -> false);
  check "reject trailing" true
    (match Json.of_string "1 2" with Error _ -> true | Ok _ -> false)

(* every record streamed to the sink parses back, timestamps are
   monotone, span begin/end are balanced and the summary comes last *)
let test_trace_stream () =
  let lines = ref [] in
  let t = Telemetry.create ~clock:(fake_clock ()) ~trace:(fun l -> lines := l :: !lines) () in
  Telemetry.span t "outer" (fun () ->
      Telemetry.step t ~phase:"subgradient" ~component:0 ~step:0 ~value:2. ~best:2.;
      Telemetry.event t "incumbent" [ ("cost", Json.Int 7) ];
      Telemetry.span t "inner" (fun () -> ()));
  Telemetry.close t;
  Telemetry.close t (* idempotent: must not add a second summary *)
  ;
  let records =
    List.rev_map
      (fun l ->
        match Json.of_string l with
        | Ok v -> v
        | Error e -> Alcotest.failf "unparseable trace line %S: %s" l e)
      !lines
  in
  check "has records" true (List.length records = 7);
  let t_of r = Option.get (Json.to_float (Option.get (Json.member "t" r))) in
  let ev_of r = Option.get (Json.to_str (Option.get (Json.member "ev" r))) in
  let rec monotone = function
    | a :: (b :: _ as rest) -> t_of a <= t_of b && monotone rest
    | _ -> true
  in
  check "t monotone" true (monotone records);
  let depth = ref 0 in
  List.iter
    (fun r ->
      match ev_of r with
      | "span_begin" -> incr depth
      | "span_end" ->
        decr depth;
        check "balanced" true (!depth >= 0)
      | _ -> ())
    records;
  Alcotest.(check int) "spans balanced" 0 !depth;
  let last = List.nth records (List.length records - 1) in
  check "summary last" true (ev_of last = "summary");
  check "exactly one summary" true
    (List.length (List.filter (fun r -> ev_of r = "summary") records) = 1);
  check "incumbent event seen" true
    (List.exists (fun r -> ev_of r = "incumbent") records)

(* ------------------------------------------------------------------ *)
(* Solver integration                                                 *)
(* ------------------------------------------------------------------ *)

let bench1 () = Benchsuite.Registry.matrix (Benchsuite.Registry.find "bench1")

(* an active collector must not perturb the solve: same cost, same
   solution, same stats as the untraced run *)
let test_null_vs_active_differential () =
  let m = bench1 () in
  let plain = Scg.solve m in
  let buf = Buffer.create 4096 in
  let t = Telemetry.create ~trace:(fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') () in
  let traced = Scg.solve ~telemetry:t m in
  Telemetry.close t;
  check "same cost" true (plain.Scg.cost = traced.Scg.cost);
  check "same solution" true (plain.Scg.solution = traced.Scg.solution);
  check "same lower bound" true (plain.Scg.lower_bound = traced.Scg.lower_bound);
  check "same iterations" true
    (plain.Scg.stats.Scg.Stats.iterations = traced.Scg.stats.Scg.Stats.iterations);
  (* and the traced run actually recorded the solve's phases; bench1 is
     within the MaxR/MaxC guards, so the implicit phase does not run *)
  let names t = List.map (fun s -> s.Telemetry.name) (Telemetry.spans t) in
  let names_default = names t in
  check "no implicit span within the guards" false
    (List.mem "implicit-reduce" names_default);
  check "explicit span" true (List.mem "explicit-reduce" names_default);
  check "component span" true (List.mem "component-0" names_default);
  check "subgradient steps counted" true
    (Telemetry.counter t "subgradient.steps"
    = traced.Scg.stats.Scg.Stats.subgradient_steps);
  check "trace nonempty" true (Buffer.length buf > 0);
  (* MaxR = 0 puts it above the guard: the phase runs, in its span *)
  let above = Telemetry.create () in
  let config = { Scg.Config.default with Scg.Config.max_rows_implicit = 0 } in
  let r = Scg.solve ~telemetry:above ~config m in
  check "same cost above the guard" true (r.Scg.cost = plain.Scg.cost);
  check "implicit span above the guard" true
    (List.mem "implicit-reduce" (names above))

(* solver spans cover the run: the per-phase seconds in the summary sum
   to no more than the total elapsed time, and the top-level phases are
   each accounted once per solve *)
let test_span_accounting () =
  let m = bench1 () in
  let t = Telemetry.create () in
  ignore (Scg.solve ~telemetry:t m);
  let elapsed = Telemetry.elapsed t in
  let top =
    List.filter (fun s -> s.Telemetry.depth = 0) (Telemetry.spans t)
  in
  let top_seconds =
    List.fold_left (fun a s -> a +. (s.Telemetry.stop -. s.Telemetry.start)) 0. top
  in
  check "top-level spans fit in elapsed" true (top_seconds <= elapsed +. 1e-6);
  List.iter
    (fun s -> check "span within run" true (s.Telemetry.start >= 0. && s.Telemetry.stop <= elapsed +. 1e-6))
    (Telemetry.spans t)

(* the timing-consistency regression for the Sys.time bug: under a
   wall-clock --timeout the reported total_seconds must be on the same
   clock as the deadline, i.e. at least (roughly) the timeout whenever
   the deadline tripped *)
let test_wall_clock_consistency () =
  let m = Benchsuite.Registry.matrix (Benchsuite.Registry.find "test2") in
  let timeout = 0.15 in
  let budget = Scg.Budget.create ~timeout () in
  let t0 = Scg.Budget.Clock.now () in
  let r = Scg.solve ~budget m in
  let wall = Scg.Budget.Clock.now () -. t0 in
  match r.Scg.status with
  | Scg.Feasible_budget_exhausted _ ->
    let total = r.Scg.stats.Scg.Stats.total_seconds in
    check "total >= 90% of tripped deadline" true (total >= 0.9 *. timeout);
    check "total <= wall" true (total <= wall +. 0.01)
  | Scg.Optimal | Scg.Feasible ->
    (* machine fast enough to finish inside the deadline: the only claim
       left is stats-vs-wall consistency *)
    check "total <= wall" true (r.Scg.stats.Scg.Stats.total_seconds <= wall +. 0.01)

let () =
  Alcotest.run "telemetry"
    [
      ( "collector",
        [
          Alcotest.test_case "null inert" `Quick test_null_inert;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "counters and steps" `Quick test_counters_and_steps;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "trace stream" `Quick test_trace_stream;
        ] );
      ( "solver",
        [
          Alcotest.test_case "null vs active differential" `Quick
            test_null_vs_active_differential;
          Alcotest.test_case "span accounting" `Quick test_span_accounting;
          Alcotest.test_case "wall-clock consistency" `Slow
            test_wall_clock_consistency;
        ] );
    ]
