(* The trace-analysis toolkit (lib/obs): reader round-trips on collector
   output, strictness on truncated/corrupt traces, profile time
   attribution, convergence LB/UB extraction and the regression differ.

   Synthetic traces are produced by a real Telemetry collector driven by
   a fake clock, so these tests cover the writer and the reader against
   each other — the schema under test is the schema the solver emits. *)

module Telemetry = Scg.Telemetry
module Json = Telemetry.Json

(* Scg's module initialiser registers the ZDD probes; the Telemetry
   alias above is seen through by the compiler, so reference a real
   value to force Scg to be linked (and its initialiser run) *)
let _force_scg_linkage = Scg.solve

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* a collector writing to an in-memory line buffer under a hand-cranked
   clock; [tick] advances it so span durations are exact *)
let make_collector () =
  let now = ref 0. in
  let lines = ref [] in
  let t =
    Telemetry.create ~clock:(fun () -> !now) ~trace:(fun l -> lines := l :: !lines) ()
  in
  let tick dt = now := !now +. dt in
  (t, tick, fun () -> List.rev !lines)

let parse_ok lines =
  match Obs.Trace.of_lines ~source:"test" lines with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace rejected: %s" (Obs.Trace.error_to_string e)

let parse_err lines =
  match Obs.Trace.of_lines ~source:"test" lines with
  | Ok _ -> Alcotest.fail "malformed trace accepted"
  | Error e -> e

(* the shared golden trace: two indexed components under a descent, a
   subgradient with two runs (index reset at the second), an incumbent
   event and counters — the shapes every tool must handle *)
let golden () =
  let t, tick, lines = make_collector () in
  Telemetry.span t "implicit-reduce" (fun () -> tick 0.25);
  Telemetry.incr t "reduce.cols_essential";
  Telemetry.span t ~index:0 "component" (fun () ->
      Telemetry.span t "descent" (fun () ->
          Telemetry.span t "subgradient" (fun () ->
              (* first run: the certified full-core bound *)
              Telemetry.step t ~phase:"subgradient" ~component:0 ~step:1 ~value:3.5
                ~best:3.5;
              tick 0.5;
              Telemetry.step t ~phase:"subgradient" ~component:0 ~step:2 ~value:3.2
                ~best:4.0;
              (* second run (reduced submatrix): index resets *)
              Telemetry.step t ~phase:"subgradient" ~component:0 ~step:1 ~value:9.0
                ~best:9.0);
          Telemetry.event t "incumbent" [ ("component", Json.Int 0); ("cost", Json.Int 6) ];
          tick 0.25));
  Telemetry.span t ~index:1 "component" (fun () ->
      Telemetry.span t "subgradient" (fun () ->
          Telemetry.step t ~phase:"subgradient" ~component:1 ~step:1 ~value:2.0
            ~best:2.0;
          tick 1.0);
      Telemetry.event t "incumbent" [ ("component", Json.Int 1); ("cost", Json.Int 2) ]);
  tick 0.5;
  Telemetry.close t;
  lines ()

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

let test_reader_roundtrip () =
  let tr = parse_ok (golden ()) in
  checkf "elapsed" 2.5 tr.Obs.Trace.elapsed;
  checki "top-level spans" 3 (List.length tr.Obs.Trace.roots);
  (match tr.Obs.Trace.roots with
  | [ red; c0; c1 ] ->
    check Alcotest.string "first root" "implicit-reduce" red.Obs.Trace.name;
    checkf "reduce duration" 0.25 red.Obs.Trace.dur;
    check Alcotest.string "component 0" "component-0" c0.Obs.Trace.name;
    checkf "component-0 spans its children" 0.75 c0.Obs.Trace.dur;
    checki "component-0 depth" 0 c0.Obs.Trace.depth;
    (match c0.Obs.Trace.children with
    | [ d ] ->
      check Alcotest.string "child" "descent" d.Obs.Trace.name;
      checki "descent depth" 1 d.Obs.Trace.depth;
      (match d.Obs.Trace.children with
      | [ sg ] -> check Alcotest.string "grandchild" "subgradient" sg.Obs.Trace.name
      | l -> Alcotest.failf "descent has %d children" (List.length l))
    | l -> Alcotest.failf "component-0 has %d children" (List.length l));
    check Alcotest.string "component 1" "component-1" c1.Obs.Trace.name
  | _ -> Alcotest.fail "unexpected root shape");
  checki "steps" 4 (List.length tr.Obs.Trace.steps);
  checki "incumbent events" 2
    (List.length
       (List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.ev = "incumbent")
          tr.Obs.Trace.events));
  checki "essential counter" 1
    (Option.value ~default:(-1)
       (List.assoc_opt "reduce.cols_essential" (Obs.Trace.counters tr)));
  (* every span record carries the built-in GC gauges *)
  let rec all_spans acc (s : Obs.Trace.span) =
    List.fold_left all_spans (s :: acc) s.Obs.Trace.children
  in
  List.iter
    (fun (s : Obs.Trace.span) ->
      checkb
        (Printf.sprintf "%s has gc.minor_words" s.Obs.Trace.name)
        true
        (List.mem_assoc "gc.minor_words" s.Obs.Trace.gauges))
    (List.fold_left all_spans [] tr.Obs.Trace.roots);
  checkb "summary has gauges" true (Obs.Trace.summary_gauges tr <> [])

let test_reader_rejects_truncation () =
  let lines = golden () in
  let n = List.length lines in
  (* drop the summary: missing-summary error *)
  let e = parse_err (List.filteri (fun i _ -> i < n - 1) lines) in
  checkb "mentions summary" true
    (Test_support.contains e.Obs.Trace.msg "summary");
  (* drop the last span_end too: unclosed spans *)
  let e = parse_err (List.filteri (fun i _ -> i < n - 2) lines) in
  checkb "mentions truncation" true
    (Test_support.contains e.Obs.Trace.msg "unclosed"
    || Test_support.contains e.Obs.Trace.msg "summary");
  (* empty trace *)
  let e = parse_err [] in
  checkb "empty rejected" true (Test_support.contains e.Obs.Trace.msg "empty")

let test_reader_rejects_corruption () =
  let lines = golden () in
  (* a garbage line in the middle, with its 1-based position reported *)
  let garbled =
    List.concat_map
      (fun (i, l) -> if i = 2 then [ "{not json" ] else [ l ])
      (List.mapi (fun i l -> (i, l)) lines)
  in
  let e = parse_err garbled in
  checki "error line" 3 e.Obs.Trace.line;
  (* a record after the summary (with a timestamp that keeps the stream
     monotone, so the after-summary check itself is what fires) *)
  let e =
    parse_err (lines @ [ {|{"t":999.0,"ev":"span_begin","name":"x","depth":0}|} ])
  in
  checkb "record after summary" true
    (Test_support.contains e.Obs.Trace.msg "summary");
  (* an unbalanced span_end *)
  let e =
    parse_err
      [
        {|{"t":0.0,"ev":"span_begin","name":"a","depth":0}|};
        {|{"t":1.0,"ev":"span_end","name":"b","depth":0,"dur":1.0}|};
      ]
  in
  checkb "span mismatch" true (Test_support.contains e.Obs.Trace.msg "span");
  (* non-monotone timestamps *)
  let e =
    parse_err
      [
        {|{"t":5.0,"ev":"span_begin","name":"a","depth":0}|};
        {|{"t":1.0,"ev":"span_end","name":"a","depth":0,"dur":1.0}|};
      ]
  in
  checkb "monotone check" true (Test_support.contains e.Obs.Trace.msg "monotone")

let test_base_name () =
  check Alcotest.string "indexed" "component" (Obs.Trace.base_name "component-3");
  check Alcotest.string "double" "espresso-pass" (Obs.Trace.base_name "espresso-pass-12");
  check Alcotest.string "plain" "descent" (Obs.Trace.base_name "descent");
  check Alcotest.string "trailing dash" "a-" (Obs.Trace.base_name "a-")

(* ------------------------------------------------------------------ *)
(* Profile                                                            *)
(* ------------------------------------------------------------------ *)

let find_node name (p : Obs.Profile.t) =
  match List.find_opt (fun (n : Obs.Profile.node) -> n.Obs.Profile.name = name) p.Obs.Profile.roots with
  | Some n -> n
  | None -> Alcotest.failf "no root node %S" name

let test_profile_merge_and_self () =
  let p = Obs.Profile.of_trace (parse_ok (golden ())) in
  checkf "elapsed" 2.5 p.Obs.Profile.elapsed;
  (* both components pool under one node *)
  let c = find_node "component" p in
  checki "merged count" 2 c.Obs.Profile.count;
  checkf "merged total" 1.75 c.Obs.Profile.total;
  (* component-0's time is all in descent (0.75), component-1's
     subgradient child accounts for 1.0: self = 1.75 - 0.75 - 1.0 = 0 *)
  checkf "component self" 0. c.Obs.Profile.self;
  let red = find_node "implicit-reduce" p in
  checkf "leaf self = total" red.Obs.Profile.total red.Obs.Profile.self;
  (* without merging the components stay separate *)
  let p' = Obs.Profile.of_trace ~merge:false (parse_ok (golden ())) in
  checki "unmerged roots" 3 (List.length p'.Obs.Profile.roots);
  checki "component-0 count" 1 (find_node "component-0" p').Obs.Profile.count

let test_profile_folded () =
  let p = Obs.Profile.of_trace (parse_ok (golden ())) in
  let folded = Obs.Profile.folded p in
  (* exact self times in microseconds at each stack position *)
  checki "reduce stack" 250_000 (List.assoc "implicit-reduce" folded);
  checki "descent self" 250_000 (List.assoc "component;descent" folded);
  checki "subgradient leaf (pooled)" 1_500_000
    (List.assoc "component;subgradient" folded
    + List.assoc "component;descent;subgradient" folded);
  (* zero-self stacks are dropped *)
  checkb "no component row" true (not (List.mem_assoc "component" folded))

let test_profile_flat_no_double_count () =
  let p = Obs.Profile.of_trace (parse_ok (golden ())) in
  let flat = Obs.Profile.flat p in
  let total_self = List.fold_left (fun a (_, s, _) -> a +. s) 0. flat in
  checkb "self sums within elapsed" true
    (total_self <= p.Obs.Profile.elapsed +. 1e-9);
  (* subgradient appears once though it sits at two tree positions *)
  checki "one subgradient row" 1
    (List.length (List.filter (fun (n, _, _) -> n = "subgradient") flat));
  (match List.find_opt (fun (n, _, _) -> n = "subgradient") flat with
  | Some (_, self, count) ->
    checkf "pooled self" 1.5 self;
    checki "pooled count" 2 count
  | None -> Alcotest.fail "subgradient missing from flat view")

(* ------------------------------------------------------------------ *)
(* Conv                                                               *)
(* ------------------------------------------------------------------ *)

let test_conv_bounds () =
  let c = Obs.Conv.of_trace (parse_ok (golden ())) in
  checki "series" 2 (List.length c.Obs.Conv.series);
  (* UB: cheapest incumbent *)
  checki "final UB" 2 (Option.get c.Obs.Conv.final_ub);
  (* LB: component 0's first run peaks at 4.0 (the 9.0 of the reduced
     second run must not leak in), component 1 contributes 2.0 *)
  checkf "final LB" 6.0 (Option.get c.Obs.Conv.final_lb);
  let s0 = List.hd c.Obs.Conv.series in
  checki "pooled steps" 3 (List.length s0.Obs.Conv.steps);
  checkf "final best is the last run's" 9.0 s0.Obs.Conv.final_best

let test_conv_csv () =
  let c = Obs.Conv.of_trace (parse_ok (golden ())) in
  let csv = Fmt.str "%a" Obs.Conv.pp_csv c in
  let lines = String.split_on_char '\n' (String.trim csv) in
  checki "header + 4 steps" 5 (List.length lines);
  check Alcotest.string "header" "phase,component,step,t,value,best" (List.hd lines)

(* ------------------------------------------------------------------ *)
(* Diff                                                               *)
(* ------------------------------------------------------------------ *)

(* the golden trace with every duration multiplied by [f] *)
let golden_scaled f =
  let t, tick, lines = make_collector () in
  Telemetry.span t "implicit-reduce" (fun () -> tick (0.25 *. f));
  Telemetry.span t ~index:0 "component" (fun () ->
      Telemetry.span t "descent" (fun () ->
          Telemetry.span t "subgradient" (fun () -> tick (0.5 *. f));
          tick (0.25 *. f)));
  Telemetry.close t;
  lines ()

let test_diff_identity_and_regression () =
  let a = parse_ok (golden_scaled 1.0) in
  let same = Obs.Diff.compare_traces a (parse_ok (golden_scaled 1.0)) in
  checkb "identical traces" false (Obs.Diff.has_regression same);
  let d = Obs.Diff.compare_traces a (parse_ok (golden_scaled 3.0)) in
  checkb "3x slower regresses" true (Obs.Diff.has_regression d);
  checkb "elapsed regressed" true d.Obs.Diff.elapsed_regression;
  (* every phase got slower by 3x, well past threshold and floor *)
  checki "all phases flagged" 3 (List.length d.Obs.Diff.regressions);
  (* B faster than A is never a regression *)
  let faster = Obs.Diff.compare_traces a (parse_ok (golden_scaled 0.5)) in
  checkb "speedup accepted" false (Obs.Diff.has_regression faster)

let test_diff_absolute_floor () =
  let a = parse_ok (golden_scaled 0.0001) in
  let b = parse_ok (golden_scaled 0.0003) in
  (* 3x slower but only fractions of a millisecond: under the floor *)
  checkb "microsecond deltas ignored" false
    (Obs.Diff.has_regression (Obs.Diff.compare_traces a b));
  (* with the floor lowered the same pair trips *)
  checkb "floor 0 flags it" true
    (Obs.Diff.has_regression (Obs.Diff.compare_traces ~min_seconds:0. a b))

let test_diff_counters () =
  let with_counter n =
    let t, tick, lines = make_collector () in
    Telemetry.span t "descent" (fun () -> tick 0.1);
    Telemetry.add t "reduce.cols_essential" n;
    Telemetry.close t;
    parse_ok (lines ())
  in
  let d = Obs.Diff.compare_traces (with_counter 3) (with_counter 5) in
  (match d.Obs.Diff.counter_rows with
  | [ (name, 3, 5) ] -> check Alcotest.string "counter" "reduce.cols_essential" name
  | rows -> Alcotest.failf "unexpected counter rows (%d)" (List.length rows));
  checkb "counter drift alone is no regression" false (Obs.Diff.has_regression d)

(* ------------------------------------------------------------------ *)
(* Gauges: monotonicity invariants on real collector output           *)
(* ------------------------------------------------------------------ *)

let test_gauge_monotonicity () =
  (* a real clock and real work: allocation happens inside the spans *)
  let lines = ref [] in
  let t = Telemetry.create ~trace:(fun l -> lines := l :: !lines) () in
  let sink = ref [] in
  for i = 1 to 3 do
    Telemetry.span t ~index:i "work" (fun () ->
        sink := List.init 10_000 (fun j -> float_of_int (i * j)) :: !sink)
  done;
  Telemetry.close t;
  let tr = parse_ok (List.rev !lines) in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let g = List.assoc "gc.minor_words" s.Obs.Trace.gauges in
      checkb
        (Printf.sprintf "%s allocated" s.Obs.Trace.name)
        true
        (g.Obs.Trace.delta > 0.))
    tr.Obs.Trace.roots;
  (* summary gauges: final never exceeds peak; monotone meters peak at
     their final value *)
  List.iter
    (fun (name, v, peak) ->
      checkb (name ^ " v <= peak") true (v <= peak +. 1e-9))
    (Obs.Trace.summary_gauges tr);
  (* the ZDD probes are registered (Scg is linked in): occupancy can
     never exceed its peak *)
  (match
     ( List.find_opt (fun (n, _, _) -> n = "zdd.nodes") (Obs.Trace.summary_gauges tr),
       List.find_opt (fun (n, _, _) -> n = "zdd.peak_nodes") (Obs.Trace.summary_gauges tr) )
   with
  | Some (_, nodes, _), Some (_, peak, _) ->
    checkb "zdd.nodes <= zdd.peak_nodes" true (nodes <= peak)
  | _ -> Alcotest.fail "zdd gauges missing from the summary");
  (* the manager-lifecycle probes ride along; collections, reclaimed
     and chain hits are monotone meters, so their final value is their
     peak (zdd.gc.live is a true gauge and only bounded by its peak) *)
  List.iter
    (fun (gauge, meter) ->
      match
        List.find_opt (fun (n, _, _) -> n = gauge) (Obs.Trace.summary_gauges tr)
      with
      | Some (_, v, peak) ->
        checkb (gauge ^ " non-negative") true (v >= 0.);
        if meter then checkb (gauge ^ " meter peaks at final") true (v = peak)
      | None -> Alcotest.failf "%s missing from the summary" gauge)
    [
      ("zdd.gc.collections", true);
      ("zdd.gc.reclaimed", true);
      ("zdd.gc.live", false);
      ("zdd.chain_hits", true);
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_reader_roundtrip;
          Alcotest.test_case "truncation" `Quick test_reader_rejects_truncation;
          Alcotest.test_case "corruption" `Quick test_reader_rejects_corruption;
          Alcotest.test_case "base_name" `Quick test_base_name;
        ] );
      ( "profile",
        [
          Alcotest.test_case "merge and self" `Quick test_profile_merge_and_self;
          Alcotest.test_case "folded" `Quick test_profile_folded;
          Alcotest.test_case "flat" `Quick test_profile_flat_no_double_count;
        ] );
      ( "conv",
        [
          Alcotest.test_case "bounds" `Quick test_conv_bounds;
          Alcotest.test_case "csv" `Quick test_conv_csv;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identity and regression" `Quick
            test_diff_identity_and_regression;
          Alcotest.test_case "absolute floor" `Quick test_diff_absolute_floor;
          Alcotest.test_case "counters" `Quick test_diff_counters;
        ] );
      ( "gauges",
        [ Alcotest.test_case "monotonicity" `Quick test_gauge_monotonicity ] );
    ]
