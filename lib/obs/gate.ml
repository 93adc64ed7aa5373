module Json = Telemetry.Json

type verdict = { pass : bool; lines : string list }

let default_tolerance = 0.40
let default_min_seconds = 0.05

let member_f name j = Option.bind (Json.member name j) Json.to_float
let member_i name j = Option.bind (Json.member name j) Json.to_int
let member_s name j = Option.bind (Json.member name j) Json.to_str

let member_b name j =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let instances j =
  match Json.member "instances" j with
  | Some (Json.List l) -> l
  | _ -> []

let find_instance name j =
  List.find_opt (fun i -> member_s "name" i = Some name) (instances j)

(* ------------------------------------------------------------------ *)
(* Dense-mode baselines (BENCH_dense.json shape)                      *)
(*                                                                    *)
(* The gated quantity is the dense-vs-sparse speedup ratio of the      *)
(* dominance+greedy hot loops ([total]), not absolute seconds: both    *)
(* sides of the ratio are measured in the same process on the same     *)
(* machine, so the gate is portable across hosts and tolerant of       *)
(* absolute CI slowness.                                               *)
(* ------------------------------------------------------------------ *)

let check_dense ~tolerance ~baseline ~fresh =
  let fails = ref [] and lines = ref [] in
  let note fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt = Format.kasprintf (fun s -> fails := s :: !fails; lines := s :: !lines) fmt in
  (if member_b "identical_results" fresh <> Some true then
     fail "FAIL identical_results: dense and sparse paths disagree");
  List.iter
    (fun base_inst ->
      match member_s "name" base_inst with
      | None -> fail "FAIL baseline instance without a name"
      | Some name -> (
        let tol =
          Option.value ~default:tolerance (member_f "tolerance" base_inst)
        in
        let speedup_of inst =
          Option.bind (Json.member "total" inst) (member_f "speedup")
        in
        match find_instance name fresh with
        | None -> fail "FAIL %s: missing from the fresh run" name
        | Some fresh_inst -> (
          (if member_b "identical" fresh_inst = Some false then
             fail "FAIL %s: dense and sparse paths disagree on this instance" name);
          match (speedup_of base_inst, speedup_of fresh_inst) with
          | Some base_sp, Some fresh_sp ->
            let floor = base_sp *. (1. -. tol) in
            if fresh_sp < floor then
              fail "FAIL %s: total speedup %.2fx below %.2fx (baseline %.2fx - %.0f%%)"
                name fresh_sp floor base_sp (100. *. tol)
            else
              note "ok   %s: total speedup %.2fx (baseline %.2fx, floor %.2fx)"
                name fresh_sp base_sp floor
          | None, _ -> fail "FAIL %s: baseline lacks total.speedup" name
          | _, None -> fail "FAIL %s: fresh run lacks total.speedup" name)))
    (instances baseline);
  (match
     (member_f "aggregate_total_speedup" baseline,
      member_f "aggregate_total_speedup" fresh)
   with
  | Some base_sp, Some fresh_sp ->
    let floor = base_sp *. (1. -. tolerance) in
    if fresh_sp < floor then
      fail "FAIL aggregate: speedup %.2fx below %.2fx (baseline %.2fx)" fresh_sp
        floor base_sp
    else
      note "ok   aggregate: speedup %.2fx (baseline %.2fx, floor %.2fx)" fresh_sp
        base_sp floor
  | _ -> fail "FAIL aggregate_total_speedup missing on one side");
  { pass = !fails = []; lines = List.rev !lines }

(* ------------------------------------------------------------------ *)
(* Table baselines (BENCH_<table>.json shape)                         *)
(*                                                                    *)
(* Quality fields (cost, lower bound, proven optimality) are exactly   *)
(* reproducible, so any drift is a hard failure; wall seconds get the  *)
(* relative tolerance plus an absolute slack for CI jitter.            *)
(* ------------------------------------------------------------------ *)

let check_table ~tolerance ~min_seconds ~baseline ~fresh =
  let fails = ref [] and lines = ref [] in
  let note fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt = Format.kasprintf (fun s -> fails := s :: !fails; lines := s :: !lines) fmt in
  List.iter
    (fun base_inst ->
      match member_s "name" base_inst with
      | None -> fail "FAIL baseline instance without a name"
      | Some name -> (
        match find_instance name fresh with
        | None -> fail "FAIL %s: missing from the fresh run" name
        | Some fresh_inst ->
          let quality_ok = ref true in
          List.iter
            (fun field ->
              let b = member_i field base_inst and f = member_i field fresh_inst in
              if b <> f then begin
                quality_ok := false;
                fail "FAIL %s: %s changed %a -> %a" name field
                  Fmt.(option ~none:(any "?") int)
                  b
                  Fmt.(option ~none:(any "?") int)
                  f
              end)
            [ "cost"; "lower_bound" ];
          (let b = member_b "proven_optimal" base_inst
           and f = member_b "proven_optimal" fresh_inst in
           if b <> f then begin
             quality_ok := false;
             fail "FAIL %s: proven_optimal changed" name
           end);
          let tol =
            Option.value ~default:tolerance (member_f "tolerance" base_inst)
          in
          (match (member_f "seconds" base_inst, member_f "seconds" fresh_inst) with
          | Some bs, Some fs ->
            let ceiling = (bs *. (1. +. tol)) +. min_seconds in
            if fs > ceiling then
              fail "FAIL %s: %.3fs above %.3fs (baseline %.3fs + %.0f%% + %.3fs)"
                name fs ceiling bs (100. *. tol) min_seconds
            else if !quality_ok then
              note "ok   %s: %.3fs (baseline %.3fs, ceiling %.3fs)" name fs bs
                ceiling
          | _ -> fail "FAIL %s: seconds missing on one side" name)))
    (instances baseline);
  { pass = !fails = []; lines = List.rev !lines }

(* ------------------------------------------------------------------ *)
(* Serve-mode baselines (BENCH_serve.json shape)                      *)
(*                                                                    *)
(* Every gated fact is a machine-independent boolean or count — the    *)
(* daemon survived the torture, every response code matched, shedding  *)
(* and the warm cache actually engaged.  Throughput and latency are    *)
(* reported for trend reading but never gated: absolute wall numbers   *)
(* do not transfer between hosts.                                     *)
(* ------------------------------------------------------------------ *)

let check_serve ~baseline ~fresh =
  ignore baseline;
  let fails = ref [] and lines = ref [] in
  let note fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt = Format.kasprintf (fun s -> fails := s :: !fails; lines := s :: !lines) fmt in
  List.iter
    (fun name ->
      match member_b name fresh with
      | Some true -> note "ok   %s" name
      | Some false -> fail "FAIL %s is false" name
      | None -> fail "FAIL %s missing from the fresh run" name)
    [ "daemon_alive_after"; "clean_drain"; "correct_codes"; "crashes_isolated" ];
  List.iter
    (fun (obj, field) ->
      match Option.bind (Json.member obj fresh) (member_i field) with
      | Some n when n > 0 -> note "ok   %s.%s = %d" obj field n
      | Some n -> fail "FAIL %s.%s = %d (expected > 0)" obj field n
      | None -> fail "FAIL %s.%s missing from the fresh run" obj field)
    [ ("overload", "shed"); ("warm", "hits") ];
  (match
     ( Option.bind (Json.member "throughput" fresh) (member_f "rps"),
       Option.bind (Json.member "throughput" fresh) (member_f "p50_ms"),
       Option.bind (Json.member "throughput" fresh) (member_f "p99_ms") )
   with
  | Some rps, Some p50, Some p99 ->
    note "info throughput %.1f rps, p50 %.2fms, p99 %.2fms (not gated)" rps p50
      p99
  | _ -> ());
  (* newer informational fields — latency tails and cache hit ratios are
     machine-dependent, so echoed but never gated *)
  (match
     ( Option.bind (Json.member "throughput" fresh) (member_f "p90_ms"),
       Option.bind (Json.member "throughput" fresh) (member_f "p999_ms") )
   with
  | Some p90, Some p999 ->
    note "info throughput p90 %.2fms, p999 %.2fms (not gated)" p90 p999
  | _ -> ());
  (match Option.bind (Json.member "warm" fresh) (member_f "hit_ratio") with
  | Some r -> note "info warm cache hit ratio %.3f (not gated)" r
  | None -> ());
  (match
     ( Option.bind (Json.member "server" fresh) (member_f "cache_hit_ratio"),
       Option.bind (Json.member "server" fresh) (member_f "window_s") )
   with
  | Some r, Some w ->
    note "info server view: %.1fs window, cache hit ratio %.3f (not gated)" w r
  | _ -> ());
  { pass = !fails = []; lines = List.rev !lines }

(* ------------------------------------------------------------------ *)
(* ZDD-mode baselines (BENCH_zdd.json shape)                          *)
(*                                                                    *)
(* Everything gated is machine-independent: fingerprint identity       *)
(* across the gc/chain variants, each instance's gc-on peak occupancy  *)
(* (a deterministic allocation count in a fresh manager) against the   *)
(* baseline's plus tolerance, the node ceiling (an instance that fit   *)
(* under it with collection on must still fit), and the chain fast     *)
(* paths actually firing.  Wall seconds and build node counts are      *)
(* echoed in the JSON but never gated.                                 *)
(* ------------------------------------------------------------------ *)

let check_zdd ~tolerance ~baseline ~fresh =
  let fails = ref [] and lines = ref [] in
  let note fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt = Format.kasprintf (fun s -> fails := s :: !fails; lines := s :: !lines) fmt in
  (if member_b "identical_results" fresh <> Some true then
     fail "FAIL identical_results: gc/chain variants disagree");
  (match member_i "chain_hits" fresh with
  | Some n when n > 0 -> note "ok   chain_hits = %d" n
  | Some n -> fail "FAIL chain_hits = %d (expected > 0)" n
  | None -> fail "FAIL chain_hits missing from the fresh run");
  let peak_on inst = Option.bind (Json.member "gc_on" inst) (member_i "peak_nodes") in
  List.iter
    (fun base_inst ->
      match member_s "name" base_inst with
      | None -> fail "FAIL baseline instance without a name"
      | Some name -> (
        match find_instance name fresh with
        | None -> fail "FAIL %s: missing from the fresh run" name
        | Some fresh_inst ->
          (if member_b "identical" fresh_inst = Some false then
             fail "FAIL %s: gc/chain variants disagree on this instance" name);
          (if
             member_b "under_ceiling_gc_on" base_inst = Some true
             && member_b "under_ceiling_gc_on" fresh_inst <> Some true
           then
             fail "FAIL %s: no longer fits under the node ceiling with gc on"
               name);
          let tol =
            Option.value ~default:tolerance (member_f "tolerance" base_inst)
          in
          (match (peak_on base_inst, peak_on fresh_inst) with
          | Some base_p, Some fresh_p ->
            let ceiling = float_of_int base_p *. (1. +. tol) in
            if float_of_int fresh_p > ceiling then
              fail "FAIL %s: gc-on peak %d nodes above %.0f (baseline %d + %.0f%%)"
                name fresh_p ceiling base_p (100. *. tol)
            else
              note "ok   %s: gc-on peak %d nodes (baseline %d, ceiling %.0f)" name
                fresh_p base_p ceiling
          | None, _ -> fail "FAIL %s: baseline lacks gc_on.peak_nodes" name
          | _, None -> fail "FAIL %s: fresh run lacks gc_on.peak_nodes" name)))
    (instances baseline);
  { pass = !fails = []; lines = List.rev !lines }

(* ------------------------------------------------------------------ *)
(* Par baselines (BENCH_par.json shape)                               *)
(*                                                                    *)
(* Determinism is the hard gate: sequential and parallel runs must     *)
(* produce identical covers, costs and bounds.  Speedups are gated     *)
(* against a floor resolved per row: a row-level "floor" in the        *)
(* baseline wins, otherwise floor_single / floor_multicore by the      *)
(* fresh run's visible core count — parallelism must never cost more   *)
(* than the scheduling noise the floors allow.                         *)
(* ------------------------------------------------------------------ *)

let check_par ~baseline ~fresh =
  let fails = ref [] and lines = ref [] in
  let note fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt = Format.kasprintf (fun s -> fails := s :: !fails; lines := s :: !lines) fmt in
  (if member_b "identical_results" fresh <> Some true then
     fail "FAIL identical_results: sequential and parallel runs disagree");
  let cores = Option.value ~default:1 (member_i "cores" fresh) in
  let default_floor =
    if cores <= 1 then Option.value ~default:0.95 (member_f "floor_single" baseline)
    else Option.value ~default:1.0 (member_f "floor_multicore" baseline)
  in
  let fresh_components =
    match Json.member "component" fresh with Some (Json.List l) -> l | _ -> []
  in
  let base_components =
    match Json.member "component" baseline with Some (Json.List l) -> l | _ -> []
  in
  List.iter
    (fun base_row ->
      match member_s "name" base_row with
      | None -> fail "FAIL baseline component row without a name"
      | Some name -> (
        let floor = Option.value ~default:default_floor (member_f "floor" base_row) in
        match
          List.find_opt (fun r -> member_s "name" r = Some name) fresh_components
        with
        | None -> fail "FAIL %s: missing from the fresh run" name
        | Some row -> (
          (if member_b "identical" row = Some false then
             fail "FAIL %s: parallel result differs from sequential" name);
          match member_f "speedup" row with
          | Some s when s < floor ->
            fail "FAIL %s: speedup %.2fx below floor %.2fx (%d core%s)" name s
              floor cores (if cores = 1 then "" else "s")
          | Some s -> note "ok   %s: speedup %.2fx (floor %.2fx)" name s floor
          | None -> fail "FAIL %s: fresh run lacks speedup" name)))
    base_components;
  (match Json.member "batch" fresh with
  | Some batch -> (
    (if member_b "identical" batch = Some false then
       fail "FAIL batch: parallel results differ from sequential");
    let floor =
      Option.value ~default:default_floor
        (Option.bind (Json.member "batch" baseline) (member_f "floor"))
    in
    match member_f "speedup" batch with
    | Some s when s < floor ->
      fail "FAIL batch: speedup %.2fx below floor %.2fx" s floor
    | Some s -> note "ok   batch: speedup %.2fx (floor %.2fx)" s floor
    | None -> fail "FAIL batch: fresh run lacks speedup")
  | None -> fail "FAIL batch missing from the fresh run");
  { pass = !fails = []; lines = List.rev !lines }

(* ------------------------------------------------------------------ *)
(* Scale baselines (BENCH_scale.json shape)                           *)
(*                                                                    *)
(* Everything gated is machine-independent.  Streaming round-trip      *)
(* identity and the planted-optimum certificates are hard booleans;    *)
(* solver costs are exactly reproducible because the scale bench runs  *)
(* under a deterministic step budget, never a wall-clock one; the      *)
(* counting-fold memory ratio (parser heap growth / file bytes) gets   *)
(* the relative tolerance plus an absolute slack of 0.25 for allocator *)
(* granularity on the CI-sized files.  Parse/solve seconds are echoed  *)
(* in the JSON but never gated.                                       *)
(* ------------------------------------------------------------------ *)

let fold_mem_slack = 0.25

let check_scale ~tolerance ~baseline ~fresh =
  let fails = ref [] and lines = ref [] in
  let note fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt = Format.kasprintf (fun s -> fails := s :: !fails; lines := s :: !lines) fmt in
  List.iter
    (fun name ->
      match member_b name fresh with
      | Some true -> note "ok   %s" name
      | Some false -> fail "FAIL %s is false" name
      | None -> fail "FAIL %s missing from the fresh run" name)
    [ "stream_equiv_all"; "planted_all" ];
  List.iter
    (fun name ->
      match Option.bind (Json.member "routing" fresh) (member_b name) with
      | Some true -> note "ok   routing.%s" name
      | Some false -> fail "FAIL routing.%s is false" name
      | None -> fail "FAIL routing.%s missing from the fresh run" name)
    [ "espresso_ok"; "fsm_ok" ];
  List.iter
    (fun base_inst ->
      match member_s "name" base_inst with
      | None -> fail "FAIL baseline instance without a name"
      | Some name -> (
        match find_instance name fresh with
        | None -> fail "FAIL %s: missing from the fresh run" name
        | Some fresh_inst ->
          (if member_b "stream_equiv" fresh_inst <> Some true then
             fail "FAIL %s: streaming round-trip lost the instance" name);
          (if
             member_b "planted_ok" base_inst = Some true
             && member_b "planted_ok" fresh_inst <> Some true
           then
             fail "FAIL %s: solved cost no longer matches the planted optimum"
               name);
          List.iter
            (fun field ->
              let b = member_i field base_inst and f = member_i field fresh_inst in
              if b <> f then
                fail "FAIL %s: %s changed %a -> %a" name field
                  Fmt.(option ~none:(any "?") int)
                  b
                  Fmt.(option ~none:(any "?") int)
                  f)
            [ "cost"; "lower_bound"; "rows"; "cols"; "nnz" ];
          (let b = member_b "proven_optimal" base_inst
           and f = member_b "proven_optimal" fresh_inst in
           if b <> f then fail "FAIL %s: proven_optimal changed" name);
          let tol =
            Option.value ~default:tolerance (member_f "tolerance" base_inst)
          in
          (match
             ( member_f "fold_mem_ratio" base_inst,
               member_f "fold_mem_ratio" fresh_inst )
           with
          | Some base_r, Some fresh_r ->
            let ceiling = (base_r *. (1. +. tol)) +. fold_mem_slack in
            if fresh_r > ceiling then
              fail
                "FAIL %s: fold memory ratio %.4f above %.4f (baseline %.4f + \
                 %.0f%% + %.2f)"
                name fresh_r ceiling base_r (100. *. tol) fold_mem_slack
            else
              note "ok   %s: fold memory ratio %.4f (baseline %.4f, ceiling %.4f)"
                name fresh_r base_r ceiling
          | None, _ -> fail "FAIL %s: baseline lacks fold_mem_ratio" name
          | _, None -> fail "FAIL %s: fresh run lacks fold_mem_ratio" name)))
    (instances baseline);
  { pass = !fails = []; lines = List.rev !lines }

let check ?(tolerance = default_tolerance) ?(min_seconds = default_min_seconds)
    ~baseline ~fresh () =
  match (member_s "mode" baseline, member_s "table" baseline) with
  | Some "serve", _ -> check_serve ~baseline ~fresh
  | Some "dense", _ -> check_dense ~tolerance ~baseline ~fresh
  | Some "zdd", _ -> check_zdd ~tolerance ~baseline ~fresh
  | Some "scale", _ -> check_scale ~tolerance ~baseline ~fresh
  | _, Some "par" -> check_par ~baseline ~fresh
  | _, Some _ -> check_table ~tolerance ~min_seconds ~baseline ~fresh
  | Some mode, None ->
    { pass = false; lines = [ Printf.sprintf "FAIL unknown benchmark mode %S" mode ] }
  | None, None ->
    {
      pass = false;
      lines = [ "FAIL baseline has neither a \"mode\" nor a \"table\" field" ];
    }

let pp ppf v =
  List.iter (fun l -> Fmt.pf ppf "%s@." l) v.lines;
  Fmt.pf ppf "bench-check: %s@." (if v.pass then "PASS" else "FAIL")
