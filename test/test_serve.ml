(* The ucp_serve daemon, exercised in-process over real Unix-domain
   sockets: protocol round-trips in every payload format, the malformed
   wire-input corpus (framing garbage AND parser garbage — the daemon
   must answer PARSE_ERROR or close cleanly, never crash), per-request
   crash isolation with signature-scoped cache invalidation,
   deterministic overload shedding, budget clamping, and drain.

   Each test starts its own daemon on a fresh socket path and stops it;
   a helper asserts the daemon still answers PING before the stop so a
   "passing" test cannot leave a dead server behind. *)

module Proto = Serve.Proto
module Daemon = Serve.Daemon
module Client = Serve.Client
module Load = Serve.Load
module Json = Scg.Telemetry.Json

let socket_path =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucp-test-%d-%d-%s.sock" (Unix.getpid ()) !counter tag)

let with_daemon ?(configure = Fun.id) tag f =
  let socket = socket_path tag in
  let config = configure (Daemon.default_config ~socket) in
  let d = Daemon.start { config with Daemon.socket } in
  if not (Client.wait_ready ~socket ()) then begin
    Daemon.stop d;
    Alcotest.failf "%s: daemon never became ready" tag
  end;
  let finally () = Daemon.stop d in
  Fun.protect ~finally (fun () ->
      let r = f d socket in
      Alcotest.(check bool) (tag ^ ": daemon alive at test end") true
        (Client.ping ~socket);
      r)

let solve ?timeout ?nodes ?steps ?fault_after ?fault_raise ~socket fmt payload =
  Client.request ~socket
    (Proto.solve_request ?timeout ?nodes ?steps ?fault_after ?fault_raise
       ~format:fmt ~length:(String.length payload) ())
    ~payload

let check_code name expected (r : Client.response) =
  Alcotest.(check string) (name ^ ": code")
    (Proto.string_of_code expected)
    (Proto.string_of_code r.Client.code)

let daemon_stat stats path =
  let rec walk j = function
    | [] -> (match j with Json.Int n -> Some n | _ -> None)
    | k :: rest ->
      (match j with
      | Json.Obj fields ->
        Option.bind (List.assoc_opt k fields) (fun j' -> walk j' rest)
      | _ -> None)
  in
  match walk stats (String.split_on_char '.' path) with
  | Some n -> n
  | None -> Alcotest.failf "STATS lacks %s in %s" path (Json.to_string stats)

(* ------------------------------------------------------------------ *)
(* protocol round-trips                                               *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_daemon "roundtrip" (fun _ socket ->
      (* one good payload per format, through the whole stack *)
      List.iter
        (fun (name, fmt, payload, body_field) ->
          let r = solve ~socket fmt payload in
          check_code name Proto.OK r;
          (match Proto.header "cost" r.Client.headers with
          | Some c -> Alcotest.(check bool) (name ^ ": integer cost") true
              (int_of_string_opt c <> None)
          | None -> Alcotest.failf "%s: no cost header" name);
          match Json.of_string r.Client.body with
          | Ok body ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: body has %s" name body_field)
              true
              (Json.member body_field body <> None)
          | Error e -> Alcotest.failf "%s: unparseable body: %s" name e)
        [
          ("ucp", Proto.Ucp, Test_support.good_ucp, "solution");
          ("orlib", Proto.Orlib, Test_support.good_orlib, "solution");
          ("pla", Proto.Pla, Test_support.good_pla, "solution");
          (* FSM minimisation reports state counts, not a column set *)
          ("kiss", Proto.Kiss, Test_support.good_kiss, "minimised_states");
        ];
      (* correlation ids echo back *)
      let r =
        Client.request ~socket
          (Proto.solve_request ~id:"req-42" ~format:Proto.Ucp
             ~length:(String.length Test_support.good_ucp) ())
          ~payload:Test_support.good_ucp
      in
      Alcotest.(check (option string)) "id echoed" (Some "req-42")
        (Proto.header "id" r.Client.headers);
      (* PING and STATS *)
      Alcotest.(check bool) "ping" true (Client.ping ~socket);
      let stats = Client.stats ~socket in
      Alcotest.(check bool) "requests counted" true
        (daemon_stat stats "received" >= 5))

(* The cache keeps parsed problems only, so every answer — first or
   repeat, alone or alongside another request for the same bytes — is
   the one a fresh [Scg.solve] of those bytes gives, as [ucp_solve]
   answers. *)
let test_warm_cache () =
  with_daemon "warm" (fun _ socket ->
      let payload = Load.ucp_payload ~seed:5 ~rows:12 ~cols:24 in
      let first = solve ~socket Proto.Ucp payload in
      check_code "cold" Proto.OK first;
      Alcotest.(check (option string)) "cold misses" (Some "miss")
        (Proto.header "warm" first.Client.headers);
      let again = solve ~socket Proto.Ucp payload in
      check_code "warm" Proto.OK again;
      Alcotest.(check (option string)) "repeat hits" (Some "hit")
        (Proto.header "warm" again.Client.headers);
      (* warm and cold answers agree on cost *)
      Alcotest.(check (option string)) "same cost"
        (Proto.header "cost" first.Client.headers)
        (Proto.header "cost" again.Client.headers);
      let t1 =
        Covering.Instance.to_string
          (Benchsuite.Registry.matrix (Benchsuite.Registry.find "t1"))
      in
      let expect = Scg.solve (Covering.Instance.parse t1) in
      let answers_as_cli name (r : Client.response) =
        check_code name Proto.OK r;
        let body =
          match Json.of_string r.Client.body with
          | Ok body -> body
          | Error e -> Alcotest.failf "%s: unparseable body: %s" name e
        in
        let int_field k = Option.bind (Json.member k body) Json.to_int in
        Alcotest.(check (option int)) (name ^ ": cost") (Some expect.Scg.cost)
          (int_field "cost");
        Alcotest.(check (option int)) (name ^ ": lower bound")
          (Some expect.Scg.lower_bound) (int_field "lower_bound");
        Alcotest.(check (option (list int))) (name ^ ": solution")
          (Some expect.Scg.solution)
          (match Json.member "solution" body with
          | Some (Json.List cols) -> Some (List.filter_map Json.to_int cols)
          | _ -> None)
      in
      for i = 1 to 3 do
        answers_as_cli (Printf.sprintf "t1 #%d" i) (solve ~socket Proto.Ucp t1)
      done;
      (* two at once: one per worker, solving the same cached problem *)
      let out = Array.make 2 None in
      let clients =
        Array.init 2 (fun k ->
            Thread.create (fun () -> out.(k) <- Some (solve ~socket Proto.Ucp t1)) ())
      in
      Array.iter Thread.join clients;
      Array.iteri
        (fun k r ->
          match r with
          | Some r -> answers_as_cli (Printf.sprintf "t1 concurrent #%d" k) r
          | None -> Alcotest.failf "t1 concurrent #%d: no response" k)
        out;
      let stats = Client.stats ~socket in
      Alcotest.(check bool) "cache hit counted" true
        (daemon_stat stats "cache.hits" >= 1))

(* ------------------------------------------------------------------ *)
(* malformed and adversarial wire input                               *)
(* ------------------------------------------------------------------ *)

let test_malformed_framing () =
  with_daemon "framing" (fun _ socket ->
      List.iter
        (fun (bytes, note) ->
          match Client.send_raw ~socket bytes with
          | None -> () (* clean close: acceptable *)
          | Some (Proto.PARSE_ERROR, _, _) -> ()
          | Some (code, _, _) ->
            Alcotest.failf "%s: answered %s" note (Proto.string_of_code code))
        Load.raw_frames;
      (* the daemon survives the whole corpus and still solves *)
      check_code "after garbage" Proto.OK
        (solve ~socket Proto.Ucp Test_support.good_ucp))

let test_malformed_payloads () =
  (* the parser corpora arrive over the socket instead of via files:
     same typed errors, now as PARSE_ERROR frames with the daemon intact *)
  with_daemon "payloads" (fun _ socket ->
      List.iter
        (fun (fmt_name, fmt, corpus) ->
          List.iter
            (fun (name, payload, _line, _contains) ->
              let r = solve ~socket fmt payload in
              check_code (fmt_name ^ " " ^ name) Proto.PARSE_ERROR r)
            corpus)
        [
          ("ucp", Proto.Ucp, Test_support.ucp_corpus);
          ("pla", Proto.Pla, Test_support.pla_corpus);
          ("kiss", Proto.Kiss, Test_support.kiss_corpus);
          ("orlib", Proto.Orlib, Test_support.orlib_corpus);
        ])

let test_infeasible_over_the_wire () =
  with_daemon "infeasible" (fun _ socket ->
      (* an orlib row declaring zero covering columns: typed Infeasible,
         its own wire code (exit 7 on the CLI), not a parse error *)
      let r = solve ~socket Proto.Orlib "1 2\n1 1\n0" in
      check_code "uncoverable row" Proto.INFEASIBLE r)

let test_mid_payload_disconnect () =
  with_daemon "disconnect" (fun _ socket ->
      (* promise 4096 bytes, send 10, vanish: the worker's read times
         out or sees EOF; either way no crash and the next request works *)
      (match Client.send_raw ~socket "UCP/1 SOLVE ucp 4096\n\np ucp 3 4\n" with
      | None -> ()
      | Some (Proto.PARSE_ERROR, _, _) -> ()
      | Some (code, _, _) ->
        Alcotest.failf "disconnect answered %s" (Proto.string_of_code code));
      check_code "next request fine" Proto.OK
        (solve ~socket Proto.Ucp Test_support.good_ucp))

(* ------------------------------------------------------------------ *)
(* budgets on the wire                                                *)
(* ------------------------------------------------------------------ *)

let test_budget_clamp () =
  (* server ceiling beats the client's ask: a request claiming a huge
     step budget against a 1-step ceiling still winds down anytime *)
  with_daemon "clamp"
    ~configure:(fun c -> { c with Daemon.max_steps = Some 1 })
    (fun _ socket ->
      let payload = Load.ucp_payload ~seed:9 ~rows:30 ~cols:60 in
      let r = solve ~steps:1_000_000 ~socket Proto.Ucp payload in
      check_code "clamped" Proto.FEASIBLE_BUDGET r;
      match Json.of_string r.Client.body with
      | Ok body ->
        Alcotest.(check bool) "still a solution" true
          (Json.member "solution" body <> None)
      | Error e -> Alcotest.failf "unparseable body: %s" e)

let test_fault_cooperative () =
  with_daemon "fault-coop"
    ~configure:(fun c -> { c with Daemon.allow_fault_injection = true })
    (fun _ socket ->
      let payload = Load.ucp_payload ~seed:11 ~rows:20 ~cols:40 in
      let r = solve ~fault_after:1 ~socket Proto.Ucp payload in
      check_code "cooperative trip" Proto.FEASIBLE_BUDGET r)

let test_fault_headers_gated () =
  (* without allow_fault_injection the fault headers are ignored: the
     same request just solves *)
  with_daemon "fault-gated" (fun _ socket ->
      let payload = Load.ucp_payload ~seed:11 ~rows:20 ~cols:40 in
      let r = solve ~fault_after:1 ~fault_raise:true ~socket Proto.Ucp payload in
      check_code "headers ignored" Proto.OK r)

(* ------------------------------------------------------------------ *)
(* crash isolation                                                    *)
(* ------------------------------------------------------------------ *)

let test_crash_isolation () =
  with_daemon "crash"
    ~configure:(fun c -> { c with Daemon.allow_fault_injection = true })
    (fun _ socket ->
      let crash_target = Load.ucp_payload ~seed:13 ~rows:20 ~cols:40 in
      let bystander = Load.ucp_payload ~seed:14 ~rows:12 ~cols:24 in
      (* warm both signatures *)
      check_code "warm target" Proto.OK (solve ~socket Proto.Ucp crash_target);
      check_code "warm bystander" Proto.OK (solve ~socket Proto.Ucp bystander);
      (* crash inside the target's request *)
      let r = solve ~fault_after:1 ~fault_raise:true ~socket Proto.Ucp crash_target in
      check_code "crash surfaces" Proto.INTERNAL_ERROR r;
      (* the daemon survives, the crashed signature was invalidated
         (cold again), the bystander's warmth was not *)
      let after = solve ~socket Proto.Ucp crash_target in
      check_code "target recovers" Proto.OK after;
      Alcotest.(check (option string)) "target went cold" (Some "miss")
        (Proto.header "warm" after.Client.headers);
      let by = solve ~socket Proto.Ucp bystander in
      check_code "bystander fine" Proto.OK by;
      Alcotest.(check (option string)) "bystander stayed warm" (Some "hit")
        (Proto.header "warm" by.Client.headers);
      let stats = Client.stats ~socket in
      Alcotest.(check int) "one crash counted" 1 (daemon_stat stats "crashes");
      Alcotest.(check int) "one invalidation" 1
        (daemon_stat stats "cache.invalidations"))

(* ------------------------------------------------------------------ *)
(* overload shedding                                                  *)
(* ------------------------------------------------------------------ *)

let test_overload_shed () =
  (* deterministic occupancy: 1 worker blocked reading an idle
     connection, queue_depth more idle connections filling the queue —
     the next arrival must be shed with OVERLOAD and a retry-after
     hint, without the daemon reading a single request byte *)
  let depth = 2 in
  with_daemon "overload"
    ~configure:(fun c ->
      { c with Daemon.workers = 1; queue_depth = depth; read_timeout = 3.0 })
    (fun d socket ->
      let connect_idle () =
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX socket);
        fd
      in
      (* pin the worker first: the idle worker pops this connection and
         blocks in read until its receive timeout; only THEN fill the
         queue, so none of the squatters is shed by accident *)
      let pin = connect_idle () in
      Unix.sleepf 0.4;
      let squatters = List.init depth (fun _ -> connect_idle ()) in
      let idle = pin :: squatters in
      (* let the acceptor drain the backlog into the (now full) queue *)
      Unix.sleepf 0.4;
      let r =
        Client.request ~socket
          (Proto.solve_request ~format:Proto.Ucp
             ~length:(String.length Test_support.good_ucp) ())
          ~payload:Test_support.good_ucp
      in
      check_code "shed" Proto.OVERLOAD r;
      (match Proto.header "retry-after" r.Client.headers with
      | Some h -> Alcotest.(check bool) "retry-after parses" true
          (float_of_string_opt h <> None)
      | None -> Alcotest.fail "OVERLOAD without retry-after");
      (* a malformed frame meets the same full queue: the load generator
         must retry its OVERLOAD like a framed request's, and judge only
         the answer the frame gets once the queue has room *)
      let bytes, note =
        List.find (fun (_, note) -> note = "unknown verb") Load.raw_frames
      in
      let raw_report = ref None in
      let raw_lane =
        Thread.create
          (fun () ->
            raw_report :=
              Some (Load.run ~socket ~retries:8 [ Load.Raw { bytes; note } ]))
          ()
      in
      (* release the squatters only once that first attempt was shed *)
      let rec wait_shed n =
        if daemon_stat (Daemon.stats_json d) "shed" < 2 && n > 0 then begin
          Unix.sleepf 0.02;
          wait_shed (n - 1)
        end
      in
      wait_shed 500;
      List.iter Unix.close idle;
      Thread.join raw_lane;
      (match !raw_report with
      | Some rep ->
        Alcotest.(check (list string)) "raw frame: unexpected" [] rep.Load.unexpected;
        Alcotest.(check bool) "raw frame: retried" true (rep.Load.retries >= 1)
      | None -> Alcotest.fail "raw lane produced no report");
      (* with the squatters gone (and their read timeouts burnt), a
         retried request gets through *)
      let r =
        Client.request ~retries:8 ~backoff:0.25 ~socket
          (Proto.solve_request ~format:Proto.Ucp
             ~length:(String.length Test_support.good_ucp) ())
          ~payload:Test_support.good_ucp
      in
      check_code "after release" Proto.OK r;
      let stats = Client.stats ~socket in
      Alcotest.(check bool) "shed counted" true (daemon_stat stats "shed" >= 1))

(* ------------------------------------------------------------------ *)
(* drain                                                              *)
(* ------------------------------------------------------------------ *)

let test_drain () =
  let socket = socket_path "drain" in
  let d = Daemon.start (Daemon.default_config ~socket) in
  if not (Client.wait_ready ~socket ()) then Alcotest.fail "daemon not ready";
  check_code "pre-drain solve" Proto.OK (solve ~socket Proto.Ucp Test_support.good_ucp);
  Daemon.stop d;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
  (match Unix.connect (Unix.socket PF_UNIX SOCK_STREAM 0) (ADDR_UNIX socket) with
  | () -> Alcotest.fail "connect succeeded after drain"
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) -> ());
  (* stop is idempotent *)
  Daemon.stop d

(* ------------------------------------------------------------------ *)
(* observability: registry, HEALTH, access log, conservation          *)
(* ------------------------------------------------------------------ *)

(* metric names contain dots ("requests.accepted"), so walk the registry
   snapshot with whole keys rather than daemon_stat's dot-splitting *)
let metric_counter stats name =
  match
    Option.bind (Json.member "metrics" stats) (fun m ->
        Option.bind (Json.member "counters" m) (Json.member name))
  with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "STATS lacks metrics.counters.%s" name

let bool_member name doc k =
  match Json.member k doc with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "%s lacks boolean %s" name k

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_stats_metrics () =
  with_daemon "metrics" (fun _ socket ->
      let r = solve ~socket Proto.Ucp Test_support.good_ucp in
      check_code "solve" Proto.OK r;
      (match Proto.header "trace-id" r.Client.headers with
      | Some id ->
        Alcotest.(check bool) "trace id is boot-seq" true
          (String.contains id '-')
      | None -> Alcotest.fail "response without trace-id header");
      let stats = Client.stats ~socket in
      Alcotest.(check bool) "accepted counted" true
        (metric_counter stats "requests.accepted" >= 1);
      Alcotest.(check bool) "OK responses counted" true
        (metric_counter stats "responses.OK" >= 1);
      (* the legacy flat fields mirror the registry *)
      Alcotest.(check int) "received mirrors accepted"
        (metric_counter stats "requests.accepted")
        (daemon_stat stats "received");
      (* the solve latency histogram saw the request, and its JSON form
         round-trips through the client-side snapshot decoder *)
      match
        Option.bind (Json.member "metrics" stats) (fun m ->
            Option.bind (Json.member "histograms" m)
              (Json.member "solve.seconds.ok"))
      with
      | None -> Alcotest.fail "STATS lacks histograms solve.seconds.ok"
      | Some h ->
        (match Metrics.Histogram.of_json h with
        | None -> Alcotest.fail "solve.seconds.ok not decodable"
        | Some s ->
          Alcotest.(check bool) "histogram non-empty" true
            (s.Metrics.Histogram.count >= 1)))

let test_health_roundtrip () =
  with_daemon "health" (fun _ socket ->
      let h = Client.health ~socket in
      (match Json.member "status" h with
      | Some (Json.String "ok") -> ()
      | other ->
        Alcotest.failf "status not ok: %s"
          (match other with Some j -> Json.to_string j | None -> "missing"));
      Alcotest.(check bool) "ready" true (bool_member "HEALTH" h "ready");
      Alcotest.(check bool) "not saturated" false
        (bool_member "HEALTH" h "saturated"))

let test_health_under_overload () =
  (* same deterministic occupancy as test_overload_shed: worker pinned,
     queue full.  A SOLVE arrival is shed — but HEALTH must still be
     answered, from the acceptor itself, with saturated:true *)
  let depth = 2 in
  with_daemon "health-overload"
    ~configure:(fun c ->
      { c with Daemon.workers = 1; queue_depth = depth; read_timeout = 3.0 })
    (fun _ socket ->
      let connect_idle () =
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX socket);
        fd
      in
      let pin = connect_idle () in
      Unix.sleepf 0.4;
      let squatters = List.init depth (fun _ -> connect_idle ()) in
      let idle = pin :: squatters in
      Unix.sleepf 0.4;
      let r =
        Client.request ~socket
          (Proto.solve_request ~format:Proto.Ucp
             ~length:(String.length Test_support.good_ucp) ())
          ~payload:Test_support.good_ucp
      in
      check_code "solve shed" Proto.OVERLOAD r;
      let h = Client.health ~socket in
      Alcotest.(check bool) "saturated" true
        (bool_member "HEALTH" h "saturated");
      Alcotest.(check bool) "still ready" true (bool_member "HEALTH" h "ready");
      List.iter Unix.close idle;
      (* queue drains as the workers burn the idle EOFs *)
      Alcotest.(check bool) "daemon recovers" true
        (Client.wait_ready ~socket ());
      let stats = Client.stats ~socket in
      Alcotest.(check bool) "fast path counted" true
        (metric_counter stats "requests.health_fastpath" >= 1))

let test_access_log_crash () =
  (* every finished request leaves one JSON line behind — including a
     request that crashed its worker mid-solve, which must also reach
     the requests.crashed counter (crash isolation may not swallow the
     books) *)
  let log_file = Filename.temp_file "ucp-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_file with Sys_error _ -> ())
    (fun () ->
      with_daemon "access"
        ~configure:(fun c ->
          {
            c with
            Daemon.allow_fault_injection = true;
            access_log = Some log_file;
          })
        (fun _ socket ->
          check_code "solve" Proto.OK
            (solve ~socket Proto.Ucp Test_support.good_ucp);
          let r =
            solve ~fault_after:1 ~fault_raise:true ~socket Proto.Ucp
              (Load.ucp_payload ~seed:21 ~rows:20 ~cols:40)
          in
          check_code "crash surfaces" Proto.INTERNAL_ERROR r;
          let stats = Client.stats ~socket in
          Alcotest.(check int) "crash in registry" 1
            (metric_counter stats "requests.crashed");
          Alcotest.(check int) "legacy crashes mirrors" 1
            (daemon_stat stats "crashes");
          let parsed =
            List.map
              (fun line ->
                match Json.of_string line with
                | Ok j -> j
                | Error e ->
                  Alcotest.failf "access line not JSON (%s): %s" e line)
              (read_lines log_file)
          in
          Alcotest.(check bool) "access lines present" true
            (List.length parsed >= 3);
          let code_of j =
            match Json.member "code" j with
            | Some (Json.String s) -> s
            | _ -> Alcotest.failf "access line without code: %s"
                     (Json.to_string j)
          in
          Alcotest.(check bool) "crash line logged" true
            (List.exists (fun j -> code_of j = "INTERNAL_ERROR") parsed);
          (* each line carries the trace id joining it to the telemetry
             stream *)
          List.iter
            (fun j ->
              match Json.member "trace" j with
              | Some (Json.String _) -> ()
              | _ ->
                Alcotest.failf "access line without trace: %s"
                  (Json.to_string j))
            parsed))

let test_conservation () =
  (* after a quiesced mixed run, the final STATS body must balance its
     own books — the same invariant ucp_load --check-invariants enforces
     against a live daemon *)
  with_daemon "conservation" (fun _ socket ->
      check_code "ucp" Proto.OK (solve ~socket Proto.Ucp Test_support.good_ucp);
      check_code "infeasible" Proto.INFEASIBLE
        (solve ~socket Proto.Orlib "1 2\n1 1\n0");
      (* a parse error and a warm repeat also have to balance *)
      ignore (solve ~socket Proto.Ucp "not a matrix at all");
      check_code "warm repeat" Proto.OK
        (solve ~socket Proto.Ucp Test_support.good_ucp);
      let stats = Client.stats ~socket in
      Alcotest.(check (list string)) "books balance" []
        (Load.conservation_errors stats))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "round-trips" `Quick test_roundtrip;
          Alcotest.test_case "warm cache" `Quick test_warm_cache;
          Alcotest.test_case "infeasible" `Quick test_infeasible_over_the_wire;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "malformed framing" `Quick test_malformed_framing;
          Alcotest.test_case "malformed payloads" `Quick test_malformed_payloads;
          Alcotest.test_case "mid-payload disconnect" `Quick
            test_mid_payload_disconnect;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "server clamp" `Quick test_budget_clamp;
          Alcotest.test_case "cooperative fault" `Quick test_fault_cooperative;
          Alcotest.test_case "fault headers gated" `Quick test_fault_headers_gated;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "overload shed" `Quick test_overload_shed;
          Alcotest.test_case "drain" `Quick test_drain;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats metrics" `Quick test_stats_metrics;
          Alcotest.test_case "health round-trip" `Quick test_health_roundtrip;
          Alcotest.test_case "health under overload" `Quick
            test_health_under_overload;
          Alcotest.test_case "access log and crash books" `Quick
            test_access_log_crash;
          Alcotest.test_case "conservation" `Quick test_conservation;
        ] );
    ]
