(* ucp_load — load generator and torture harness for ucp_serve.

   Drives a deterministic request mix (lib/serve/load.mli) against a
   daemon over its Unix-domain socket, with retry/backoff on OVERLOAD,
   and reports throughput, latency percentiles and per-code totals.

   With --self-daemon it hosts the daemon in-process: the serve-smoke
   CI job and `dune build @serve-smoke` use this to run the acceptance
   torture — mixed formats, malformed frames, budget-tripped and
   crashing requests at overload pressure — then assert the daemon is
   still alive, every expectation held, shedding engaged, and the drain
   completed cleanly.

   Exit codes: 0 when every job matched its expected response code (and,
   under --self-daemon, the daemon survived and drained); 1 otherwise. *)

open Cmdliner

type mix = Steady | Torture

let jobs_of_mix mix ~n ~seed ~distinct ~rows ~cols ~fault =
  match mix with
  | Steady -> Serve.Load.steady_jobs ~n ~distinct ~seed ~rows ~cols
  | Torture -> Serve.Load.torture_jobs ~n ~seed ~fault

let write_json path json =
  let oc = open_out path in
  output_string oc (Telemetry.Json.to_string json);
  output_char oc '\n';
  close_out oc

let int_of_stats stats key =
  match stats with
  | Telemetry.Json.Obj fields -> (
    match List.assoc_opt "cache" fields with
    | Some (Telemetry.Json.Obj cache) -> (
      match List.assoc_opt key cache with
      | Some (Telemetry.Json.Int n) -> Some n
      | _ -> None)
    | _ -> (
      match List.assoc_opt key fields with
      | Some (Telemetry.Json.Int n) -> Some n
      | _ -> None))
  | _ -> None

let run socket self_daemon mix n concurrency retries seed distinct rows cols
    fault json_path check_invariants verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning);
  let daemon =
    if not self_daemon then None
    else begin
      (* a deliberately tight daemon: few workers, a short queue, so the
         concurrency below actually produces shedding *)
      let cfg =
        {
          (Serve.Daemon.default_config ~socket) with
          workers = 2;
          queue_depth = 4;
          allow_fault_injection = fault;
          max_timeout = 10.0;
        }
      in
      Some (Serve.Daemon.start cfg)
    end
  in
  let finish code =
    match daemon with
    | None -> code
    | Some d ->
      Serve.Daemon.stop d;
      code
  in
  if not (Serve.Client.wait_ready ~socket ()) then begin
    Fmt.epr "ucp_load: no daemon answering on %s@." socket;
    finish 1
  end
  else begin
    (* STATS before and after window the server's cumulative registry
       into exactly this run *)
    let before_stats = try Some (Serve.Client.stats ~socket) with _ -> None in
    let jobs = jobs_of_mix mix ~n ~seed ~distinct ~rows ~cols ~fault in
    let report = Serve.Load.run ~socket ~concurrency ~retries jobs in
    Fmt.pr "%a@." Serve.Load.pp_report report;
    let alive = Serve.Client.ping ~socket in
    if not alive then Fmt.epr "ucp_load: daemon no longer answers PING@.";
    let stats =
      if alive then (try Some (Serve.Client.stats ~socket) with _ -> None)
      else None
    in
    (match stats with
    | Some s ->
      Fmt.pr "cache: hits %d, misses %d, invalidations %d@."
        (Option.value (int_of_stats s "hits") ~default:0)
        (Option.value (int_of_stats s "misses") ~default:0)
        (Option.value (int_of_stats s "invalidations") ~default:0)
    | None -> ());
    let view =
      match (before_stats, stats) with
      | Some before, Some after -> Some (Serve.Load.server_view ~before ~after)
      | _ -> None
    in
    Option.iter (fun v -> Fmt.pr "%a@." Serve.Load.pp_server_view v) view;
    let inv_errors =
      if not check_invariants then []
      else
        match stats with
        | None -> [ "no final STATS to audit" ]
        | Some s -> Serve.Load.conservation_errors s
    in
    List.iter
      (fun e -> Fmt.epr "ucp_load: conservation violated: %s@." e)
      inv_errors;
    Option.iter
      (fun path ->
        let extra =
          (match stats with Some s -> [ ("daemon", s) ] | None -> [])
          @
          match view with
          | Some v -> [ ("server", Serve.Load.server_view_json v) ]
          | None -> []
        in
        let json =
          match Serve.Load.report_json report with
          | Telemetry.Json.Obj fields -> Telemetry.Json.Obj (fields @ extra)
          | j -> j
        in
        write_json path json)
      json_path;
    List.iter (fun c -> Fmt.epr "ucp_load: %s@." c) report.Serve.Load.unexpected;
    let failed =
      report.Serve.Load.unexpected <> [] || (not alive) || inv_errors <> []
    in
    finish (if failed then 1 else 0)
  end

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket to drive.")

let self_daemon_arg =
  Arg.(
    value & flag
    & info [ "self-daemon" ]
        ~doc:
          "Host the daemon in-process on $(b,--socket) (2 workers, queue \
           depth 4) and drain it after the run — the self-contained smoke \
           and torture mode.")

let mix_arg =
  Arg.(
    value
    & opt (enum [ ("steady", Steady); ("torture", Torture) ]) Steady
    & info [ "mix" ]
        ~doc:
          "Request mix: $(b,steady) cycles valid instances (exercises the \
           parse cache), $(b,torture) interleaves all four formats with \
           malformed frames, budget-tripped and (with \
           $(b,--fault-injection)) crashing requests.")

let n_arg =
  Arg.(value & opt int 50 & info [ "n" ] ~docv:"N" ~doc:"Mix repetitions.")

let concurrency_arg =
  Arg.(
    value & opt int 8
    & info [ "concurrency" ] ~docv:"N" ~doc:"Concurrent client lanes.")

let retries_arg =
  Arg.(
    value & opt int 5
    & info [ "retries" ] ~docv:"N"
        ~doc:"OVERLOAD retries per request (exponential backoff, honouring \
              the server's retry-after hint).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Payload seed.")

let distinct_arg =
  Arg.(
    value & opt int 4
    & info [ "distinct" ] ~docv:"N"
        ~doc:"Distinct instances in the steady mix (repeats hit the parse \
              cache).")

let rows_arg =
  Arg.(value & opt int 20 & info [ "rows" ] ~docv:"N" ~doc:"Steady-mix instance rows.")

let cols_arg =
  Arg.(value & opt int 40 & info [ "cols" ] ~docv:"N" ~doc:"Steady-mix instance columns.")

let fault_arg =
  Arg.(
    value & flag
    & info [ "fault-injection" ]
        ~doc:
          "Include deterministic crash / budget-trip requests in the \
           torture mix (the daemon must allow fault injection).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the report (plus daemon stats and the windowed server-side \
           view) as one JSON object.")

let check_invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Audit the final STATS snapshot for metric conservation (every \
           accepted request accounted for exactly once: accepted = responses \
           + timeouts + eofs, shed = OVERLOAD answers, queue-wait samples = \
           worker pops).  Any violation fails the run.  Only meaningful when \
           this process is the daemon's sole client.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let cmd =
  let doc = "generate load against a ucp_serve daemon" in
  let exits =
    [
      Cmd.Exit.info 0
        ~doc:"when every request matched its expected response code.";
      Cmd.Exit.info 1
        ~doc:
          "when expectations failed, the daemon stopped answering, or no \
           daemon was reachable.";
    ]
  in
  Cmd.v
    (Cmd.info "ucp_load" ~doc ~exits)
    Term.(
      const run $ socket_arg $ self_daemon_arg $ mix_arg $ n_arg
      $ concurrency_arg $ retries_arg $ seed_arg $ distinct_arg $ rows_arg
      $ cols_arg $ fault_arg $ json_arg $ check_invariants_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
