(* ucp_serve — the fault-tolerant solve daemon.

   Listens on a Unix-domain socket, speaks the UCP/1 protocol
   (lib/serve/proto.mli, DESIGN.md §14), and solves .ucp / OR-Library /
   .pla / .kiss payloads under per-request budgets clamped by the
   ceilings below.  Parsed problems and memoized PLA primes persist
   across requests, per problem signature; every request is solved from
   scratch, so it answers as ucp_solve does for the same bytes.

   Degradation: a full admission queue sheds (OVERLOAD + retry-after),
   budget trips answer FEASIBLE_BUDGET with the best cover found,
   crashes are isolated to their request (INTERNAL_ERROR; that
   signature's cache entry is dropped), and SIGTERM/SIGINT drain: stop
   accepting, finish or budget-trip in-flight work, flush telemetry,
   exit 0. *)

open Cmdliner

let drain_requested = Atomic.make false

let run socket workers queue_depth max_payload_mb read_timeout max_timeout
    max_nodes max_steps drain_grace retry_after allow_faults trace access_log
    cache_capacity verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning);
  if workers < 1 then begin
    Fmt.epr "ucp_serve: --workers must be >= 1@.";
    2
  end
  else if queue_depth < 1 then begin
    Fmt.epr "ucp_serve: --queue-depth must be >= 1@.";
    2
  end
  else begin
    let cfg =
      {
        (Serve.Daemon.default_config ~socket) with
        workers;
        queue_depth;
        max_payload = max_payload_mb * 1024 * 1024;
        read_timeout;
        max_timeout;
        max_nodes;
        max_steps;
        drain_grace;
        retry_after;
        allow_fault_injection = allow_faults;
        trace;
        access_log;
        cache_capacity;
      }
    in
    match Serve.Daemon.start cfg with
    | exception Unix.Unix_error (e, _, arg) ->
      Fmt.epr "ucp_serve: cannot listen on %s: %s (%s)@." socket
        (Unix.error_message e) arg;
      1
    | daemon ->
      (* the handler only flips an atomic: the actual drain — joining
         domains, flushing sinks — happens on this thread, outside
         signal context *)
      let on_signal _ =
        if Atomic.get drain_requested then exit 130
        else Atomic.set drain_requested true
      in
      List.iter
        (fun s ->
          try Sys.set_signal s (Sys.Signal_handle on_signal)
          with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigint; Sys.sigterm ];
      Fmt.pr "ucp_serve: listening on %s (%d workers, queue %d)@." socket
        workers queue_depth;
      while not (Atomic.get drain_requested) do
        Unix.sleepf 0.1
      done;
      Fmt.pr "ucp_serve: draining@.";
      Serve.Daemon.stop daemon;
      Fmt.pr "ucp_serve: drained cleanly@.";
      0
  end

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (a stale file is replaced).")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains.  Long-lived on purpose: their hash-consed ZDD/BDD \
           managers stay warm across requests.")

let queue_depth_arg =
  Arg.(
    value & opt int 16
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Admission-queue bound.  A connection arriving when the queue is \
           full is shed immediately with OVERLOAD and a retry-after hint \
           rather than queued without bound.")

let max_payload_arg =
  Arg.(
    value & opt int 16
    & info [ "max-payload" ] ~docv:"MIB"
        ~doc:
          "Reject request payloads larger than $(docv) MiB before reading \
           them (the length prefix is checked up front).")

let read_timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "read-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Receive timeout per read: a slow or half-open client is dropped, \
           not allowed to pin a worker.")

let max_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "max-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Ceiling (and default) for the per-request wall-clock budget; \
           requests asking for more are clamped.")

let max_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Ceiling for the per-request node budget.")

let max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Ceiling for the per-request subgradient-step budget.")

let drain_grace_arg =
  Arg.(
    value & opt float 1.0
    & info [ "drain-grace" ] ~docv:"SECONDS"
        ~doc:
          "On SIGTERM/SIGINT, give in-flight solves $(docv) seconds before \
           tripping their budgets; they still answer FEASIBLE_BUDGET with \
           the best cover found.")

let retry_after_arg =
  Arg.(
    value & opt float 0.25
    & info [ "retry-after" ] ~docv:"SECONDS"
        ~doc:"Hint sent with OVERLOAD responses.")

let allow_faults_arg =
  Arg.(
    value & flag
    & info [ "allow-fault-injection" ]
        ~doc:
          "Honour the fault-after / fault-site / fault-raise request \
           headers (deterministic crash and budget-trip testing; keep off \
           in production).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSON-lines telemetry trace (per-request records, crash \
           events); flushed record-by-record so it survives unclean death.")

let access_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Write one JSON line per finished request: trace id, payload \
           digest, outcome code, queue wait, solve time, cache disposition.  \
           Flushed line-by-line.")

let cache_capacity_arg =
  Arg.(
    value & opt int 64
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Parsed problems (one per problem signature) kept at most; \
              the least recently used is evicted first.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let cmd =
  let doc = "serve unate covering problems over a Unix-domain socket" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"after a clean SIGTERM/SIGINT drain.";
      Cmd.Exit.info 1 ~doc:"when the socket cannot be bound.";
      Cmd.Exit.info 2 ~doc:"on usage errors.";
      Cmd.Exit.info 130 ~doc:"on a second signal during a drain.";
    ]
  in
  Cmd.v
    (Cmd.info "ucp_serve" ~doc ~exits)
    Term.(
      const run $ socket_arg $ workers_arg $ queue_depth_arg $ max_payload_arg
      $ read_timeout_arg $ max_timeout_arg $ max_nodes_arg $ max_steps_arg
      $ drain_grace_arg $ retry_after_arg $ allow_faults_arg $ trace_arg
      $ access_log_arg $ cache_capacity_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
