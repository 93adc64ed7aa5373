module J = Telemetry.Json

type config = {
  socket : string;
  workers : int;
  queue_depth : int;
  max_payload : int;
  read_timeout : float;
  max_timeout : float;
  max_nodes : int option;
  max_steps : int option;
  drain_grace : float;
  retry_after : float;
  allow_fault_injection : bool;
  trace : string option;
  access_log : string option;
  cache_capacity : int;
}

let default_config ~socket =
  {
    socket;
    workers = 2;
    queue_depth = 16;
    max_payload = 16 * 1024 * 1024;
    read_timeout = 5.0;
    max_timeout = 30.0;
    max_nodes = None;
    max_steps = None;
    drain_grace = 1.0;
    retry_after = 0.25;
    allow_fault_injection = false;
    trace = None;
    access_log = None;
    cache_capacity = 64;
  }

(* ------------------------------------------------------------------ *)
(* Bounded admission queue                                            *)
(* ------------------------------------------------------------------ *)

(* each item remembers when it was admitted, so the worker that pops it
   can record the queue wait *)
type queue = {
  items : (Unix.file_descr * float) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  depth : int;
  mutable closed : bool;
}

let queue_create depth =
  {
    items = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    depth;
    closed = false;
  }

(* push never blocks: a full queue is the caller's signal to shed *)
let queue_push q fd =
  Mutex.lock q.lock;
  let ok = (not q.closed) && Queue.length q.items < q.depth in
  if ok then begin
    Queue.add (fd, Unix.gettimeofday ()) q.items;
    Condition.signal q.nonempty
  end;
  Mutex.unlock q.lock;
  ok

(* blocks until an item or close; drains remaining items after close so
   queued connections can still be answered SHUTDOWN *)
let queue_pop q =
  Mutex.lock q.lock;
  while Queue.is_empty q.items && not q.closed do
    Condition.wait q.nonempty q.lock
  done;
  let item = if Queue.is_empty q.items then None else Some (Queue.pop q.items) in
  Mutex.unlock q.lock;
  item

let queue_length q =
  Mutex.lock q.lock;
  let n = Queue.length q.items in
  Mutex.unlock q.lock;
  n

let queue_close q =
  Mutex.lock q.lock;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.lock

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let code_index : Proto.code -> int = function
  | Proto.OK -> 0
  | Proto.FEASIBLE_BUDGET -> 1
  | Proto.INFEASIBLE -> 2
  | Proto.PARSE_ERROR -> 3
  | Proto.OVERLOAD -> 4
  | Proto.SHUTDOWN -> 5
  | Proto.INTERNAL_ERROR -> 6

let all_codes =
  [
    Proto.OK;
    Proto.FEASIBLE_BUDGET;
    Proto.INFEASIBLE;
    Proto.PARSE_ERROR;
    Proto.OVERLOAD;
    Proto.SHUTDOWN;
    Proto.INTERNAL_ERROR;
  ]

let all_formats = [ Proto.Ucp; Proto.Orlib; Proto.Pla; Proto.Kiss ]

let format_index : Proto.format -> int = function
  | Proto.Ucp -> 0
  | Proto.Orlib -> 1
  | Proto.Pla -> 2
  | Proto.Kiss -> 3

(* every request the daemon accepts ends in exactly one of: a response
   (responses.<CODE>), a receive-timeout drop (requests.timeout) or a
   silent disconnect (requests.eof) — the conservation invariant
   `make metrics-smoke` asserts.  Histograms are shared across worker
   domains; every update is a single atomic operation. *)
type meters = {
  accepted : Metrics.Counter.t;
  shed : Metrics.Counter.t;
  crashed : Metrics.Counter.t;
  timeouts : Metrics.Counter.t;
  eofs : Metrics.Counter.t;
  health_fastpath : Metrics.Counter.t;
  by_code : Metrics.Counter.t array;
  cache_hit : Metrics.Counter.t array;
  cache_miss : Metrics.Counter.t array;
  queue_wait : Metrics.Histogram.t;
  solve_ok : Metrics.Histogram.t;
  solve_budget : Metrics.Histogram.t;
  solve_error : Metrics.Histogram.t;
  payload_bytes : Metrics.Histogram.t;
}

let make_meters reg =
  {
    accepted = Metrics.counter reg "requests.accepted";
    shed = Metrics.counter reg "requests.shed";
    crashed = Metrics.counter reg "requests.crashed";
    timeouts = Metrics.counter reg "requests.timeout";
    eofs = Metrics.counter reg "requests.eof";
    health_fastpath = Metrics.counter reg "requests.health_fastpath";
    by_code =
      Array.of_list
        (List.map
           (fun c -> Metrics.counter reg ("responses." ^ Proto.string_of_code c))
           all_codes);
    cache_hit =
      Array.of_list
        (List.map
           (fun f -> Metrics.counter reg ("cache.hit." ^ Proto.string_of_format f))
           all_formats);
    cache_miss =
      Array.of_list
        (List.map
           (fun f -> Metrics.counter reg ("cache.miss." ^ Proto.string_of_format f))
           all_formats);
    queue_wait = Metrics.histogram reg "queue.wait_seconds";
    solve_ok = Metrics.histogram reg "solve.seconds.ok";
    solve_budget = Metrics.histogram reg "solve.seconds.budget";
    solve_error = Metrics.histogram reg "solve.seconds.error";
    payload_bytes =
      Metrics.histogram reg "request.payload_bytes"
        ~bounds:Metrics.Histogram.default_size_bounds;
  }

(* ------------------------------------------------------------------ *)
(* Daemon state                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  queue : queue;
  cache : Cache.t;
  registry : Metrics.t;
  m : meters;
  drain_flag : bool Atomic.t;
  (* one slot per worker: the budget of its in-flight solve, if any —
     the drain path trips these cooperatively *)
  inflight : Budget.t option Atomic.t array;
  telemetry : Telemetry.t;
  tel_lock : Mutex.t;
  trace_oc : out_channel option;
  access_oc : out_channel option;
  access_lock : Mutex.t;
  (* boot token + sequence: trace ids are unique per daemon lifetime and
     distinguishable across restarts *)
  boot : string;
  trace_seq : int Atomic.t;
  started_at : float;
  mutable acceptor : Thread.t option;
  mutable domains : unit Domain.t array;
  (* wait is idempotent: only the first call joins and closes sinks *)
  mutable drained : bool;
}

let config t = t.cfg
let draining t = Atomic.get t.drain_flag
let metrics t = t.registry
let count t code = Metrics.Counter.incr t.m.by_code.(code_index code)

let inflight_count t =
  Array.fold_left
    (fun acc a -> if Atomic.get a <> None then acc + 1 else acc)
    0 t.inflight

let next_trace t =
  Printf.sprintf "%s-%06d" t.boot (Atomic.fetch_and_add t.trace_seq 1)

(* all touches of the shared collector go through this lock: worker
   domains record events/counters concurrently *)
let with_telemetry t f =
  Mutex.lock t.tel_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.tel_lock) (fun () -> f t.telemetry)

(* One JSON line per finished request, flushed immediately.  The trace
   id here also rides the response's trace-id header and the telemetry
   "serve.request" record, so an offline --trace file joins to this log. *)
let access_line t ~trace ~verb ~fmt ~id ~digest ~code ~queue_wait ~solve_s
    ~total_s ~cache ~bytes_in =
  match t.access_oc with
  | None -> ()
  | Some oc ->
    let line =
      J.to_string
        (J.Obj
           [
             ("t", J.Float (Unix.gettimeofday ()));
             ("trace", J.String trace);
             ("verb", J.String verb);
             ("format", J.String fmt);
             ("id", J.String id);
             ("digest", J.String digest);
             ("code", J.String code);
             ("queue_wait_s", J.Float queue_wait);
             ("solve_s", J.Float solve_s);
             ("total_s", J.Float total_s);
             ("cache", J.String cache);
             ("bytes_in", J.Int bytes_in);
           ])
    in
    Mutex.lock t.access_lock;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock t.access_lock

let stats_json t =
  let cget c = Metrics.Counter.get c in
  J.Obj
    [
      ("uptime", J.Float (Unix.gettimeofday () -. t.started_at));
      ("workers", J.Int t.cfg.workers);
      ("draining", J.Bool (draining t));
      ("received", J.Int (cget t.m.accepted));
      ("shed", J.Int (cget t.m.shed));
      ("read_timeouts", J.Int (cget t.m.timeouts));
      ("crashes", J.Int (cget t.m.crashed));
      ("eof_closes", J.Int (cget t.m.eofs));
      ( "queue",
        J.Obj
          [
            ("depth", J.Int (queue_length t.queue));
            ("capacity", J.Int t.cfg.queue_depth);
          ] );
      ("inflight", J.Int (inflight_count t));
      ( "codes",
        J.Obj
          (List.map
             (fun c ->
               ( Proto.string_of_code c,
                 J.Int (cget t.m.by_code.(code_index c)) ))
             all_codes) );
      ( "cache",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Cache.stats t.cache)) );
      ("metrics", Metrics.snapshot_json t.registry);
    ]

let health_json t ~saturated =
  J.Obj
    [
      ("status", J.String (if draining t then "draining" else "ok"));
      ("ready", J.Bool (not (draining t)));
      ("uptime", J.Float (Unix.gettimeofday () -. t.started_at));
      ("workers", J.Int t.cfg.workers);
      ("inflight", J.Int (inflight_count t));
      ( "queue",
        J.Obj
          [
            ("depth", J.Int (queue_length t.queue));
            ("capacity", J.Int t.cfg.queue_depth);
          ] );
      ("saturated", J.Bool saturated);
    ]

(* best effort: the peer may be gone, and that is its problem *)
let respond fd ~code ~headers ~body =
  match Proto.write_all fd (Proto.encode_response ~code ~headers ~body) with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

let clamp_opt ceiling requested =
  match (ceiling, requested) with
  | None, r -> r
  | Some c, None -> Some c
  | Some c, Some r -> Some (min c r)

(* always an active governor — an inactive [Budget.none] could not be
   interrupted by the drain path — with every request knob clamped by
   the server ceilings *)
let make_budget t (req : Proto.request) =
  let timeout =
    match req.timeout with
    | None -> t.cfg.max_timeout
    | Some s -> Float.min (Float.max s 0.01) t.cfg.max_timeout
  in
  let nodes = clamp_opt t.cfg.max_nodes req.nodes in
  let steps = clamp_opt t.cfg.max_steps req.steps in
  let fault_after, fault_site, fault_raise =
    if t.cfg.allow_fault_injection then
      ( req.fault_after,
        Option.bind req.fault_site Budget.site_of_string,
        req.fault_raise )
    else (None, None, false)
  in
  Budget.create ~timeout ?nodes ?steps ?fault_after ?fault_site ~fault_raise ()

let parse_problem fmt payload : (Cache.problem, Logic.Parse_error.error) result =
  match (fmt : Proto.format) with
  | Ucp ->
    Result.map (fun m -> Cache.P_matrix m) (Covering.Instance.parse_result payload)
  | Orlib ->
    Result.map
      (fun m -> Cache.P_matrix m)
      (Covering.Instance.parse_orlib_result payload)
  | Pla -> (
    match Logic.Pla.parse_result payload with
    | Error e -> Error e
    | Ok pla -> (
      match Covering.From_logic.build_multi pla with
      | bridge -> Ok (Cache.P_multi (pla, bridge))
      | exception Invalid_argument what ->
        Error { Logic.Parse_error.file = None; line = 0; col = 0; what }))
  | Kiss -> Result.map (fun m -> Cache.P_kiss m) (Fsm.Kiss.parse_result payload)

let render_parse_error (e : Logic.Parse_error.error) =
  if e.line = 0 then e.what ^ "\n"
  else if e.col = 0 then Printf.sprintf "line %d: %s\n" e.line e.what
  else Printf.sprintf "line %d, column %d: %s\n" e.line e.col e.what

let scg_response (r : Scg.result) =
  let code =
    match r.Scg.status with
    | Scg.Optimal | Scg.Feasible -> Proto.OK
    | Scg.Feasible_budget_exhausted _ -> Proto.FEASIBLE_BUDGET
  in
  let headers =
    [
      ("cost", string_of_int r.Scg.cost);
      ("lower-bound", string_of_int r.Scg.lower_bound);
      ( "status",
        match r.Scg.status with
        | Scg.Optimal -> "optimal"
        | Scg.Feasible -> "feasible"
        | Scg.Feasible_budget_exhausted _ -> "budget-exhausted" );
    ]
  in
  let body =
    J.to_string
      (J.Obj
         [
           ("solver", J.String "scg");
           ("cost", J.Int r.Scg.cost);
           ("lower_bound", J.Int r.Scg.lower_bound);
           ("proven_optimal", J.Bool r.Scg.proven_optimal);
           ( "status",
             J.String
               (match r.Scg.status with
               | Scg.Optimal -> "optimal"
               | Scg.Feasible -> "feasible"
               | Scg.Feasible_budget_exhausted _ -> "budget-exhausted") );
           ("solution", J.List (List.map (fun c -> J.Int c) r.Scg.solution));
         ])
    ^ "\n"
  in
  (code, headers, body)

let kiss_response (r : Fsm.Minimise.result) =
  let code = if r.Fsm.Minimise.optimal then Proto.OK else Proto.FEASIBLE_BUDGET in
  let headers =
    [
      ("cost", string_of_int r.Fsm.Minimise.minimised_states);
      ( "status",
        if r.Fsm.Minimise.optimal then "optimal" else "budget-exhausted" );
    ]
  in
  let body =
    J.to_string
      (J.Obj
         [
           ("solver", J.String "fsm");
           ("original_states", J.Int r.Fsm.Minimise.original_states);
           ("minimised_states", J.Int r.Fsm.Minimise.minimised_states);
           ("proven_optimal", J.Bool r.Fsm.Minimise.optimal);
           ("nodes", J.Int r.Fsm.Minimise.nodes);
         ])
    ^ "\n"
  in
  (code, headers, body)

let solve_problem t ~budget ~telemetry (req : Proto.request) = function
  | Cache.P_matrix m -> scg_response (Scg.solve ~budget ~telemetry m)
  | Cache.P_multi (_, bridge) ->
    scg_response
      (Scg.solve ~budget ~telemetry bridge.Covering.From_logic.mmatrix)
  | Cache.P_kiss machine ->
    let max_nodes = clamp_opt t.cfg.max_nodes req.Proto.nodes in
    kiss_response (Fsm.Minimise.minimise ~budget ?max_nodes machine)

(* the live-log ↔ offline-trace join: one "serve.request" record per
   request in the telemetry stream, keyed by the same trace id the
   access log and the trace-id response header carry *)
let join_trace t ~trace ~digest ~code ~queue_wait ~solve_s ~cache =
  if Telemetry.enabled t.telemetry then
    with_telemetry t (fun server_tel ->
        Telemetry.event server_tel "serve.request"
          [
            ("trace", J.String trace);
            ("digest", J.String digest);
            ("code", J.String (Proto.string_of_code code));
            ("queue_wait_s", J.Float queue_wait);
            ("solve_s", J.Float solve_s);
            ("cache", J.String cache);
          ];
        Option.iter flush t.trace_oc)

let handle_solve t ~slot ~trace ~queue_wait ~log fd (req : Proto.request) payload
    =
  let fmt = Option.get req.Proto.format in
  let fmt_s = Proto.string_of_format fmt in
  let fi = format_index fmt in
  let id_s = Option.value req.Proto.id ~default:"-" in
  let bytes_in = String.length payload in
  Metrics.Histogram.observe t.m.payload_bytes (float_of_int bytes_in);
  let digest =
    Digest.to_hex
      (Digest.string (Proto.string_of_format fmt ^ "\x00" ^ payload))
  in
  let log ?(cache = "-") ?(solve_s = 0.) code =
    log ~verb:"SOLVE" ~fmt:fmt_s ~id:id_s ~digest ~cache ~solve_s ~bytes_in
      (Proto.string_of_code code)
  in
  let id_headers =
    ("trace-id", trace)
    :: (match req.Proto.id with Some id -> [ ("id", id) ] | None -> [])
  in
  match
    Cache.checkout t.cache ~digest ~parse:(fun () -> parse_problem fmt payload)
  with
  | exception Covering.Infeasible { row_id; _ } ->
    count t Proto.INFEASIBLE;
    log Proto.INFEASIBLE;
    respond fd ~code:Proto.INFEASIBLE ~headers:id_headers
      ~body:(Printf.sprintf "row %d has no covering column\n" row_id)
  | Error e ->
    count t Proto.PARSE_ERROR;
    log Proto.PARSE_ERROR;
    respond fd ~code:Proto.PARSE_ERROR ~headers:id_headers
      ~body:(render_parse_error e)
  | Ok { Cache.problem; hit } -> (
    Metrics.Counter.incr
      (if hit then t.m.cache_hit.(fi) else t.m.cache_miss.(fi));
    let cache_s = if hit then "hit" else "miss" in
    let budget = make_budget t req in
    let tel = Telemetry.create () in
    Atomic.set t.inflight.(slot) (Some budget);
    let solve_t0 = Unix.gettimeofday () in
    let finish () =
      Atomic.set t.inflight.(slot) None;
      with_telemetry t (fun server_tel ->
          Telemetry.merge server_tel tel;
          Option.iter flush t.trace_oc)
    in
    match solve_problem t ~budget ~telemetry:tel req problem with
    | code, headers, body ->
      let solve_s = Unix.gettimeofday () -. solve_t0 in
      finish ();
      count t code;
      Metrics.Histogram.observe
        (match code with
        | Proto.OK -> t.m.solve_ok
        | Proto.FEASIBLE_BUDGET -> t.m.solve_budget
        | _ -> t.m.solve_error)
        solve_s;
      join_trace t ~trace ~digest ~code ~queue_wait ~solve_s ~cache:cache_s;
      log ~cache:cache_s ~solve_s code;
      (* the header keeps its historical name; it reports the parse
         cache, the only state a request reuses *)
      let warm_header = ("warm", cache_s) in
      respond fd ~code ~headers:(id_headers @ (warm_header :: headers)) ~body
    | exception Covering.Infeasible { row_id; _ } ->
      let solve_s = Unix.gettimeofday () -. solve_t0 in
      finish ();
      count t Proto.INFEASIBLE;
      Metrics.Histogram.observe t.m.solve_error solve_s;
      log ~cache:cache_s ~solve_s Proto.INFEASIBLE;
      respond fd ~code:Proto.INFEASIBLE ~headers:id_headers
        ~body:(Printf.sprintf "row %d has no covering column\n" row_id)
    | exception exn ->
      (* crash isolation: this request dies, the daemon does not.  The
         signature's cache entry is dropped so a poisonous input cannot
         hurt the next request that resubmits it; every other
         signature keeps its entry.  The crash still settles its whole
         per-request account: requests.crashed, the error-latency
         histogram, the access-log line and the trace join. *)
      let solve_s = Unix.gettimeofday () -. solve_t0 in
      finish ();
      Metrics.Counter.incr t.m.crashed;
      Cache.invalidate t.cache ~digest;
      let what = Printexc.to_string exn in
      with_telemetry t (fun server_tel ->
          Telemetry.event server_tel "serve.crash"
            [
              ("exn", J.String what);
              ("trace", J.String trace);
              ("digest", J.String digest);
              ("id", J.String id_s);
            ];
          Option.iter flush t.trace_oc);
      count t Proto.INTERNAL_ERROR;
      Metrics.Histogram.observe t.m.solve_error solve_s;
      join_trace t ~trace ~digest ~code:Proto.INTERNAL_ERROR ~queue_wait
        ~solve_s ~cache:cache_s;
      log ~cache:cache_s ~solve_s Proto.INTERNAL_ERROR;
      respond fd ~code:Proto.INTERNAL_ERROR ~headers:id_headers
        ~body:(what ^ "\n"))

let handle_conn t ~slot ~queue_wait fd =
  let trace = next_trace t in
  let t0 = Unix.gettimeofday () in
  let log ?(verb = "-") ?(fmt = "-") ?(id = "-") ?(digest = "-") ?(cache = "-")
      ?(solve_s = 0.) ?(bytes_in = 0) code =
    access_line t ~trace ~verb ~fmt ~id ~digest ~code ~queue_wait ~solve_s
      ~total_s:(Unix.gettimeofday () -. t0) ~cache ~bytes_in
  in
  let trace_header = [ ("trace-id", trace) ] in
  let r = Proto.reader fd in
  match Proto.read_request ~max_payload:t.cfg.max_payload r with
  | exception Proto.Wire_error what ->
    count t Proto.PARSE_ERROR;
    log "PARSE_ERROR";
    respond fd ~code:Proto.PARSE_ERROR ~headers:trace_header ~body:(what ^ "\n")
  | exception Proto.Timeout ->
    (* slow or half-open peer: reclaim the worker, close without reply —
       but the connection still settles its account *)
    Metrics.Counter.incr t.m.timeouts;
    log "TIMEOUT"
  | exception End_of_file ->
    Metrics.Counter.incr t.m.eofs;
    log "EOF"
  | req, payload -> (
    match req.Proto.verb with
    | Proto.Ping ->
      count t Proto.OK;
      log ~verb:"PING" "OK";
      respond fd ~code:Proto.OK ~headers:trace_header ~body:"pong\n"
    | Proto.Stats ->
      count t Proto.OK;
      log ~verb:"STATS" "OK";
      respond fd ~code:Proto.OK ~headers:trace_header
        ~body:(J.to_string (stats_json t) ^ "\n")
    | Proto.Health ->
      count t Proto.OK;
      log ~verb:"HEALTH" "OK";
      respond fd ~code:Proto.OK ~headers:trace_header
        ~body:(J.to_string (health_json t ~saturated:false) ^ "\n")
    | Proto.Solve when draining t ->
      count t Proto.SHUTDOWN;
      log ~verb:"SOLVE" "SHUTDOWN";
      respond fd ~code:Proto.SHUTDOWN ~headers:trace_header ~body:"draining\n"
    | Proto.Solve ->
      handle_solve t ~slot ~trace ~queue_wait ~log:(fun ~verb ~fmt ~id ~digest
                                                        ~cache ~solve_s
                                                        ~bytes_in code ->
          access_line t ~trace ~verb ~fmt ~id ~digest ~code ~queue_wait ~solve_s
            ~total_s:(Unix.gettimeofday () -. t0) ~cache ~bytes_in)
        fd req payload)

(* ------------------------------------------------------------------ *)
(* Threads                                                            *)
(* ------------------------------------------------------------------ *)

let worker_loop t slot =
  let rec loop () =
    match queue_pop t.queue with
    | None -> ()
    | Some (fd, enqueued_at) ->
      let queue_wait = Float.max 0. (Unix.gettimeofday () -. enqueued_at) in
      Metrics.Histogram.observe t.m.queue_wait queue_wait;
      (if draining t then begin
         (* accepted before the drain, not yet started: shed cleanly *)
         count t Proto.SHUTDOWN;
         access_line t ~trace:(next_trace t) ~verb:"-" ~fmt:"-" ~id:"-"
           ~digest:"-" ~code:"SHUTDOWN" ~queue_wait ~solve_s:0.
           ~total_s:0. ~cache:"-" ~bytes_in:0;
         respond fd ~code:Proto.SHUTDOWN ~headers:[] ~body:"draining\n"
       end
       else
         try handle_conn t ~slot ~queue_wait fd
         with exn ->
           (* nothing below handle_conn may escape — a worker domain
              that dies takes its queue slot with it forever *)
           Metrics.Counter.incr t.m.crashed;
           count t Proto.INTERNAL_ERROR;
           respond fd ~code:Proto.INTERNAL_ERROR ~headers:[]
             ~body:(Printexc.to_string exn ^ "\n"));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      loop ()
  in
  loop ()

(* The shed path must never shed monitoring: when the queue is full,
   peek (without consuming) at the bytes already in the socket buffer —
   a HEALTH probe writes its whole frame at connect, so if the first
   bytes spell "UCP/1 HEALTH " the verdict is answered right here on the
   acceptor thread, no worker involved.  Anything else is shed. *)
let health_prefix = "UCP/1 HEALTH"

let try_answer_health t fd =
  let n = String.length health_prefix in
  let buf = Bytes.create (n + 1) in
  match Unix.select [ fd ] [] [] 0.05 with
  | [], _, _ -> false
  | _ -> (
    match Unix.recv fd buf 0 (n + 1) [ Unix.MSG_PEEK ] with
    | got
      when got >= n + 1
           && Bytes.sub_string buf 0 n = health_prefix
           && Bytes.get buf n = ' ' ->
      Metrics.Counter.incr t.m.health_fastpath;
      count t Proto.OK;
      access_line t ~trace:(next_trace t) ~verb:"HEALTH" ~fmt:"-" ~id:"-"
        ~digest:"-" ~code:"OK" ~queue_wait:0. ~solve_s:0. ~total_s:0.
        ~cache:"-" ~bytes_in:0;
      respond fd ~code:Proto.OK ~headers:[]
        ~body:(J.to_string (health_json t ~saturated:true) ^ "\n");
      true
    | _ -> false
    | exception Unix.Unix_error _ -> false)
  | exception Unix.Unix_error _ -> false

let acceptor_loop t =
  let rec loop () =
    if not (draining t) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
          ->
          ()
        | fd, _ ->
          Metrics.Counter.incr t.m.accepted;
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_timeout
           with Unix.Unix_error _ -> ());
          if not (queue_push t.queue fd) then begin
            if not (try_answer_health t fd) then begin
              (* the robustness headline: a full queue sheds load with an
                 immediate, honest answer instead of queueing unboundedly *)
              Metrics.Counter.incr t.m.shed;
              count t Proto.OVERLOAD;
              access_line t ~trace:(next_trace t) ~verb:"-" ~fmt:"-" ~id:"-"
                ~digest:"-" ~code:"OVERLOAD" ~queue_wait:0. ~solve_s:0.
                ~total_s:0. ~cache:"-" ~bytes_in:0;
              respond fd ~code:Proto.OVERLOAD
                ~headers:[ ("retry-after", Printf.sprintf "%g" t.cfg.retry_after) ]
                ~body:"admission queue full\n"
            end;
            try Unix.close fd with Unix.Unix_error _ -> ()
          end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let start cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.start: workers must be >= 1";
  if cfg.queue_depth < 1 then invalid_arg "Daemon.start: queue_depth must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
     Unix.listen listen_fd (max 8 (2 * cfg.queue_depth))
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let tel_lock = Mutex.create () in
  let trace_oc = Option.map open_out cfg.trace in
  let access_oc = Option.map open_out cfg.access_log in
  let telemetry =
    match trace_oc with
    | None -> Telemetry.create ()
    | Some oc ->
      (* flushed line-by-line so the sink is complete even if the
         process is killed uncleanly *)
      Telemetry.create
        ~trace:(fun line ->
          output_string oc line;
          output_char oc '\n';
          flush oc)
        ()
  in
  let started_at = Unix.gettimeofday () in
  let registry = Metrics.create () in
  let m = make_meters registry in
  let t =
    {
      cfg;
      listen_fd;
      queue = queue_create cfg.queue_depth;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      registry;
      m;
      drain_flag = Atomic.make false;
      inflight = Array.init cfg.workers (fun _ -> Atomic.make None);
      telemetry;
      tel_lock;
      trace_oc;
      access_oc;
      access_lock = Mutex.create ();
      boot =
        Printf.sprintf "%08x"
          (int_of_float (Float.rem (started_at *. 1000.) 4294967296.));
      trace_seq = Atomic.make 1;
      started_at;
      acceptor = None;
      domains = [||];
      drained = false;
    }
  in
  (* live gauges: sampled at snapshot time by whichever domain answers
     STATS; the GC/ZDD probes are therefore that worker's view *)
  Metrics.gauge registry "queue.depth" (fun () ->
      float_of_int (queue_length t.queue));
  Metrics.gauge registry "inflight" (fun () -> float_of_int (inflight_count t));
  Metrics.gauge registry "cache.entries" (fun () ->
      float_of_int
        (Option.value ~default:0 (List.assoc_opt "entries" (Cache.stats t.cache))));
  Metrics.gauge registry "uptime.seconds" (fun () ->
      Unix.gettimeofday () -. t.started_at);
  Metrics.gauge registry "draining" (fun () -> if draining t then 1. else 0.);
  Metrics.register_telemetry_probes registry;
  t.domains <- Array.init cfg.workers (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

let request_drain t =
  if not (Atomic.get t.drain_flag) then begin
    Atomic.set t.drain_flag true;
    queue_close t.queue
  end

let wait t =
  if t.drained then ()
  else begin
  t.drained <- true;
  (* grace first: most in-flight requests finish on their own *)
  let deadline = Unix.gettimeofday () +. t.cfg.drain_grace in
  let busy () = Array.exists (fun a -> Atomic.get a <> None) t.inflight in
  while busy () && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  (* then trip the stragglers; they wind down to FEASIBLE_BUDGET
     answers.  Swept in a loop to close the race with a solve that
     started just as the drain began. *)
  while busy () do
    Array.iter
      (fun a -> match Atomic.get a with Some b -> Budget.interrupt b | None -> ())
      t.inflight;
    Thread.delay 0.05
  done;
  Option.iter Thread.join t.acceptor;
  t.acceptor <- None;
  Array.iter Domain.join t.domains;
  t.domains <- [||];
  with_telemetry t Telemetry.close;
  Option.iter
    (fun oc ->
      flush oc;
      close_out oc)
    t.trace_oc;
  Option.iter
    (fun oc ->
      flush oc;
      close_out oc)
    t.access_oc
  end

let stop t =
  request_drain t;
  wait t
