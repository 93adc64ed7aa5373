module J = Telemetry.Json

type job =
  | Framed of {
      req : Proto.request;
      payload : string;
      expect : Proto.code option;
    }
  | Raw of { bytes : string; note : string }

(* ------------------------------------------------------------------ *)
(* Payload generators — deterministic in their seed                   *)
(* ------------------------------------------------------------------ *)

let state seed tag = Random.State.make [| 0x5eed; tag; seed |]

(* every row covers column [i mod cols], so the instance is feasible by
   construction whatever the random extras *)
let random_rows st ~rows ~cols =
  List.init rows (fun i ->
      let extra = 1 + Random.State.int st 3 in
      let members = ref [ i mod cols ] in
      for _ = 1 to extra do
        let c = Random.State.int st cols in
        if not (List.mem c !members) then members := c :: !members
      done;
      List.sort compare !members)

let ucp_payload ~seed ~rows ~cols =
  let st = state seed 1 in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "p ucp %d %d\n" rows cols);
  Buffer.add_string b "c";
  for _ = 1 to cols do
    Buffer.add_string b (Printf.sprintf " %d" (1 + Random.State.int st 9))
  done;
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b "r";
      List.iter (fun c -> Buffer.add_string b (Printf.sprintf " %d" c)) row;
      Buffer.add_char b '\n')
    (random_rows st ~rows ~cols);
  Buffer.contents b

let orlib_payload ~seed ~rows ~cols =
  let st = state seed 2 in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "%d %d\n" rows cols);
  for _ = 1 to cols do
    Buffer.add_string b (Printf.sprintf "%d " (1 + Random.State.int st 9))
  done;
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b (Printf.sprintf "%d" (List.length row));
      (* OR-Library columns are 1-based *)
      List.iter (fun c -> Buffer.add_string b (Printf.sprintf " %d" (c + 1))) row;
      Buffer.add_char b '\n')
    (random_rows st ~rows ~cols);
  Buffer.contents b

let pla_payload ~seed ~products =
  let st = state seed 3 in
  let b = Buffer.create 256 in
  Buffer.add_string b ".i 4\n.o 1\n.type fd\n";
  for _ = 1 to products do
    for _ = 1 to 4 do
      Buffer.add_char b [| '0'; '1'; '-' |].(Random.State.int st 3)
    done;
    Buffer.add_string b " 1\n"
  done;
  Buffer.add_string b ".e\n";
  Buffer.contents b

let kiss_payload () =
  ".i 1\n.o 1\n.r a\n0 a b 0\n1 a a 1\n0 b a -\n1 b b 0\n.e\n"

(* ------------------------------------------------------------------ *)
(* Mixes                                                              *)
(* ------------------------------------------------------------------ *)

let framed ?expect ?id ?timeout ?steps ?fault_after ?fault_raise fmt payload =
  Framed
    {
      req =
        Proto.solve_request ?id ?timeout ?steps ?fault_after ?fault_raise
          ~format:fmt ~length:(String.length payload) ();
      payload;
      expect;
    }

let steady_jobs ~n ~distinct ~seed ~rows ~cols =
  let payloads =
    Array.init (max 1 distinct) (fun i -> ucp_payload ~seed:(seed + i) ~rows ~cols)
  in
  List.init n (fun i ->
      framed ~id:(Printf.sprintf "steady-%d" i) Proto.Ucp
        payloads.(i mod Array.length payloads))

let raw_frames =
  [
    (* header promises 400 bytes, the connection dies after 10: a
       mid-payload disconnect *)
    ("UCP/1 SOLVE ucp 400\n\np ucp 3 4\n", "truncated payload");
    ("UCP/1 SOLVE ucp 999999999999\n\n", "oversized length prefix");
    ("UCP/1 SOLVE ucp -4\n\n", "negative length prefix");
    ("UCP/1 SOLVE xml 5\n\nhello", "unknown format tag");
    ("UCP/1 FROBNICATE ucp 0\n\n", "unknown verb");
    ("GET / HTTP/1.1\n\n", "not our protocol");
    ("UCP/1 SOLVE ucp five\n\nhello", "non-numeric length");
    ("UCP/1 SOLVE ucp 3\ntimeout banana\n\nabc", "malformed option value");
    ("", "connect and say nothing");
  ]

let torture_jobs ~n ~seed ~fault =
  let ucp_a = ucp_payload ~seed ~rows:12 ~cols:24 in
  let ucp_b = ucp_payload ~seed:(seed + 1) ~rows:16 ~cols:32 in
  let orlib = orlib_payload ~seed ~rows:10 ~cols:20 in
  let pla = pla_payload ~seed ~products:6 in
  let kiss = kiss_payload () in
  let fault_target = ucp_payload ~seed:(seed + 2) ~rows:20 ~cols:40 in
  let garbage_ucp = "p ucp 2 2\nr 9 9\n" in
  let pick i =
    match i mod 12 with
    | 0 | 1 -> [ framed ~expect:Proto.OK Proto.Ucp ucp_a ]
    | 2 -> [ framed ~expect:Proto.OK Proto.Ucp ucp_b ]
    | 3 -> [ framed ~expect:Proto.OK Proto.Orlib orlib ]
    | 4 -> [ framed ~expect:Proto.OK Proto.Pla pla ]
    | 5 -> [ framed ~expect:Proto.OK Proto.Kiss kiss ]
    | 6 ->
      (* a budget squeezed to nothing: the answer must still be a
         feasible cover, OK if the solve beat the clock *)
      [ framed ~timeout:0.005 Proto.Ucp ucp_b ]
    | 7 -> [ framed ~expect:Proto.PARSE_ERROR Proto.Ucp garbage_ucp ]
    | 8 | 9 ->
      let raw, note = List.nth raw_frames (i / 2 mod List.length raw_frames) in
      [ Raw { bytes = raw; note } ]
    | 10 when fault ->
      (* a crash, then the same signature again: the second request
         must succeed off a fresh (invalidated) cache entry *)
      [
        framed ~expect:Proto.INTERNAL_ERROR ~fault_after:1 ~fault_raise:true
          Proto.Ucp fault_target;
        framed ~expect:Proto.OK Proto.Ucp fault_target;
      ]
    | 11 when fault ->
      [
        framed ~expect:Proto.FEASIBLE_BUDGET ~fault_after:1 Proto.Ucp
          fault_target;
      ]
    | _ -> [ framed ~expect:Proto.OK Proto.Ucp ucp_a ]
  in
  List.concat (List.init n pick)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  code : Proto.code option;  (* None: closed without a response frame *)
  latency : float;
  attempts : int;
  complaint : string option;
}

type report = {
  requests : int;
  completed : int;
  clean_closes : int;
  by_code : (string * int) list;
  retries : int;
  unexpected : string list;
  elapsed : float;
  rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  shed : int;
  errors : int;
  shed_rate : float;
  latency : Metrics.Histogram.snapshot;
}

let run_job ~socket ~retries i job =
  let t0 = Unix.gettimeofday () in
  let done_ latency code attempts complaint =
    { code; latency; attempts; complaint }
  in
  match job with
  | Framed { req; payload; expect } -> (
    match Client.request ~retries ~socket req ~payload with
    | { Client.code; attempts; _ } ->
      let latency = Unix.gettimeofday () -. t0 in
      let complaint =
        match expect with
        | Some want when want <> code ->
          Some
            (Printf.sprintf "job %d: expected %s, got %s" i
               (Proto.string_of_code want) (Proto.string_of_code code))
        | _ -> None
      in
      done_ latency (Some code) attempts complaint
    | exception
        (( Unix.Unix_error _ | Proto.Wire_error _ | Proto.Timeout
         | End_of_file ) as exn) ->
      done_
        (Unix.gettimeofday () -. t0)
        None 1
        (Some (Printf.sprintf "job %d: dropped: %s" i (Printexc.to_string exn))))
  | Raw { bytes; note } -> (
    (* a full queue sheds the frame before reading a byte of it, so an
       OVERLOAD says nothing about the frame: send it again *)
    match
      Client.retrying ~retries
        ~overloaded:(function
          | Some (Proto.OVERLOAD, headers, _) -> Some headers | _ -> None)
        (fun () -> Client.send_raw ~socket bytes)
    with
    | Some (Proto.PARSE_ERROR, _, _), attempts ->
      done_ (Unix.gettimeofday () -. t0) (Some Proto.PARSE_ERROR) attempts None
    | Some (code, _, _), attempts ->
      done_
        (Unix.gettimeofday () -. t0)
        (Some code) attempts
        (Some
           (Printf.sprintf "job %d (%s): expected PARSE_ERROR or close, got %s"
              i note (Proto.string_of_code code)))
    | None, attempts -> done_ (Unix.gettimeofday () -. t0) None attempts None
    | exception Unix.Unix_error (e, _, _) ->
      done_
        (Unix.gettimeofday () -. t0)
        None 1
        (Some (Printf.sprintf "job %d (%s): dropped: %s" i note
                 (Unix.error_message e))))

let run ~socket ?(concurrency = 4) ?(retries = 0) jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let outcomes =
    Array.make n { code = None; latency = 0.; attempts = 0; complaint = None }
  in
  let next = Atomic.make 0 in
  let lane () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        outcomes.(i) <- run_job ~socket ~retries i jobs.(i);
        loop ()
      end
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init (max 1 (min concurrency n)) (fun _ -> Thread.create lane ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let completed = ref 0 and clean = ref 0 and retries_spent = ref 0 in
  let attempts_total = ref 0 and shed_events = ref 0 in
  let final_shed = ref 0 and errors = ref 0 in
  let counts = Hashtbl.create 8 in
  let complaints = ref [] in
  (* the same estimator the server uses: client-observed latencies land
     in a registry histogram, quantiles are read off its snapshot — so
     client and server percentiles are directly comparable *)
  let lat_reg = Metrics.create () in
  let lat = Metrics.histogram lat_reg "client.latency_seconds" in
  Array.iter
    (fun o ->
      attempts_total := !attempts_total + o.attempts;
      retries_spent := !retries_spent + max 0 (o.attempts - 1);
      (* each retry was provoked by an OVERLOAD answer *)
      shed_events := !shed_events + max 0 (o.attempts - 1);
      (match o.code with
      | Some c ->
        incr completed;
        if c = Proto.OVERLOAD then begin
          incr shed_events;
          incr final_shed
        end;
        if c = Proto.INTERNAL_ERROR then incr errors;
        Metrics.Histogram.observe lat o.latency;
        let k = Proto.string_of_code c in
        Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0)
      | None -> incr clean);
      match o.complaint with
      | Some c when List.length !complaints < 20 -> complaints := c :: !complaints
      | _ -> ())
    outcomes;
  let snap = Metrics.Histogram.snapshot lat in
  let q p = Metrics.Histogram.quantile snap p *. 1000. in
  {
    requests = n;
    completed = !completed;
    clean_closes = !clean;
    by_code =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
      |> List.sort compare;
    retries = !retries_spent;
    unexpected = List.rev !complaints;
    elapsed;
    rps = (if elapsed > 0. then float_of_int !completed /. elapsed else 0.);
    p50_ms = q 0.50;
    p90_ms = q 0.90;
    p99_ms = q 0.99;
    p999_ms = q 0.999;
    shed = !final_shed;
    errors = !errors;
    shed_rate =
      (if !attempts_total > 0 then
         float_of_int !shed_events /. float_of_int !attempts_total
       else 0.);
    latency = snap;
  }

let report_json r =
  J.Obj
    [
      ("requests", J.Int r.requests);
      ("completed", J.Int r.completed);
      ("clean_closes", J.Int r.clean_closes);
      ("codes", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.by_code));
      ("retries", J.Int r.retries);
      ("unexpected", J.List (List.map (fun s -> J.String s) r.unexpected));
      ("elapsed_s", J.Float r.elapsed);
      ("rps", J.Float r.rps);
      ("p50_ms", J.Float r.p50_ms);
      ("p90_ms", J.Float r.p90_ms);
      ("p99_ms", J.Float r.p99_ms);
      ("p999_ms", J.Float r.p999_ms);
      ("shed", J.Int r.shed);
      ("errors", J.Int r.errors);
      ("shed_rate", J.Float r.shed_rate);
      ("latency", Metrics.Histogram.to_json r.latency);
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d requests in %.2fs (%.1f rps), p50 %.2fms p90 %.2fms p99 %.2fms \
     p999 %.2fms@,\
     codes: %a@,\
     clean closes %d, retries %d, shed %d, errors %d, shed rate %.3f%s@]"
    r.requests r.elapsed r.rps r.p50_ms r.p90_ms r.p99_ms r.p999_ms
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (k, v) -> Format.fprintf ppf "%s=%d" k v))
    r.by_code r.clean_closes r.retries r.shed r.errors r.shed_rate
    (match r.unexpected with
    | [] -> ""
    | l -> Printf.sprintf ", %d UNEXPECTED" (List.length l))

(* ------------------------------------------------------------------ *)
(* Server-side view: STATS deltas                                     *)
(* ------------------------------------------------------------------ *)

let member k = function J.Obj fields -> List.assoc_opt k fields | _ -> None

let path doc ks =
  List.fold_left (fun acc k -> Option.bind acc (member k)) (Some doc) ks

let int_at doc ks =
  match path doc ks with
  | Some (J.Int n) -> n
  | Some (J.Float f) -> int_of_float f
  | _ -> 0

let float_at doc ks =
  match path doc ks with
  | Some (J.Float f) -> f
  | Some (J.Int n) -> float_of_int n
  | _ -> 0.

let server_counter doc name = int_at doc [ "metrics"; "counters"; name ]

let server_histogram doc name =
  Option.bind
    (path doc [ "metrics"; "histograms"; name ])
    Metrics.Histogram.of_json

type server_view = {
  window_s : float;
  v_accepted : int;
  v_shed : int;
  v_crashed : int;
  v_timeouts : int;
  v_eofs : int;
  v_by_code : (string * int) list;
  v_cache_hits : int;
  v_cache_misses : int;
  v_hit_ratio : float;
  v_queue_wait : Metrics.Histogram.snapshot option;
  v_solve_ok : Metrics.Histogram.snapshot option;
}

let all_code_names =
  List.map Proto.string_of_code
    [
      Proto.OK;
      Proto.FEASIBLE_BUDGET;
      Proto.INFEASIBLE;
      Proto.PARSE_ERROR;
      Proto.OVERLOAD;
      Proto.SHUTDOWN;
      Proto.INTERNAL_ERROR;
    ]

let format_names = [ "ucp"; "orlib"; "pla"; "kiss" ]

let sum_counters doc names =
  List.fold_left (fun acc n -> acc + server_counter doc n) 0 names

let server_view ~before ~after =
  let d f = f after - f before in
  let dc name = d (fun doc -> server_counter doc name) in
  let hist name =
    match (server_histogram after name, server_histogram before name) with
    | Some a, Some b -> (
      match Metrics.Histogram.delta ~after:a ~before:b with
      | s -> Some s
      | exception Invalid_argument _ -> None)
    | Some a, None -> Some a
    | _ -> None
  in
  let hits =
    d (fun doc ->
        sum_counters doc (List.map (fun f -> "cache.hit." ^ f) format_names))
  in
  let misses =
    d (fun doc ->
        sum_counters doc (List.map (fun f -> "cache.miss." ^ f) format_names))
  in
  {
    window_s = float_at after [ "uptime" ] -. float_at before [ "uptime" ];
    v_accepted = dc "requests.accepted";
    v_shed = dc "requests.shed";
    v_crashed = dc "requests.crashed";
    v_timeouts = dc "requests.timeout";
    v_eofs = dc "requests.eof";
    v_by_code =
      List.filter_map
        (fun c ->
          match dc ("responses." ^ c) with 0 -> None | n -> Some (c, n))
        all_code_names;
    v_cache_hits = hits;
    v_cache_misses = misses;
    v_hit_ratio =
      (if hits + misses > 0 then
         float_of_int hits /. float_of_int (hits + misses)
       else 0.);
    v_queue_wait = hist "queue.wait_seconds";
    v_solve_ok = hist "solve.seconds.ok";
  }

let server_view_json v =
  let hist_field name = function
    | None -> []
    | Some s -> [ (name, Metrics.Histogram.to_json s) ]
  in
  J.Obj
    ([
       ("window_s", J.Float v.window_s);
       ("accepted", J.Int v.v_accepted);
       ("shed", J.Int v.v_shed);
       ("crashed", J.Int v.v_crashed);
       ("read_timeouts", J.Int v.v_timeouts);
       ("eof_closes", J.Int v.v_eofs);
       ("codes", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) v.v_by_code));
       ("cache_hits", J.Int v.v_cache_hits);
       ("cache_misses", J.Int v.v_cache_misses);
       ("cache_hit_ratio", J.Float v.v_hit_ratio);
     ]
    @ hist_field "queue_wait" v.v_queue_wait
    @ hist_field "solve_ok" v.v_solve_ok)

let pp_server_view ppf v =
  let q h p =
    match h with
    | None -> Float.nan
    | Some s -> Metrics.Histogram.quantile s p *. 1000.
  in
  Format.fprintf ppf
    "@[<v>server window %.2fs: accepted %d, shed %d, crashed %d, timeouts \
     %d, eofs %d@,\
     server codes: %a@,\
     cache hits %d misses %d (ratio %.3f)@,\
     queue wait p50 %.3fms p99 %.3fms; solve(ok) p50 %.2fms p99 %.2fms@]"
    v.window_s v.v_accepted v.v_shed v.v_crashed v.v_timeouts v.v_eofs
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (k, n) -> Format.fprintf ppf "%s=%d" k n))
    v.v_by_code v.v_cache_hits v.v_cache_misses v.v_hit_ratio
    (q v.v_queue_wait 0.50) (q v.v_queue_wait 0.99) (q v.v_solve_ok 0.50)
    (q v.v_solve_ok 0.99)

(* ------------------------------------------------------------------ *)
(* Conservation: every accepted request is accounted for exactly once *)
(* ------------------------------------------------------------------ *)

let conservation_errors stats =
  let c name = server_counter stats name in
  let errs = ref [] in
  let check what lhs rhs =
    if lhs <> rhs then
      errs := Printf.sprintf "%s: %d <> %d" what lhs rhs :: !errs
  in
  let responses =
    sum_counters stats (List.map (fun n -> "responses." ^ n) all_code_names)
  in
  check "accepted = sum(responses) + timeouts + eofs" (c "requests.accepted")
    (responses + c "requests.timeout" + c "requests.eof");
  check "shed = responses.OVERLOAD" (c "requests.shed")
    (c "responses.OVERLOAD");
  check "queue-wait samples = accepted - shed - health fastpath"
    (int_at stats [ "metrics"; "histograms"; "queue.wait_seconds"; "count" ])
    (c "requests.accepted" - c "requests.shed" - c "requests.health_fastpath");
  (* the legacy top-level fields must mirror the registry *)
  check "received (legacy) = requests.accepted" (int_at stats [ "received" ])
    (c "requests.accepted");
  check "crashes (legacy) = requests.crashed" (int_at stats [ "crashes" ])
    (c "requests.crashed");
  List.rev !errs
