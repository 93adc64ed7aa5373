(* Trace smoke test: run traced solves over the difficult suite and
   validate the emitted JSON-lines stream against the documented schema —
   every line parses, record types are known, timestamps are monotone,
   span begin/end records balance, and the summary record comes last.

   With `--validate FILE` it instead checks an existing trace file (the
   runtest rule uses this on a trace produced by the ucp_solve CLI), so
   the schema checked here is the schema the shipped binary emits; each
   `--require-span NAME` after it also demands a span of that name. *)

module Telemetry = Scg.Telemetry
module Json = Telemetry.Json

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("trace_smoke: " ^ s); exit 1) fmt

let known_events =
  [
    "span_begin";
    "span_end";
    "step";
    "incumbent";
    "summary";
    (* error-path records: ucp_solve flushes its sinks on load failures
       and caught crashes, and the serve daemon logs isolated per-request
       crashes — all with a well-formed trace line *)
    "error";
    "serve.crash";
    (* one per daemon request when the daemon itself is traced; carries
       the trace id that joins the stream to the access log *)
    "serve.request";
  ]

let float_field r name =
  match Option.bind (Json.member name r) Json.to_float with
  | Some v -> v
  | None -> fail "record %s lacks float field %S" (Json.to_string r) name

let str_field r name =
  match Option.bind (Json.member name r) Json.to_str with
  | Some v -> v
  | None -> fail "record %s lacks string field %S" (Json.to_string r) name

(* span_end gauges: {"name":{"v":sample,"d":delta}, ...}; the GC gauges
   are built into every collector, and the monotone meters (allocation
   counters, ZDD occupancy peaks) must never run backwards *)
let validate_span_gauges ~source ~lineno ~last_peaks r =
  let gauges =
    match Json.member "gauges" r with
    | Some (Json.Obj fields) -> fields
    | Some _ -> fail "%s:%d: span_end \"gauges\" is not an object" source lineno
    | None -> fail "%s:%d: span_end lacks \"gauges\"" source lineno
  in
  let value name g field =
    match Option.bind (Json.member field g) Json.to_float with
    | Some v -> v
    | None -> fail "%s:%d: gauge %S lacks float %S" source lineno name field
  in
  List.iter
    (fun (name, g) ->
      let v = value name g "v" and d = value name g "d" in
      (match name with
      | "gc.minor_words" | "gc.promoted_words" | "gc.major_collections"
      | "zdd.peak_nodes" ->
        if d < 0. then
          fail "%s:%d: monotone gauge %S ran backwards (d = %g)" source lineno
            name d
      | _ -> ());
      if name = "zdd.peak_nodes" then begin
        (match Hashtbl.find_opt last_peaks name with
        | Some prev when v < prev ->
          fail "%s:%d: zdd.peak_nodes fell %g -> %g" source lineno prev v
        | _ -> ());
        Hashtbl.replace last_peaks name v
      end)
    gauges;
  if not (List.mem_assoc "gc.minor_words" gauges) then
    fail "%s:%d: span_end lacks the built-in gc.minor_words gauge" source lineno;
  match
    (List.assoc_opt "zdd.nodes" gauges, List.assoc_opt "zdd.peak_nodes" gauges)
  with
  | Some n, Some p ->
    let nv = value "zdd.nodes" n "v" and pv = value "zdd.peak_nodes" p "v" in
    if nv > pv then
      fail "%s:%d: zdd.nodes %g above zdd.peak_nodes %g" source lineno nv pv
  | _ -> ()

(* summary gauges: {"name":{"v":final,"peak":max-observed}, ...} *)
let validate_summary_gauges ~source ~lineno r =
  match Json.member "gauges" r with
  | Some (Json.Obj fields) ->
    List.iter
      (fun (name, g) ->
        let v =
          match Option.bind (Json.member "v" g) Json.to_float with
          | Some v -> v
          | None -> fail "%s:%d: summary gauge %S lacks \"v\"" source lineno name
        and peak =
          match Option.bind (Json.member "peak" g) Json.to_float with
          | Some v -> v
          | None ->
            fail "%s:%d: summary gauge %S lacks \"peak\"" source lineno name
        in
        if v > peak then
          fail "%s:%d: summary gauge %S final %g above peak %g" source lineno
            name v peak)
      fields
  | Some _ -> fail "%s:%d: summary \"gauges\" is not an object" source lineno
  | None -> fail "%s:%d: summary lacks \"gauges\"" source lineno

let validate_lines ~source lines =
  if lines = [] then fail "%s: empty trace" source;
  let records =
    List.map
      (fun (lineno, l) ->
        match Json.of_string l with
        | Ok r -> (lineno, r)
        | Error e -> fail "%s:%d: unparseable line: %s" source lineno e)
      lines
  in
  let last_t = ref neg_infinity in
  let depth = ref 0 in
  let span_names = ref [] in
  let summaries = ref 0 in
  let last_peaks = Hashtbl.create 4 in
  List.iter
    (fun (lineno, r) ->
      let t = float_field r "t" in
      let ev = str_field r "ev" in
      if not (List.mem ev known_events) then
        fail "%s:%d: unknown record type %S" source lineno ev;
      if t < !last_t then
        fail "%s:%d: non-monotone timestamp %g after %g" source lineno t !last_t;
      last_t := t;
      (match ev with
      | "span_begin" ->
        span_names := str_field r "name" :: !span_names;
        incr depth
      | "span_end" ->
        ignore (str_field r "name");
        ignore (float_field r "dur");
        validate_span_gauges ~source ~lineno ~last_peaks r;
        decr depth;
        if !depth < 0 then fail "%s:%d: span_end without begin" source lineno
      | "step" ->
        ignore (str_field r "phase");
        ignore (float_field r "value");
        ignore (float_field r "best")
      | "incumbent" -> ignore (float_field r "cost")
      | "summary" ->
        incr summaries;
        List.iter
          (fun f ->
            if Json.member f r = None then
              fail "%s:%d: summary lacks %S" source lineno f)
          [ "spans"; "counters"; "events" ];
        validate_summary_gauges ~source ~lineno r
      | _ -> ());
      if !summaries > 0 && ev <> "summary" then
        fail "%s:%d: record after the summary" source lineno)
    records;
  if !depth <> 0 then fail "%s: %d unclosed span(s)" source !depth;
  if !summaries <> 1 then fail "%s: %d summary records (want 1)" source !summaries;
  (List.length records, !span_names)

let validate_file ~require path =
  let ic = open_in path in
  let lines = ref [] and lineno = ref 0 in
  (try
     while true do
       incr lineno;
       lines := (!lineno, input_line ic) :: !lines
     done
   with End_of_file -> close_in ic);
  let n, span_names = validate_lines ~source:path (List.rev !lines) in
  List.iter
    (fun name ->
      if not (List.mem name span_names) then fail "%s: no %S span" path name)
    require;
  Format.printf "trace_smoke: %s ok (%d records)@." path n

(* --stats-json output: one object with solver fields and the aggregated
   telemetry summary *)
let validate_stats path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string (String.trim text) with
  | Error e -> fail "%s: unparseable stats: %s" path e
  | Ok r ->
    if Json.member "solver" r = None then fail "%s: stats lack \"solver\"" path;
    (match Json.member "telemetry" r with
    | None -> fail "%s: stats lack \"telemetry\"" path
    | Some tel ->
      List.iter
        (fun f ->
          if Json.member f tel = None then
            fail "%s: stats telemetry lacks %S" path f)
        [ "elapsed"; "spans"; "counters" ]);
    Format.printf "trace_smoke: %s ok (stats)@." path

(* --validate-access: the daemon's request log is JSON lines, one object
   per finished request, with a fixed field set.  The smoke pipeline
   points this at a log produced by a real ucp_serve under ucp_load, so
   the schema checked here is the schema the shipped daemon writes. *)
let access_verbs = [ "SOLVE"; "PING"; "STATS"; "HEALTH"; "-" ]
let access_formats = [ "ucp"; "orlib"; "pla"; "kiss"; "-" ]
let access_cache = [ "hit"; "miss"; "-" ]

let access_codes =
  [
    "OK"; "FEASIBLE_BUDGET"; "INFEASIBLE"; "PARSE_ERROR"; "OVERLOAD";
    "SHUTDOWN"; "INTERNAL_ERROR";
    (* connection outcomes that never reached a response *)
    "TIMEOUT"; "EOF";
  ]

let validate_access path =
  let ic = open_in path in
  let lines = ref [] and lineno = ref 0 in
  (try
     while true do
       incr lineno;
       lines := (!lineno, input_line ic) :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  if lines = [] then fail "%s: empty access log" path;
  let enum_field r lineno name allowed =
    let v = str_field r name in
    if not (List.mem v allowed) then
      fail "%s:%d: field %S has unknown value %S" path lineno name v;
    v
  in
  List.iter
    (fun (lineno, l) ->
      let r =
        match Json.of_string l with
        | Ok r -> r
        | Error e -> fail "%s:%d: unparseable access line: %s" path lineno e
      in
      ignore (float_field r "t");
      if str_field r "trace" = "" then
        fail "%s:%d: empty trace id" path lineno;
      ignore (enum_field r lineno "verb" access_verbs);
      ignore (enum_field r lineno "format" access_formats);
      ignore (str_field r "id");
      ignore (str_field r "digest");
      ignore (enum_field r lineno "code" access_codes);
      ignore (enum_field r lineno "cache" access_cache);
      List.iter
        (fun f ->
          if float_field r f < 0. then
            fail "%s:%d: negative %S" path lineno f)
        [ "queue_wait_s"; "solve_s"; "total_s" ];
      match Option.bind (Json.member "bytes_in" r) Json.to_float with
      | Some b when b >= 0. -> ()
      | Some _ -> fail "%s:%d: negative bytes_in" path lineno
      | None -> fail "%s:%d: access line lacks bytes_in" path lineno)
    lines;
  Format.printf "trace_smoke: %s ok (%d access records)@." path
    (List.length lines)

let run_suite () =
  let instances = Benchsuite.Registry.difficult () in
  List.iter
    (fun inst ->
      let name = inst.Benchsuite.Registry.name in
      let lines = ref [] and lineno = ref 0 in
      let t =
        Telemetry.create
          ~trace:(fun l ->
            incr lineno;
            lines := (!lineno, l) :: !lines)
          ()
      in
      let m = Benchsuite.Registry.matrix inst in
      let r = Scg.solve ~telemetry:t m in
      Telemetry.close t;
      let n, _ = validate_lines ~source:name (List.rev !lines) in
      (* cross-check the stream against the solver's own accounting *)
      if
        Telemetry.counter t "subgradient.steps"
        <> r.Scg.stats.Scg.Stats.subgradient_steps
      then fail "%s: telemetry step count disagrees with Stats" name;
      if not (Covering.Matrix.covers m r.Scg.solution) then
        fail "%s: solution does not cover" name;
      Format.printf "trace_smoke: %-10s ok (%d records, cost %d)@." name n r.Scg.cost)
    instances

let usage () =
  prerr_endline
    "usage: trace_smoke [--validate FILE [--require-span NAME]... | \
     --validate-stats FILE | --validate-access FILE]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> run_suite ()
  | _ :: "--validate" :: path :: rest ->
    let rec required = function
      | [] -> []
      | "--require-span" :: name :: rest -> name :: required rest
      | _ -> usage ()
    in
    validate_file ~require:(required rest) path
  | [ _; "--validate-stats"; path ] -> validate_stats path
  | [ _; "--validate-access"; path ] -> validate_access path
  | _ -> usage ()
