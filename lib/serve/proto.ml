type format = Ucp | Orlib | Pla | Kiss

let string_of_format = function
  | Ucp -> "ucp"
  | Orlib -> "orlib"
  | Pla -> "pla"
  | Kiss -> "kiss"

let format_of_string = function
  | "ucp" -> Some Ucp
  | "orlib" -> Some Orlib
  | "pla" -> Some Pla
  | "kiss" -> Some Kiss
  | _ -> None

type verb = Solve | Ping | Stats | Health

let string_of_verb = function
  | Solve -> "SOLVE"
  | Ping -> "PING"
  | Stats -> "STATS"
  | Health -> "HEALTH"

let verb_of_string = function
  | "SOLVE" -> Some Solve
  | "PING" -> Some Ping
  | "STATS" -> Some Stats
  | "HEALTH" -> Some Health
  | _ -> None

type code =
  | OK
  | FEASIBLE_BUDGET
  | INFEASIBLE
  | PARSE_ERROR
  | OVERLOAD
  | SHUTDOWN
  | INTERNAL_ERROR

let string_of_code = function
  | OK -> "OK"
  | FEASIBLE_BUDGET -> "FEASIBLE_BUDGET"
  | INFEASIBLE -> "INFEASIBLE"
  | PARSE_ERROR -> "PARSE_ERROR"
  | OVERLOAD -> "OVERLOAD"
  | SHUTDOWN -> "SHUTDOWN"
  | INTERNAL_ERROR -> "INTERNAL_ERROR"

let all_codes =
  [ OK; FEASIBLE_BUDGET; INFEASIBLE; PARSE_ERROR; OVERLOAD; SHUTDOWN; INTERNAL_ERROR ]

let code_of_string s = List.find_opt (fun c -> string_of_code c = s) all_codes

type request = {
  verb : verb;
  format : format option;
  length : int;
  id : string option;
  timeout : float option;
  nodes : int option;
  steps : int option;
  fault_after : int option;
  fault_site : string option;
  fault_raise : bool;
}

let solve_request ?id ?timeout ?nodes ?steps ?fault_after ?fault_site
    ?(fault_raise = false) ~format ~length () =
  {
    verb = Solve;
    format = Some format;
    length;
    id;
    timeout;
    nodes;
    steps;
    fault_after;
    fault_site;
    fault_raise;
  }

let control_request verb =
  {
    verb;
    format = None;
    length = 0;
    id = None;
    timeout = None;
    nodes = None;
    steps = None;
    fault_after = None;
    fault_site = None;
    fault_raise = false;
  }

let magic = "UCP/1"

let encode_request r ~payload =
  if String.length payload <> r.length then
    invalid_arg "Proto.encode_request: payload length mismatch";
  let b = Buffer.create (256 + r.length) in
  Buffer.add_string b
    (Printf.sprintf "%s %s %s %d\n" magic (string_of_verb r.verb)
       (match r.format with Some f -> string_of_format f | None -> "-")
       r.length);
  let hdr k v = Buffer.add_string b (Printf.sprintf "%s %s\n" k v) in
  Option.iter (hdr "id") r.id;
  Option.iter (fun t -> hdr "timeout" (Printf.sprintf "%g" t)) r.timeout;
  Option.iter (fun n -> hdr "nodes" (string_of_int n)) r.nodes;
  Option.iter (fun n -> hdr "steps" (string_of_int n)) r.steps;
  Option.iter (fun n -> hdr "fault-after" (string_of_int n)) r.fault_after;
  Option.iter (hdr "fault-site") r.fault_site;
  if r.fault_raise then hdr "fault-raise" "1";
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.contents b

let encode_response ~code ~headers ~body =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b
    (Printf.sprintf "%s %s %d\n" magic (string_of_code code) (String.length body));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s %s\n" k v))
    headers;
  Buffer.add_char b '\n';
  Buffer.add_string b body;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)
(* ------------------------------------------------------------------ *)

exception Wire_error of string
exception Timeout

let max_line = 4096
let max_headers = 64
let default_max_payload = 16 * 1024 * 1024

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

(* one refill; 0 on EOF.  EINTR retries; the receive timeout and a
   reset peer become typed conditions rather than stray exceptions *)
let rec refill r =
  match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
  | 0 -> false
  | n ->
    r.pos <- 0;
    r.len <- n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    raise Timeout
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let read_line r =
  let b = Buffer.create 64 in
  let rec go () =
    if r.pos >= r.len && not (refill r) then
      if Buffer.length b = 0 then raise End_of_file
      else raise (Wire_error "truncated header line (disconnect before newline)")
    else begin
      let c = Bytes.get r.buf r.pos in
      r.pos <- r.pos + 1;
      if c = '\n' then Buffer.contents b
      else begin
        if Buffer.length b >= max_line then raise (Wire_error "header line too long");
        Buffer.add_char b c;
        go ()
      end
    end
  in
  go ()

let read_exact r n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.pos >= r.len && not (refill r) then raise End_of_file;
    let take = min (n - !filled) (r.len - r.pos) in
    Bytes.blit r.buf r.pos out !filled take;
    r.pos <- r.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let int_header name v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> raise (Wire_error (Printf.sprintf "header %s: not an integer: %s" name v))

let float_header name v =
  match float_of_string_opt v with
  | Some f when f = f (* not nan *) -> f
  | _ -> raise (Wire_error (Printf.sprintf "header %s: not a number: %s" name v))

(* headers up to the blank line; unknown keys are ignored for forward
   compatibility, malformed values are wire errors *)
let read_headers r =
  let rec go acc n =
    if n > max_headers then raise (Wire_error "too many header lines");
    match read_line r with
    | "" -> List.rev acc
    | line ->
      let k, v =
        match String.index_opt line ' ' with
        | Some i ->
          (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
        | None -> (line, "")
      in
      go ((k, v) :: acc) (n + 1)
  in
  go [] 0

let header k headers = List.assoc_opt k headers

let read_request ?(max_payload = default_max_payload) r =
  let line = read_line r in
  let verb, fmt, length =
    match split_words line with
    | [ m; verb; fmt; len ] when m = magic ->
      let verb =
        match verb_of_string verb with
        | Some v -> v
        | None -> raise (Wire_error (Printf.sprintf "unknown verb %S" verb))
      in
      let fmt =
        match fmt with
        | "-" -> None
        | f -> (
          match format_of_string f with
          | Some f -> Some f
          | None -> raise (Wire_error (Printf.sprintf "unknown format tag %S" f)))
      in
      let length =
        match int_of_string_opt len with
        | Some n when n >= 0 -> n
        | Some _ -> raise (Wire_error "negative payload length")
        | None -> raise (Wire_error (Printf.sprintf "bad payload length %S" len))
      in
      (verb, fmt, length)
    | _ -> raise (Wire_error (Printf.sprintf "bad request line %S" line))
  in
  if length > max_payload then
    raise
      (Wire_error
         (Printf.sprintf "payload length %d exceeds the %d-byte limit" length
            max_payload));
  if verb = Solve && fmt = None then
    raise (Wire_error "SOLVE requires a format tag");
  let headers = read_headers r in
  let req =
    {
      verb;
      format = fmt;
      length;
      id = header "id" headers;
      timeout = Option.map (float_header "timeout") (header "timeout" headers);
      nodes = Option.map (int_header "nodes") (header "nodes" headers);
      steps = Option.map (int_header "steps" ) (header "steps" headers);
      fault_after =
        Option.map (int_header "fault-after") (header "fault-after" headers);
      fault_site = header "fault-site" headers;
      fault_raise = header "fault-raise" headers <> None;
    }
  in
  let payload = read_exact r length in
  (req, payload)

let read_response r =
  let line = read_line r in
  match split_words line with
  | [ m; code; len ] when m = magic ->
    let code =
      match code_of_string code with
      | Some c -> c
      | None -> raise (Wire_error (Printf.sprintf "unknown response code %S" code))
    in
    let length =
      match int_of_string_opt len with
      | Some n when n >= 0 -> n
      | _ -> raise (Wire_error (Printf.sprintf "bad body length %S" len))
    in
    let headers = read_headers r in
    let body = read_exact r length in
    (code, headers, body)
  | _ -> raise (Wire_error (Printf.sprintf "bad response line %S" line))

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let written =
        try Unix.write_substring fd s off (n - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + written)
  in
  go 0
