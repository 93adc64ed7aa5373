(** The [ucp_serve] wire protocol: line-delimited headers with a
    length-prefixed payload, over a Unix-domain stream socket.

    One request, one response, one connection.  A request is

    {v
      UCP/1 <verb> <format> <length>\n
      <key> <value>\n            (zero or more option lines)
      \n                         (blank line ends the headers)
      <length bytes of payload>
    v}

    and a response mirrors it:

    {v
      UCP/1 <code> <length>\n
      <key> <value>\n
      \n
      <length bytes of body>
    v}

    The response body of a successful solve is one JSON object (cost,
    lower bound, status, solution columns, seconds); error bodies are
    plain text.  Where a response code shares its meaning with a
    [ucp_solve] outcome, DESIGN.md §14 gives that exit code beside it.
    [ucp_load] does not exit with response codes: it exits 0 when every
    request got the code it expected and 1 otherwise.

    Framing errors ({!Wire_error}) are the {e transport}-level analogue
    of a parse error: the daemon answers [PARSE_ERROR] (best effort) and
    closes.  All reads honour the socket receive timeout; a stalled or
    half-open peer surfaces as {!Timeout}. *)

type format = Ucp | Orlib | Pla | Kiss

val string_of_format : format -> string
val format_of_string : string -> format option

type verb =
  | Solve
  | Ping
  | Stats
      (** one JSON snapshot of the daemon's metrics registry: counters,
          gauges, histograms with p50/p90/p99/p999 plus raw buckets *)
  | Health
      (** cheap liveness/readiness verdict.  Answered even when the
          admission queue is full (the acceptor recognises a HEALTH
          frame on the shed path), so monitoring is never shed. *)

(** Response codes.  Constructors are spelled exactly as they appear on
    the wire. *)
type code =
  | OK  (** solved; body is the result object *)
  | FEASIBLE_BUDGET
      (** a per-request budget tripped; the body still carries the best
          feasible answer and its valid lower bound *)
  | INFEASIBLE  (** some row of the instance has no covering column *)
  | PARSE_ERROR  (** malformed payload {e or} malformed framing *)
  | OVERLOAD
      (** admission queue full — request shed, not queued; the
          [retry-after] header hints when to come back *)
  | SHUTDOWN  (** daemon is draining; retry against a fresh instance *)
  | INTERNAL_ERROR
      (** an exception escaped the solve; the daemon survives, the
          request does not *)

val string_of_code : code -> string
val code_of_string : string -> code option

type request = {
  verb : verb;
  format : format option;  (** required for [Solve] *)
  length : int;  (** payload bytes *)
  id : string option;  (** client correlation id, echoed back *)
  timeout : float option;  (** wall-clock budget, clamped by the server *)
  nodes : int option;  (** node budget, clamped *)
  steps : int option;  (** iteration budget, clamped *)
  fault_after : int option;  (** fault injection (testing; server-gated) *)
  fault_site : string option;
  fault_raise : bool;
      (** inject a {e raising} fault (crash-isolation testing) instead
          of a cooperative trip *)
}

val solve_request :
  ?id:string ->
  ?timeout:float ->
  ?nodes:int ->
  ?steps:int ->
  ?fault_after:int ->
  ?fault_site:string ->
  ?fault_raise:bool ->
  format:format ->
  length:int ->
  unit ->
  request

val control_request : verb -> request
(** A [Ping], [Stats] or [Health] request (no format, no payload). *)

val encode_request : request -> payload:string -> string
(** The full wire bytes; [payload] must be [request.length] long. *)

val encode_response :
  code:code -> headers:(string * string) list -> body:string -> string

(** {1 Reading} *)

exception Wire_error of string
(** Malformed framing: junk request line, unknown verb/format/code, a
    non-numeric, negative or over-limit length prefix, an over-long
    header line, or a malformed option value. *)

exception Timeout
(** The socket receive timeout expired mid-read (slow or half-open
    peer).  [End_of_file] is raised on a clean mid-frame disconnect. *)

type reader

val reader : Unix.file_descr -> reader

val read_request : ?max_payload:int -> reader -> request * string
(** Parse one request and its payload.  [max_payload] (default
    [16 MiB]) rejects oversized length prefixes {e before} any payload
    byte is read.
    @raise Wire_error on malformed framing
    @raise Timeout on a receive-timeout expiry
    @raise End_of_file on a disconnect mid-frame (or an empty frame) *)

val read_response : reader -> code * (string * string) list * string
(** Parse one response: code, headers in wire order, body. *)

val header : string -> (string * string) list -> string option

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string.
    @raise Unix.Unix_error as [Unix.write] (EPIPE included — callers
    decide whether a dead peer matters). *)
