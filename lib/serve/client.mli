(** Client side of the {!Proto} wire protocol: one connection per
    request, with retry/backoff on [OVERLOAD].

    This is what [ucp_load], the serve benchmark and the serve tests
    speak; it is deliberately synchronous — concurrency lives in the
    caller ({!Load} uses a thread per lane). *)

type response = {
  code : Proto.code;
  headers : (string * string) list;
  body : string;
  attempts : int;  (** 1 + the number of [OVERLOAD] retries taken *)
}

val request :
  ?retries:int ->
  ?backoff:float ->
  ?read_timeout:float ->
  socket:string ->
  Proto.request ->
  payload:string ->
  response
(** Send one request, read one response.  On [OVERLOAD] the call sleeps
    — the server's [retry-after] hint if present, else [backoff]
    (default 0.05 s), doubled per attempt — and reconnects, up to
    [retries] (default 0: shedding is surfaced, not hidden; the load
    generator opts in).  The last response is returned whatever its
    code.
    @raise Unix.Unix_error if the daemon is unreachable
    @raise Proto.Wire_error / [End_of_file] on a garbled or truncated
    response *)

val retrying :
  ?retries:int ->
  ?backoff:float ->
  overloaded:('a -> (string * string) list option) ->
  (unit -> 'a) ->
  'a * int
(** [retrying ~overloaded attempt] runs [attempt] until [overloaded]
    finds no [OVERLOAD] in its answer ([overloaded] returns that
    answer's headers when it finds one), at most [retries] (default 0)
    more times, sleeping between tries exactly as {!request} does.
    Returns the last answer and the number of attempts.  {!request}
    retries through it; the load generator retries {!send_raw} through
    it. *)

val ping : socket:string -> bool
(** [true] iff a [PING] round-trips with [OK]. *)

val stats : socket:string -> Telemetry.Json.t
(** The daemon's [STATS] body, parsed.
    @raise Proto.Wire_error if the body is not valid JSON. *)

val health : socket:string -> Telemetry.Json.t
(** The daemon's [HEALTH] body, parsed.  Answered even when the
    admission queue is full (the acceptor's fast path), so it is the
    probe monitoring should use.
    @raise Proto.Wire_error if the body is not valid JSON. *)

val wait_ready : ?attempts:int -> ?delay:float -> socket:string -> unit -> bool
(** Poll {!ping} until it succeeds (true) or [attempts] (default 50)
    spaced [delay] (default 0.1 s) are exhausted (false) — the "daemon
    just forked, is the socket up yet?" helper. *)

val send_raw :
  ?read_timeout:float ->
  socket:string ->
  string ->
  (Proto.code * (string * string) list * string) option
(** Write raw bytes — possibly malformed on purpose — half-close the
    sending side, and try to read one response.  [None] when the daemon
    closed without a frame (the acceptable alternative to [PARSE_ERROR]
    for garbage input).
    @raise Unix.Unix_error if the daemon is unreachable *)
