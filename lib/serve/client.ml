type response = {
  code : Proto.code;
  headers : (string * string) list;
  body : string;
  attempts : int;
}

let connect ?(read_timeout = 60.0) socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout
   with Unix.Unix_error _ -> ());
  fd

let with_conn ?read_timeout socket f =
  let fd = connect ?read_timeout socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let once ?read_timeout ~socket req ~payload =
  with_conn ?read_timeout socket (fun fd ->
      (try Proto.write_all fd (Proto.encode_request req ~payload)
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
         (* a shedding daemon answers OVERLOAD and closes without
            reading the request; the response is already in flight *)
         ());
      Proto.read_response (Proto.reader fd))

let retrying ?(retries = 0) ?(backoff = 0.05) ~overloaded attempt =
  let rec go n pause =
    let answer = attempt () in
    match overloaded answer with
    | Some headers when n <= retries ->
      let pause =
        match Option.bind (Proto.header "retry-after" headers) float_of_string_opt
        with
        | Some hint when hint > 0. -> Float.max hint pause
        | _ -> pause
      in
      Thread.delay pause;
      go (n + 1) (pause *. 2.)
    | _ -> (answer, n)
  in
  go 1 backoff

let request ?retries ?backoff ?read_timeout ~socket req ~payload =
  let (code, headers, body), attempts =
    retrying ?retries ?backoff
      ~overloaded:(fun (code, headers, _) ->
        if code = Proto.OVERLOAD then Some headers else None)
      (fun () -> once ?read_timeout ~socket req ~payload)
  in
  { code; headers; body; attempts }

let ping ~socket =
  match once ~socket (Proto.control_request Proto.Ping) ~payload:"" with
  | Proto.OK, _, _ -> true
  | _ -> false
  | exception (Unix.Unix_error _ | Proto.Wire_error _ | End_of_file | Proto.Timeout)
    ->
    false

let stats ~socket =
  let code, _, body = once ~socket (Proto.control_request Proto.Stats) ~payload:"" in
  if code <> Proto.OK then
    raise (Proto.Wire_error ("STATS answered " ^ Proto.string_of_code code));
  match Telemetry.Json.of_string body with
  | Ok j -> j
  | Error e -> raise (Proto.Wire_error ("STATS body is not valid JSON: " ^ e))

let health ~socket =
  let code, _, body =
    once ~socket (Proto.control_request Proto.Health) ~payload:""
  in
  if code <> Proto.OK then
    raise (Proto.Wire_error ("HEALTH answered " ^ Proto.string_of_code code));
  match Telemetry.Json.of_string body with
  | Ok j -> j
  | Error e -> raise (Proto.Wire_error ("HEALTH body is not valid JSON: " ^ e))

let wait_ready ?(attempts = 50) ?(delay = 0.1) ~socket () =
  let rec go n =
    if n <= 0 then false
    else if ping ~socket then true
    else begin
      Thread.delay delay;
      go (n - 1)
    end
  in
  go attempts

let send_raw ?read_timeout ~socket bytes =
  with_conn ?read_timeout socket (fun fd ->
      (try Proto.write_all fd bytes
       with Unix.Unix_error (Unix.EPIPE, _, _) ->
         (* the daemon may already have rejected the frame and closed;
            whatever answer is in flight still gets read below *)
         ());
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      match Proto.read_response (Proto.reader fd) with
      | resp -> Some resp
      | exception (End_of_file | Proto.Wire_error _ | Proto.Timeout) -> None
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None)
