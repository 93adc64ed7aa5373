module Json = Jsont

type gauge = { gauge : string; value : float; delta : float }

type span = {
  name : string;
  start : float;
  stop : float;
  depth : int;
  gauges : gauge list;
}

(* ------------------------------------------------------------------ *)
(* Gauge probes                                                       *)
(* ------------------------------------------------------------------ *)

(* The GC probes are built in; further in-process gauges (the ZDD
   unique-table ones live in Scg, which links both worlds) register here
   before any collector is created — the registry is snapshot by
   [create], so registration is a link-time concern, not a per-run one.
   The registry is an [Atomic] over an immutable list so that collectors
   created on other domains (a daemon's request workers) can snapshot it
   without racing a registration (registration itself is idempotent
   CAS-retry). *)
let probe_registry : (string * (unit -> float)) list Atomic.t = Atomic.make []

let rec register_probe name sample =
  let current = Atomic.get probe_registry in
  if not (List.mem_assoc name current) then
    if not (Atomic.compare_and_set probe_registry current (current @ [ (name, sample) ]))
    then register_probe name sample

let gc_probe_names = [| "gc.minor_words"; "gc.promoted_words"; "gc.major_collections" |]

(* the same meters as individually-sampleable closures, for consumers
   (the Metrics registry) that sample one gauge at a time *)
let probes () =
  [
    ("gc.minor_words", fun () -> Gc.minor_words ());
    ("gc.promoted_words", fun () -> (Gc.quick_stat ()).Gc.promoted_words);
    ( "gc.major_collections",
      fun () -> float_of_int (Gc.quick_stat ()).Gc.major_collections );
  ]
  @ Atomic.get probe_registry

let probes_snapshot () =
  let registered = Atomic.get probe_registry in
  let names =
    Array.append gc_probe_names (Array.of_list (List.map fst registered))
  in
  let samplers = Array.of_list (List.map snd registered) in
  let sample () =
    (* quick_stat's minor_words is only refreshed at collections;
       Gc.minor_words reads the live allocation pointer *)
    let s = Gc.quick_stat () in
    Array.append
      [|
        Gc.minor_words (); s.Gc.promoted_words;
        float_of_int s.Gc.major_collections;
      |]
      (Array.map (fun f -> f ()) samplers)
  in
  (names, sample)

type active = {
  clock : unit -> float;
  t0 : float;
  sink : (string -> unit) option;
  flush : unit -> unit;
  mutable depth : int;
  mutable spans_rev : span list;
  counters : (string, int) Hashtbl.t;
  event_counts : (string, int) Hashtbl.t;
  step_counts : (string, int) Hashtbl.t;
  step_best : (string, float) Hashtbl.t;
  gauge_names : string array;
  gauge_sample : unit -> float array;
  gauge_last : float array;
  gauge_peak : float array;
  mutable closed : bool;
}

type t = active option

let null : t = None

let observe_gauges a g =
  Array.iteri
    (fun i v ->
      a.gauge_last.(i) <- v;
      if v > a.gauge_peak.(i) then a.gauge_peak.(i) <- v)
    g

let create ?(clock = Budget.Clock.now) ?trace () =
  let gauge_names, gauge_sample = probes_snapshot () in
  let g0 = gauge_sample () in
  Some
    {
      clock;
      t0 = clock ();
      sink = trace;
      flush = (fun () -> ());
      depth = 0;
      spans_rev = [];
      counters = Hashtbl.create 32;
      event_counts = Hashtbl.create 16;
      step_counts = Hashtbl.create 4;
      step_best = Hashtbl.create 4;
      gauge_names;
      gauge_sample;
      gauge_last = Array.copy g0;
      gauge_peak = Array.copy g0;
      closed = false;
    }

let with_channel oc =
  match create ~trace:(fun line -> output_string oc line; output_char oc '\n') () with
  | Some a -> Some { a with flush = (fun () -> flush oc) }
  | None -> assert false

let enabled = function None -> false | Some _ -> true

let now a = a.clock () -. a.t0

let elapsed = function None -> 0. | Some a -> now a

let emit a record =
  match a.sink with
  | None -> ()
  | Some sink -> sink (Json.to_string (Json.Obj record))

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let span t ?index name f =
  match t with
  | None -> f ()
  | Some a ->
    let name =
      match index with None -> name | Some k -> Printf.sprintf "%s-%d" name k
    in
    let g0 = a.gauge_sample () in
    observe_gauges a g0;
    let start = now a in
    let depth = a.depth in
    a.depth <- depth + 1;
    emit a
      [ ("t", Json.Float start); ("ev", Json.String "span_begin");
        ("name", Json.String name); ("depth", Json.Int depth) ];
    let finish () =
      let g1 = a.gauge_sample () in
      observe_gauges a g1;
      let stop = now a in
      a.depth <- depth;
      let gauges =
        Array.to_list
          (Array.mapi
             (fun i gname ->
               { gauge = gname; value = g1.(i); delta = g1.(i) -. g0.(i) })
             a.gauge_names)
      in
      a.spans_rev <- { name; start; stop; depth; gauges } :: a.spans_rev;
      emit a
        [ ("t", Json.Float stop); ("ev", Json.String "span_end");
          ("name", Json.String name); ("depth", Json.Int depth);
          ("dur", Json.Float (stop -. start));
          ( "gauges",
            Json.Obj
              (List.map
                 (fun g ->
                   ( g.gauge,
                     Json.Obj
                       [ ("v", Json.Float g.value); ("d", Json.Float g.delta) ]
                   ))
                 gauges) ) ]
    in
    Fun.protect ~finally:finish f

let spans = function None -> [] | Some a -> List.rev a.spans_rev

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let add t name n =
  match t with
  | None -> ()
  | Some a ->
    Hashtbl.replace a.counters name
      (n + Option.value ~default:0 (Hashtbl.find_opt a.counters name))

let incr t name = add t name 1

let counter t name =
  match t with
  | None -> 0
  | Some a -> Option.value ~default:0 (Hashtbl.find_opt a.counters name)

let counters = function
  | None -> []
  | Some a ->
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) a.counters []
    |> List.sort Stdlib.compare

(* ------------------------------------------------------------------ *)
(* Events and the convergence trace                                   *)
(* ------------------------------------------------------------------ *)

let bump tbl name =
  Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let event t name payload =
  match t with
  | None -> ()
  | Some a ->
    bump a.event_counts name;
    emit a
      (("t", Json.Float (now a)) :: ("ev", Json.String name) :: payload)

let step t ~phase ~component ~step ~value ~best =
  match t with
  | None -> ()
  | Some a ->
    bump a.step_counts phase;
    Hashtbl.replace a.step_best phase best;
    emit a
      [ ("t", Json.Float (now a)); ("ev", Json.String "step");
        ("phase", Json.String phase); ("component", Json.Int component);
        ("step", Json.Int step); ("value", Json.Float value);
        ("best", Json.Float best) ]

let last_best t ~phase =
  match t with None -> None | Some a -> Hashtbl.find_opt a.step_best phase

(* ------------------------------------------------------------------ *)
(* Summary                                                            *)
(* ------------------------------------------------------------------ *)

let summary t =
  match t with
  | None -> Json.Obj []
  | Some a ->
    observe_gauges a (a.gauge_sample ());
    let span_totals = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let count, seconds =
          Option.value ~default:(0, 0.) (Hashtbl.find_opt span_totals s.name)
        in
        Hashtbl.replace span_totals s.name (count + 1, seconds +. (s.stop -. s.start)))
      a.spans_rev;
    let sorted_fields tbl f =
      Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
      |> List.sort Stdlib.compare
    in
    let step_fields =
      Hashtbl.fold
        (fun phase n acc ->
          let fields =
            ("count", Json.Int n)
            ::
            (match Hashtbl.find_opt a.step_best phase with
            | Some b -> [ ("last_best", Json.Float b) ]
            | None -> [])
          in
          (phase, Json.Obj fields) :: acc)
        a.step_counts []
      |> List.sort Stdlib.compare
    in
    Json.Obj
      [
        ("elapsed", Json.Float (now a));
        ( "spans",
          Json.Obj
            (sorted_fields span_totals (fun (count, seconds) ->
                 Json.Obj [ ("count", Json.Int count); ("seconds", Json.Float seconds) ]))
        );
        ("counters", Json.Obj (sorted_fields a.counters (fun v -> Json.Int v)));
        ("events", Json.Obj (sorted_fields a.event_counts (fun v -> Json.Int v)));
        ("steps", Json.Obj step_fields);
        ( "gauges",
          Json.Obj
            (Array.to_list
               (Array.mapi
                  (fun i name ->
                    ( name,
                      Json.Obj
                        [
                          ("v", Json.Float a.gauge_last.(i));
                          ("peak", Json.Float a.gauge_peak.(i));
                        ] ))
                  a.gauge_names)) );
      ]

let close t =
  match t with
  | None -> ()
  | Some a ->
    if not a.closed then begin
      a.closed <- true;
      (match summary t with
      | Json.Obj fields ->
        emit a (("t", Json.Float (now a)) :: ("ev", Json.String "summary") :: fields)
      | _ -> ());
      a.flush ()
    end

(* ------------------------------------------------------------------ *)
(* Merging collectors                                                  *)
(* ------------------------------------------------------------------ *)

let merge t child =
  match (t, child) with
  | None, _ | _, None -> ()
  | Some a, Some c ->
    Hashtbl.iter
      (fun name v ->
        Hashtbl.replace a.counters name
          (v + Option.value ~default:0 (Hashtbl.find_opt a.counters name)))
      c.counters;
    Hashtbl.iter
      (fun name v ->
        Hashtbl.replace a.event_counts name
          (v + Option.value ~default:0 (Hashtbl.find_opt a.event_counts name)))
      c.event_counts;
    Hashtbl.iter
      (fun phase n ->
        Hashtbl.replace a.step_counts phase
          (n + Option.value ~default:0 (Hashtbl.find_opt a.step_counts phase)))
      c.step_counts;
    (* the child is the later run: its "last best" wins *)
    Hashtbl.iter (fun phase b -> Hashtbl.replace a.step_best phase b) c.step_best;
    a.spans_rev <- c.spans_rev @ a.spans_rev;
    (* fold gauge peaks by name: the registries of both collectors are
       snapshots of the same atomic list, but match names defensively *)
    Array.iteri
      (fun ci cname ->
        Array.iteri
          (fun ai aname ->
            if String.equal aname cname && c.gauge_peak.(ci) > a.gauge_peak.(ai)
            then a.gauge_peak.(ai) <- c.gauge_peak.(ci))
          a.gauge_names)
      c.gauge_names
