module Json = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { cname : string; cell : int Atomic.t }

  let make name = { cname = name; cell = Atomic.make 0 }
  let incr c = Atomic.incr c.cell
  let add c n = ignore (Atomic.fetch_and_add c.cell n)
  let get c = Atomic.get c.cell
  let name c = c.cname
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  type t = {
    hname : string;
    bounds : float array;
    cells : int Atomic.t array;  (* length = bounds + 1 (overflow) *)
    (* the float sum lives in an atomic box: CAS-retry against the
       physically-read old box, the standard lock-free accumulator *)
    sum : float Atomic.t;
  }

  let log_spaced ~from ~upto ~per_decade =
    let step = 10. ** (1. /. float_of_int per_decade) in
    let rec go acc v =
      if v > upto *. 1.0001 then List.rev acc else go (v :: acc) (v *. step)
    in
    Array.of_list (go [] from)

  let default_latency_bounds = log_spaced ~from:1e-4 ~upto:100. ~per_decade:4

  let default_size_bounds =
    Array.init 12 (fun i -> 64. *. (4. ** float_of_int i))

  let make ?(bounds = default_latency_bounds) name =
    if Array.length bounds = 0 then
      invalid_arg "Metrics.Histogram: empty bounds";
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Metrics.Histogram: bounds must increase")
      bounds;
    {
      hname = name;
      bounds = Array.copy bounds;
      cells = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
      sum = Atomic.make 0.;
    }

  let name h = h.hname

  (* index of the first bound >= v, or the overflow bucket *)
  let bucket_of bounds v =
    let n = Array.length bounds in
    if v <= bounds.(0) then 0
    else if v > bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      (* invariant: bounds.(lo) < v <= bounds.(hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds.(mid) then hi := mid else lo := mid
      done;
      !hi
    end

  let rec add_sum cell v =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (old +. v)) then add_sum cell v

  let observe h v =
    let v = if Float.is_nan v then 0. else v in
    Atomic.incr h.cells.(bucket_of h.bounds v);
    add_sum h.sum v

  type snapshot = {
    bounds : float array;
    counts : int array;
    count : int;
    sum : float;
  }

  let snapshot h =
    let counts = Array.map Atomic.get h.cells in
    {
      bounds = h.bounds;
      counts;
      count = Array.fold_left ( + ) 0 counts;
      sum = Atomic.get h.sum;
    }

  let same_bounds a b =
    Array.length a.bounds = Array.length b.bounds
    && Array.for_all2 (fun x y -> Float.equal x y) a.bounds b.bounds

  let merge a b =
    if not (same_bounds a b) then
      invalid_arg "Metrics.Histogram.merge: bounds differ";
    let counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts in
    {
      bounds = a.bounds;
      counts;
      count = Array.fold_left ( + ) 0 counts;
      sum = a.sum +. b.sum;
    }

  let delta ~after ~before =
    if not (same_bounds after before) then
      invalid_arg "Metrics.Histogram.delta: bounds differ";
    let counts =
      Array.mapi (fun i c -> max 0 (c - before.counts.(i))) after.counts
    in
    {
      bounds = after.bounds;
      counts;
      count = Array.fold_left ( + ) 0 counts;
      sum = Float.max 0. (after.sum -. before.sum);
    }

  let quantile s q =
    if s.count = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = q *. float_of_int s.count in
      let n = Array.length s.bounds in
      let rec walk i cum =
        if i > n then s.bounds.(n - 1)
        else
          let here = s.counts.(i) in
          let cum' = cum +. float_of_int here in
          if cum' >= rank && here > 0 then
            if i >= n then s.bounds.(n - 1)
            else
              let lo = if i = 0 then 0. else s.bounds.(i - 1) in
              let hi = s.bounds.(i) in
              lo +. ((hi -. lo) *. ((rank -. cum) /. float_of_int here))
          else walk (i + 1) cum'
      in
      walk 0 0.
    end

  let to_json s =
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("sum", Json.Float s.sum);
        ("p50", Json.Float (quantile s 0.50));
        ("p90", Json.Float (quantile s 0.90));
        ("p99", Json.Float (quantile s 0.99));
        ("p999", Json.Float (quantile s 0.999));
        ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) s.bounds)));
        ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) s.counts)));
      ]

  let of_json j =
    let floats = function
      | Json.List l ->
        let a = List.filter_map Json.to_float l in
        if List.length a = List.length l then Some (Array.of_list a) else None
      | _ -> None
    in
    let ints = function
      | Json.List l ->
        let a = List.filter_map Json.to_int l in
        if List.length a = List.length l then Some (Array.of_list a) else None
      | _ -> None
    in
    match
      ( Option.bind (Json.member "bounds" j) floats,
        Option.bind (Json.member "counts" j) ints,
        Option.bind (Json.member "sum" j) Json.to_float )
    with
    | Some bounds, Some counts, Some sum
      when Array.length counts = Array.length bounds + 1
           && Array.length bounds > 0 ->
      Some { bounds; counts; count = Array.fold_left ( + ) 0 counts; sum }
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

type metric =
  | M_counter of Counter.t
  | M_histogram of Histogram.t
  | M_gauge of (unit -> float)

type t = (string * metric) list Atomic.t

let create () : t = Atomic.make []

(* find-or-create with CAS-retry: on a registration race the loser
   re-reads and finds the winner's metric *)
let rec intern t name make =
  let current = Atomic.get t in
  match List.assoc_opt name current with
  | Some m -> m
  | None ->
    let m = make () in
    if Atomic.compare_and_set t current (current @ [ (name, m) ]) then m
    else intern t name make

let counter t name =
  match intern t name (fun () -> M_counter (Counter.make name)) with
  | M_counter c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")

let histogram ?bounds t name =
  match intern t name (fun () -> M_histogram (Histogram.make ?bounds name)) with
  | M_histogram h -> h
  | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")

let gauge t name sample = ignore (intern t name (fun () -> M_gauge sample))

let register_telemetry_probes t =
  List.iter (fun (name, sample) -> gauge t name sample) (Telemetry.probes ())

let snapshot_json t =
  let metrics = Atomic.get t in
  let pick f = List.filter_map f metrics in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (pick (function
            | name, M_counter c -> Some (name, Json.Int (Counter.get c))
            | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (function
            | name, M_gauge sample ->
              let v = try sample () with _ -> Float.nan in
              Some (name, Json.Float v)
            | _ -> None)) );
      ( "histograms",
        Json.Obj
          (pick (function
            | name, M_histogram h ->
              Some (name, Histogram.to_json (Histogram.snapshot h))
            | _ -> None)) );
    ]
