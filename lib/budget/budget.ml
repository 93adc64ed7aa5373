module Clock = Clock

type site =
  | Implicit_reduce
  | Explicit_reduce
  | Subgradient
  | Dual_ascent
  | Exact_bb
  | Espresso_loop
  | Parse

let all_sites =
  [
    Implicit_reduce;
    Explicit_reduce;
    Subgradient;
    Dual_ascent;
    Exact_bb;
    Espresso_loop;
    Parse;
  ]

let string_of_site = function
  | Implicit_reduce -> "implicit-reduce"
  | Explicit_reduce -> "explicit-reduce"
  | Subgradient -> "subgradient"
  | Dual_ascent -> "dual-ascent"
  | Exact_bb -> "exact-bb"
  | Espresso_loop -> "espresso-loop"
  | Parse -> "parse"

let site_of_string s =
  List.find_opt (fun site -> string_of_site site = s) all_sites

type reason =
  | Deadline of float
  | Node_budget of int
  | Step_budget of int
  | Fault_injected of int
  | Interrupted

exception Injected_fault of { site : site; tick : int }

type trip = {
  site : site;
  reason : reason;
  tick : int;
}

(* Limits are immutable; [max_int] / [infinity] mean "no cap", so the hot
   path needs no option matching. *)
type limits = {
  deadline_at : float;  (* absolute, [infinity] = none *)
  timeout : float;  (* the relative seconds, for reporting *)
  node_budget : int;
  step_budget : int;
  fault_after : int;
  fault_site : site option;
  fault_raise : bool;
  now : unit -> float;
  check_every : int;
  (* [interrupted] lives in the shared immutable limits on purpose: a
     fork shares its parent's limits, so interrupting the parent (a
     SIGINT handler, a daemon drain) trips every child at its next
     checkpoint, whichever domain it runs on. *)
  interrupted : bool Atomic.t;
}

type t = {
  limits : limits option;  (* [None] = the inactive shared governor *)
  mutable ticks : int;
  mutable node_ticks : int;
  mutable step_ticks : int;
  mutable fault_ticks : int;
  mutable trip : trip option;
}

let none =
  { limits = None; ticks = 0; node_ticks = 0; step_ticks = 0; fault_ticks = 0; trip = None }

let create ?timeout ?nodes ?steps ?fault_after ?fault_site ?(fault_raise = false)
    ?(now = Clock.now) ?(check_every = 32) () =
  if check_every <= 0 then invalid_arg "Budget.create: check_every must be positive";
  (match timeout with
  | Some s when s < 0. -> invalid_arg "Budget.create: negative timeout"
  | _ -> ());
  let positive name = function
    | Some n when n <= 0 -> invalid_arg (Printf.sprintf "Budget.create: %s must be positive" name)
    | Some n -> n
    | None -> max_int
  in
  let limits =
    {
      deadline_at = (match timeout with Some s -> now () +. s | None -> infinity);
      timeout = (match timeout with Some s -> s | None -> infinity);
      node_budget = positive "nodes" nodes;
      step_budget = positive "steps" steps;
      fault_after = positive "fault_after" fault_after;
      fault_site;
      fault_raise;
      now;
      check_every;
      interrupted = Atomic.make false;
    }
  in
  { limits = Some limits; ticks = 0; node_ticks = 0; step_ticks = 0; fault_ticks = 0; trip = None }

let is_active t = t.limits <> None
let ticks t = t.ticks
let tripped t = t.trip

(* Async-signal-safe in the OCaml sense (handlers run at safe points, and
   an [Atomic.set] neither allocates nor locks), and domain-safe: any
   thread may interrupt a governor another domain is ticking. *)
let interrupt t =
  match t.limits with None -> () | Some l -> Atomic.set l.interrupted true

let interrupted t =
  match t.limits with None -> false | Some l -> Atomic.get l.interrupted

let tick t site =
  match t.limits with
  | None -> false
  | Some l -> (
    match t.trip with
    | Some _ -> true
    | None ->
      t.ticks <- t.ticks + 1;
      let trip reason =
        t.trip <- Some { site; reason; tick = t.ticks };
        true
      in
      let fault_matches =
        l.fault_after <> max_int
        && (match l.fault_site with None -> true | Some s -> s = site)
      in
      if fault_matches then t.fault_ticks <- t.fault_ticks + 1;
      if Atomic.get l.interrupted then trip Interrupted
      else if fault_matches && t.fault_ticks >= l.fault_after then
        if l.fault_raise then raise (Injected_fault { site; tick = t.ticks })
        else trip (Fault_injected l.fault_after)
      else begin
        let over_budget =
          match site with
          | Implicit_reduce | Explicit_reduce | Exact_bb ->
            t.node_ticks <- t.node_ticks + 1;
            if t.node_ticks > l.node_budget then Some (Node_budget l.node_budget) else None
          | Subgradient | Dual_ascent ->
            t.step_ticks <- t.step_ticks + 1;
            if t.step_ticks > l.step_budget then Some (Step_budget l.step_budget) else None
          | Espresso_loop | Parse -> None
        in
        match over_budget with
        | Some reason -> trip reason
        | None ->
          if
            l.deadline_at < infinity
            && t.ticks mod l.check_every = 0
            && l.now () >= l.deadline_at
          then trip (Deadline l.timeout)
          else false
      end)

(* [charge] books a batch only when ticking it one by one would not trip.
   Every counter is monotone against a fixed threshold, so "no tick of
   the batch fires" is "the last tick at each counter does not fire",
   and the clock is read at most once, when the batch crosses a
   multiple of [check_every] as the one-by-one ticks would.  The
   differences are written [k > limit - count], which cannot overflow. *)
let charge t batch =
  if List.exists (fun (_, k) -> k < 0) batch then
    invalid_arg "Budget.charge: negative tick count";
  let total p = List.fold_left (fun acc (s, k) -> if p s then acc + k else acc) 0 batch in
  match t.limits with
  | None -> true
  | Some l ->
    let n = total (fun _ -> true) in
    if n = 0 then true
    else if t.trip <> None || Atomic.get l.interrupted then false
    else begin
      let faults =
        if l.fault_after = max_int then 0
        else total (fun s -> match l.fault_site with None -> true | Some f -> f = s)
      in
      let nodes =
        total (function Implicit_reduce | Explicit_reduce | Exact_bb -> true | _ -> false)
      and steps = total (function Subgradient | Dual_ascent -> true | _ -> false) in
      let ticks = t.ticks + n in
      let would_trip =
        (faults > 0 && faults >= l.fault_after - t.fault_ticks)
        || (nodes > 0 && nodes > l.node_budget - t.node_ticks)
        || (steps > 0 && steps > l.step_budget - t.step_ticks)
        || l.deadline_at < infinity
           && ticks / l.check_every > t.ticks / l.check_every
           && l.now () >= l.deadline_at
      in
      if would_trip then false
      else begin
        t.ticks <- ticks;
        t.node_ticks <- t.node_ticks + nodes;
        t.step_ticks <- t.step_ticks + steps;
        t.fault_ticks <- t.fault_ticks + faults;
        true
      end
    end

(* Batch solving: one forked child per instance.  Limits are immutable
   and shared — in particular [deadline_at] is an absolute instant on the
   shared wall clock, so every domain races the same deadline — while the
   tick counters are per-child (each domain meters its own work without
   contending on shared mutable state).  A child created after the parent
   tripped starts tripped, so late instances wind down immediately. *)
let fork t =
  match t.limits with
  | None -> none
  | Some _ ->
    {
      limits = t.limits;
      ticks = 0;
      node_ticks = 0;
      step_ticks = 0;
      fault_ticks = 0;
      trip = t.trip;
    }

let pp_site ppf s = Fmt.string ppf (string_of_site s)

let pp_reason ppf = function
  | Deadline s -> Fmt.pf ppf "wall-clock deadline (%gs)" s
  | Node_budget n -> Fmt.pf ppf "node budget (%d)" n
  | Step_budget n -> Fmt.pf ppf "step budget (%d)" n
  | Fault_injected n -> Fmt.pf ppf "injected fault (after %d)" n
  | Interrupted -> Fmt.pf ppf "interrupted (signal or drain)"

let pp_trip ppf t =
  Fmt.pf ppf "%a: %a at tick %d" pp_site t.site pp_reason t.reason t.tick

let describe t = Fmt.str "%a" pp_trip t
