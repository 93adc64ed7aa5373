(* Hash-consed ROBDD engine.

   Canonical form: no node has [hi == lo] (redundant-test elimination) and
   every (var, hi, lo) triple is built at most once (unique table).  Under
   these two invariants, physical equality coincides with functional
   equivalence, which every operation below exploits. *)

type t = { tag : int; node : node }

and node =
  | Zero
  | One
  | Node of { var : int; hi : t; lo : t }

let zero = { tag = 0; node = Zero }
let one = { tag = 1; node = One }

let is_zero f = f.tag = 0
let is_one f = f.tag = 1
let equal f g = f == g
let compare f g = Stdlib.compare f.tag g.tag
let hash f = f.tag

(* ------------------------------------------------------------------ *)
(* Unique table                                                       *)
(* ------------------------------------------------------------------ *)

module Triple = struct
  type t = int * int * int

  let equal (a, b, c) (a', b', c') = a = a' && b = b' && c = c'
  let hash (a, b, c) = (a * 0x9e3779b1) lxor (b * 0x85ebca77) lxor (c * 0xc2b2ae3d)
end

module Unique = Hashtbl.Make (Triple)

module Pair = struct
  type t = int * int

  let equal (a, b) (a', b') = a = a' && b = b'
  let hash (a, b) = (a * 0x9e3779b1) lxor b
end

module Cache2 = Hashtbl.Make (Pair)
module Cache1 = Hashtbl.Make (Int)

(* Engine-wide tunable shared with worker domains spawned later, kept in
   lockstep with the ZDD manager's knob (see Zdd.configure). *)
let cfg_initial_size = Atomic.make 65_536

let configure ?initial_size () =
  Option.iter (fun n -> Atomic.set cfg_initial_size (max 16 n)) initial_size

(* One manager per domain (see the ZDD engine and DESIGN.md §10): the
   unique table, tag allocator and operation caches live in domain-local
   storage, so parallel workers never share mutable tables.  BDD values
   must stay on the domain that built them; only [zero]/[one] are
   shared. *)
type state = {
  unique : t Unique.t;
  mutable next_tag : int;
  mutable peak : int;
  and_cache : t Cache2.t;
  or_cache : t Cache2.t;
  xor_cache : t Cache2.t;
  not_cache : t Cache1.t;
  size_seen : unit Cache1.t;
  mutable collections : int;
  mutable reclaimed_total : int;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        unique = Unique.create (Atomic.get cfg_initial_size);
        next_tag = 2;
        peak = 0;
        and_cache = Cache2.create 65_536;
        or_cache = Cache2.create 65_536;
        xor_cache = Cache2.create 65_536;
        not_cache = Cache1.create 65_536;
        size_seen = Cache1.create 1_024;
        collections = 0;
        reclaimed_total = 0;
      })

let state () = Domain.DLS.get state_key

let mk st var hi lo =
  if hi == lo then hi
  else
    let key = (var, hi.tag, lo.tag) in
    match Unique.find_opt st.unique key with
    | Some n -> n
    | None ->
      let n = { tag = st.next_tag; node = Node { var; hi; lo } } in
      st.next_tag <- st.next_tag + 1;
      Unique.add st.unique key n;
      let occ = Unique.length st.unique in
      if occ > st.peak then st.peak <- occ;
      n

let node_count () = Unique.length (state ()).unique

let peak_node_count () =
  let st = state () in
  max st.peak (Unique.length st.unique)

let var i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  mk (state ()) i one zero

let nvar i =
  if i < 0 then invalid_arg "Bdd.nvar: negative index";
  mk (state ()) i zero one

let top_var f =
  match f.node with
  | Node { var; _ } -> var
  | Zero | One -> invalid_arg "Bdd.top_var: constant"

let cofactors f =
  match f.node with
  | Node { var; hi; lo } -> (var, hi, lo)
  | Zero | One -> invalid_arg "Bdd.cofactors: constant"

(* ------------------------------------------------------------------ *)
(* Operation caches                                                   *)
(* ------------------------------------------------------------------ *)

let clear_caches () =
  let st = state () in
  Cache2.reset st.and_cache;
  Cache2.reset st.or_cache;
  Cache2.reset st.xor_cache;
  Cache1.reset st.not_cache

(* Mark-and-sweep of dead nodes, mirroring the ZDD manager's lifecycle
   in its simplest form: the BDD engine's consumers (FSM closure
   clauses, espresso cubes) hold their live functions explicitly, so a
   full sweep with caller-supplied roots is enough — no generational
   nursery or registered-root bookkeeping.  Caches are reset for the
   same canonicity reason: a stale hit must not resurrect a swept
   node. *)
module Gc = struct
  type stats = { collections : int; reclaimed_total : int }

  let stats () =
    let st = state () in
    { collections = st.collections; reclaimed_total = st.reclaimed_total }

  let collect ?(roots = []) () =
    let st = state () in
    let marked : unit Cache1.t = Cache1.create 4_096 in
    let rec mark f =
      match f.node with
      | Zero | One -> ()
      | Node { hi; lo; _ } ->
        if not (Cache1.mem marked f.tag) then begin
          Cache1.add marked f.tag ();
          mark hi;
          mark lo
        end
    in
    List.iter mark roots;
    let dead = ref [] in
    Unique.iter
      (fun key n -> if not (Cache1.mem marked n.tag) then dead := key :: !dead)
      st.unique;
    List.iter (Unique.remove st.unique) !dead;
    let reclaimed = List.length !dead in
    st.collections <- st.collections + 1;
    st.reclaimed_total <- st.reclaimed_total + reclaimed;
    Cache2.reset st.and_cache;
    Cache2.reset st.or_cache;
    Cache2.reset st.xor_cache;
    Cache1.reset st.not_cache;
    reclaimed
end

(* Expand [f] with respect to variable [v], assuming [v <= top_var f]. *)
let cof f v =
  match f.node with
  | Node { var; hi; lo } when var = v -> (hi, lo)
  | Zero | One | Node _ -> (f, f)

let top2 f g =
  match (f.node, g.node) with
  | Node { var = a; _ }, Node { var = b; _ } -> if a < b then a else b
  | Node { var = a; _ }, (Zero | One) -> a
  | (Zero | One), Node { var = b; _ } -> b
  | (Zero | One), (Zero | One) -> assert false

let rec band_st st f g =
  if f == g then f
  else if is_zero f || is_zero g then zero
  else if is_one f then g
  else if is_one g then f
  else begin
    (* commutative: normalise the cache key *)
    let key = if f.tag <= g.tag then (f.tag, g.tag) else (g.tag, f.tag) in
    match Cache2.find_opt st.and_cache key with
    | Some r -> r
    | None ->
      let v = top2 f g in
      let f1, f0 = cof f v and g1, g0 = cof g v in
      let r = mk st v (band_st st f1 g1) (band_st st f0 g0) in
      Cache2.add st.and_cache key r;
      r
  end

(* f ∧ g ≠ 0 by a depth-first search for a common path to [one], which
   stops at the first one and builds no node.  Most searches end within
   a few steps, so the first 64 run without a memo.  Past them, a pair
   found disjoint goes into the conjunction cache as [zero] (its true
   [band]) and a cached pair answers at once, so from then on no pair
   is searched twice and the search stays within 64 + |f|·|g| steps,
   the bound of [band]. *)
let intersects f g =
  let st = state () in
  let steps = ref 0 in
  let rec go f g =
    if is_zero f || is_zero g then false
    else if f == g || is_one f || is_one g then true
    else begin
      incr steps;
      if !steps <= 64 then split f g
      else
        let key = if f.tag <= g.tag then (f.tag, g.tag) else (g.tag, f.tag) in
        match Cache2.find_opt st.and_cache key with
        | Some r -> not (is_zero r)
        | None ->
          split f g
          || begin
               Cache2.add st.and_cache key zero;
               false
             end
    end
  and split f g =
    let v = top2 f g in
    let f1, f0 = cof f v and g1, g0 = cof g v in
    go f1 g1 || go f0 g0
  in
  go f g

let rec bor_st st f g =
  if f == g then f
  else if is_one f || is_one g then one
  else if is_zero f then g
  else if is_zero g then f
  else begin
    let key = if f.tag <= g.tag then (f.tag, g.tag) else (g.tag, f.tag) in
    match Cache2.find_opt st.or_cache key with
    | Some r -> r
    | None ->
      let v = top2 f g in
      let f1, f0 = cof f v and g1, g0 = cof g v in
      let r = mk st v (bor_st st f1 g1) (bor_st st f0 g0) in
      Cache2.add st.or_cache key r;
      r
  end

let rec bxor_st st f g =
  if f == g then zero
  else if is_zero f then g
  else if is_zero g then f
  else if is_one f then bnot_st st g
  else if is_one g then bnot_st st f
  else begin
    let key = if f.tag <= g.tag then (f.tag, g.tag) else (g.tag, f.tag) in
    match Cache2.find_opt st.xor_cache key with
    | Some r -> r
    | None ->
      let v = top2 f g in
      let f1, f0 = cof f v and g1, g0 = cof g v in
      let r = mk st v (bxor_st st f1 g1) (bxor_st st f0 g0) in
      Cache2.add st.xor_cache key r;
      r
  end

and bnot_st st f =
  match f.node with
  | Zero -> one
  | One -> zero
  | Node { var; hi; lo } -> (
    match Cache1.find_opt st.not_cache f.tag with
    | Some r -> r
    | None ->
      let r = mk st var (bnot_st st hi) (bnot_st st lo) in
      Cache1.add st.not_cache f.tag r;
      r)

let band f g = band_st (state ()) f g
let bor f g = bor_st (state ()) f g
let bxor f g = bxor_st (state ()) f g
let bnot f = bnot_st (state ()) f

let bdiff f g = band f (bnot g)
let bimp f g = bor (bnot f) g
let bite f g h = bor (band f g) (band (bnot f) h)

(* ------------------------------------------------------------------ *)
(* Cofactors and quantification                                       *)
(* ------------------------------------------------------------------ *)

let cofactor f ~var b =
  let st = state () in
  let module M = Map.Make (Int) in
  let memo = ref M.empty in
  let rec go f =
    match f.node with
    | Zero | One -> f
    | Node { var = v; hi; lo } ->
      if v > var then f
      else if v = var then if b then hi else lo
      else (
        match M.find_opt f.tag !memo with
        | Some r -> r
        | None ->
          let r = mk st v (go hi) (go lo) in
          memo := M.add f.tag r !memo;
          r)
  in
  go f

let quantify combine vars f =
  let st = state () in
  let vars = List.sort_uniq Stdlib.compare vars in
  let memo : t Cache1.t = Cache1.create 256 in
  let rec go vars f =
    match (vars, f.node) with
    | [], _ | _, (Zero | One) -> f
    | v :: rest, Node { var; hi; lo } ->
      if var > v then go rest f
      else (
        match Cache1.find_opt memo f.tag with
        | Some r -> r
        | None ->
          let r =
            if var = v then combine (go rest hi) (go rest lo)
            else mk st var (go vars hi) (go vars lo)
          in
          Cache1.add memo f.tag r;
          r)
  in
  go vars f

let exists vars f = quantify bor vars f
let forall vars f = quantify band vars f

let support f =
  let seen : unit Cache1.t = Cache1.create 256 in
  let vars = ref [] in
  let rec go f =
    match f.node with
    | Zero | One -> ()
    | Node { var; hi; lo } ->
      if not (Cache1.mem seen f.tag) then begin
        Cache1.add seen f.tag ();
        vars := var :: !vars;
        go hi;
        go lo
      end
  in
  go f;
  List.sort_uniq Stdlib.compare !vars

(* ------------------------------------------------------------------ *)
(* Semantics                                                          *)
(* ------------------------------------------------------------------ *)

let rec eval f env =
  match f.node with
  | Zero -> false
  | One -> true
  | Node { var; hi; lo } -> if env var then eval hi env else eval lo env

let implies f g = is_zero (bdiff f g)

let sat_count ~nvars f =
  (* Weight of a node whose top variable is [var], counting from level
     [from]: 2^(var - from) times the sum of the child counts, each taken
     from level [var + 1].  Memoising the "below" part only keeps the cache
     independent of [from]. *)
  let memo : float Cache1.t = Cache1.create 256 in
  let rec go from f =
    (* number of satisfying assignments of variables [from .. nvars-1] *)
    match f.node with
    | Zero -> 0.
    | One -> Float.pow 2. (Float.of_int (nvars - from))
    | Node { var; hi; lo } ->
      assert (var >= from);
      let key = f.tag in
      let below =
        match Cache1.find_opt memo key with
        | Some c -> c
        | None ->
          let c = go (var + 1) hi +. go (var + 1) lo in
          Cache1.add memo key c;
          c
      in
      Float.pow 2. (Float.of_int (var - from)) *. below
  in
  if nvars < 0 then invalid_arg "Bdd.sat_count: negative nvars";
  go 0 f

let any_sat f =
  let rec go acc f =
    match f.node with
    | Zero -> raise Not_found
    | One -> List.rev acc
    | Node { var; hi; lo } ->
      if is_zero hi then go ((var, false) :: acc) lo else go ((var, true) :: acc) hi
  in
  go [] f

let iter_sat ~nvars f k =
  let env = Array.make nvars false in
  (* enumerate assignments of variables [i .. nvars-1] under node [f] *)
  let rec go i f =
    if is_zero f then ()
    else if i = nvars then k (Array.copy env)
    else
      match f.node with
      | Node { var; hi; lo } when var = i ->
        env.(i) <- true;
        go (i + 1) hi;
        env.(i) <- false;
        go (i + 1) lo
      | Zero | One | Node _ ->
        env.(i) <- true;
        go (i + 1) f;
        env.(i) <- false;
        go (i + 1) f
  in
  go 0 f

(* ------------------------------------------------------------------ *)
(* Bulk constructors                                                  *)
(* ------------------------------------------------------------------ *)

let cube_of_literals lits =
  let st = state () in
  let sorted = List.sort (fun (i, _) (j, _) -> Stdlib.compare j i) lits in
  (* build bottom-up: literals with the largest index first *)
  List.fold_left
    (fun acc (i, pos) ->
      if is_zero acc then zero
      else if pos then mk st i acc zero
      else mk st i zero acc)
    one sorted

let conj fs = List.fold_left band one fs
let disj fs = List.fold_left bor zero fs

let size f =
  let st = state () in
  Cache1.reset st.size_seen;
  let count = ref 0 in
  let rec go f =
    match f.node with
    | Zero | One -> ()
    | Node { hi; lo; _ } ->
      if not (Cache1.mem st.size_seen f.tag) then begin
        Cache1.add st.size_seen f.tag ();
        incr count;
        go hi;
        go lo
      end
  in
  go f;
  !count

let rec pp ppf f =
  match f.node with
  | Zero -> Fmt.string ppf "0"
  | One -> Fmt.string ppf "1"
  | Node { var; hi; lo } -> Fmt.pf ppf "@[<hov 1>(x%d ? %a : %a)@]" var pp hi pp lo
