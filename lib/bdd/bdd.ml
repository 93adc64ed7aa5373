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
let cfg_initial_size = Atomic.make 4_096

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
  and_cache : t Cache2.t;
  or_cache : t Cache2.t;
  xor_cache : t Cache2.t;
  not_cache : t Cache1.t;
  size_seen : unit Cache1.t;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        unique = Unique.create (Atomic.get cfg_initial_size);
        next_tag = 2;
        and_cache = Cache2.create 4_096;
        or_cache = Cache2.create 4_096;
        xor_cache = Cache2.create 4_096;
        not_cache = Cache1.create 4_096;
        size_seen = Cache1.create 1_024;
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
      n

let node_count () = Unique.length (state ()).unique

let var i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  mk (state ()) i one zero

let nvar i =
  if i < 0 then invalid_arg "Bdd.nvar: negative index";
  mk (state ()) i zero one

let cofactors f =
  match f.node with
  | Node { var; hi; lo } -> (var, hi, lo)
  | Zero | One -> invalid_arg "Bdd.cofactors: constant"

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

(* ------------------------------------------------------------------ *)
(* Semantics                                                          *)
(* ------------------------------------------------------------------ *)

let rec eval f env =
  match f.node with
  | Zero -> false
  | One -> true
  | Node { var; hi; lo } -> if env var then eval hi env else eval lo env

(* f → g by a depth-first search for a path that reaches [one] in f and
   [zero] in g, which stops at the first one and builds no node.  As in
   [intersects], the first 64 steps run without a memo.  Past them, a
   pair proven (f ∧ g = f) goes into the conjunction cache as [f], its
   true [band], and a cached pair answers at once ([band f g == f]), so
   from then on no pair is expanded twice and the search expands at
   most 64 + |f|·|g| pairs, the bound of [bdiff]. *)
let implies f g =
  let st = state () in
  let steps = ref 0 in
  let rec go f g =
    if is_zero f || is_one g || f == g then true
    else if is_zero g || is_one f then false
    else begin
      incr steps;
      if !steps <= 64 then split f g
      else
        let key = if f.tag <= g.tag then (f.tag, g.tag) else (g.tag, f.tag) in
        match Cache2.find_opt st.and_cache key with
        | Some r -> r == f
        | None ->
          split f g
          && begin
               Cache2.add st.and_cache key f;
               true
             end
    end
  and split f g =
    let v = top2 f g in
    let f1, f0 = cof f v and g1, g0 = cof g v in
    go f1 g1 && go f0 g0
  in
  go f g

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
