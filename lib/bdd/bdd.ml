(* Hash-consed ROBDD engine.

   Canonical form: no node has [hi = lo] (redundant-test elimination) and
   every (var, hi, lo) triple is built at most once (unique table).  Under
   these two invariants, equality of node numbers coincides with
   functional equivalence, which every operation below exploits.

   Nodes are ints in the domain's flat store (Ddstore): 0 is false, 1 is
   true, and internal nodes are numbered from 2 in creation order.  Each
   recursion keeps the expression shape [mk v (op f1 g1) (op f0 g0)],
   whose arguments OCaml evaluates right to left, so the nodes of a
   computation are created in a fixed order. *)

module Cache = Ddstore.Cache

type t = int

let zero = 0
let one = 1

let is_zero f = f = 0
let is_one f = f = 1
let equal = Int.equal
let hash f = f

(* Engine-wide tunable shared with worker domains spawned later, kept in
   lockstep with the ZDD manager's knob (see Zdd.configure). *)
let cfg_initial_size = Atomic.make 4_096

let configure ?initial_size () =
  Option.iter (fun n -> Atomic.set cfg_initial_size (max 16 n)) initial_size

(* One manager per domain (see the ZDD engine and DESIGN.md §10): the
   node store and operation caches live in domain-local storage, so
   parallel workers never share mutable tables.  BDD values must stay
   on the domain that built them; only [zero]/[one] are shared.  The
   manager is created by the first operation on a domain. *)
type state = {
  dd : Ddstore.t;
  and_cache : Cache.t;
  or_cache : Cache.t;
  xor_cache : Cache.t;
  not_cache : Cache.t;
  mutable steps : int;  (* of the running [intersects] / [implies] search *)
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        dd = Ddstore.create ~initial_size:(Atomic.get cfg_initial_size);
        and_cache = Cache.create ();
        or_cache = Cache.create ();
        xor_cache = Cache.create ();
        not_cache = Cache.create ();
        steps = 0;
      })

let state () = Domain.DLS.get state_key

let var_of st f = st.dd.var.(f)
let hi_of st f = st.dd.hi.(f)
let lo_of st f = st.dd.lo.(f)

let mk st v hi lo = if hi = lo then hi else Ddstore.find_or_add st.dd v hi lo

let node_count () = (state ()).dd.live

let var i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  mk (state ()) i one zero

let nvar i =
  if i < 0 then invalid_arg "Bdd.nvar: negative index";
  mk (state ()) i zero one

let cofactors f =
  if f < 2 then invalid_arg "Bdd.cofactors: constant";
  let st = state () in
  (var_of st f, hi_of st f, lo_of st f)

(* Cofactors of [f] with respect to variable [v], assuming
   [v <= top_var f]; a constant's variable reads [max_int]. *)
let cof1 st f v = if var_of st f = v then hi_of st f else f
let cof0 st f v = if var_of st f = v then lo_of st f else f

let top2 st f g =
  let a = var_of st f and b = var_of st g in
  if a < b then a else b

let rec band_st st f g =
  if f = g then f
  else if f = zero || g = zero then zero
  else if f = one then g
  else if g = one then f
  else begin
    (* commutative: normalise the cache key *)
    let a = if f <= g then f else g and b = if f <= g then g else f in
    let r = Cache.find st.and_cache a b in
    if r >= 0 then r
    else begin
      let v = top2 st f g in
      let f1 = cof1 st f v and f0 = cof0 st f v in
      let g1 = cof1 st g v and g0 = cof0 st g v in
      let r = mk st v (band_st st f1 g1) (band_st st f0 g0) in
      Cache.add st.and_cache a b r;
      r
    end
  end

(* f ∧ g ≠ 0 by a depth-first search for a common path to [one], which
   stops at the first one and builds no node.  Most searches end within
   a few steps, so the first 64 run without a memo.  Past them, a pair
   found disjoint goes into the conjunction cache as [zero] (its true
   [band]) and a cached pair answers at once, so from then on no pair
   is searched twice and the search stays within 64 + |f|·|g| steps,
   the bound of [band]. *)
let rec intersects_go st f g =
  if f = zero || g = zero then false
  else if f = g || f = one || g = one then true
  else begin
    st.steps <- st.steps + 1;
    if st.steps <= 64 then intersects_split st f g
    else
      let a = if f <= g then f else g and b = if f <= g then g else f in
      let r = Cache.find st.and_cache a b in
      if r >= 0 then r <> zero
      else
        intersects_split st f g
        || begin
             Cache.add st.and_cache a b zero;
             false
           end
  end

and intersects_split st f g =
  let v = top2 st f g in
  intersects_go st (cof1 st f v) (cof1 st g v)
  || intersects_go st (cof0 st f v) (cof0 st g v)

let intersects f g =
  let st = state () in
  st.steps <- 0;
  intersects_go st f g

let rec bor_st st f g =
  if f = g then f
  else if f = one || g = one then one
  else if f = zero then g
  else if g = zero then f
  else begin
    let a = if f <= g then f else g and b = if f <= g then g else f in
    let r = Cache.find st.or_cache a b in
    if r >= 0 then r
    else begin
      let v = top2 st f g in
      let f1 = cof1 st f v and f0 = cof0 st f v in
      let g1 = cof1 st g v and g0 = cof0 st g v in
      let r = mk st v (bor_st st f1 g1) (bor_st st f0 g0) in
      Cache.add st.or_cache a b r;
      r
    end
  end

let rec bxor_st st f g =
  if f = g then zero
  else if f = zero then g
  else if g = zero then f
  else if f = one then bnot_st st g
  else if g = one then bnot_st st f
  else begin
    let a = if f <= g then f else g and b = if f <= g then g else f in
    let r = Cache.find st.xor_cache a b in
    if r >= 0 then r
    else begin
      let v = top2 st f g in
      let f1 = cof1 st f v and f0 = cof0 st f v in
      let g1 = cof1 st g v and g0 = cof0 st g v in
      let r = mk st v (bxor_st st f1 g1) (bxor_st st f0 g0) in
      Cache.add st.xor_cache a b r;
      r
    end
  end

and bnot_st st f =
  if f = zero then one
  else if f = one then zero
  else begin
    let r = Cache.find st.not_cache f 0 in
    if r >= 0 then r
    else begin
      let r = mk st (var_of st f) (bnot_st st (hi_of st f)) (bnot_st st (lo_of st f)) in
      Cache.add st.not_cache f 0 r;
      r
    end
  end

let band f g = band_st (state ()) f g
let bor f g = bor_st (state ()) f g
let bxor f g = bxor_st (state ()) f g
let bnot f = bnot_st (state ()) f

let bdiff f g = band f (bnot g)

(* ------------------------------------------------------------------ *)
(* Semantics                                                          *)
(* ------------------------------------------------------------------ *)

let eval f env =
  let st = state () in
  let rec go f =
    if f < 2 then f = one else go (if env (var_of st f) then hi_of st f else lo_of st f)
  in
  go f

(* f → g by a depth-first search for a path that reaches [one] in f and
   [zero] in g, which stops at the first one and builds no node.  As in
   [intersects], the first 64 steps run without a memo.  Past them, a
   pair proven (f ∧ g = f) goes into the conjunction cache as [f], its
   true [band], and a cached pair answers at once ([band f g = f]), so
   from then on no pair is expanded twice and the search expands at
   most 64 + |f|·|g| pairs, the bound of [bdiff]. *)
let rec implies_go st f g =
  if f = zero || g = one || f = g then true
  else if g = zero || f = one then false
  else begin
    st.steps <- st.steps + 1;
    if st.steps <= 64 then implies_split st f g
    else
      let a = if f <= g then f else g and b = if f <= g then g else f in
      let r = Cache.find st.and_cache a b in
      if r >= 0 then r = f
      else
        implies_split st f g
        && begin
             Cache.add st.and_cache a b f;
             true
           end
  end

and implies_split st f g =
  let v = top2 st f g in
  implies_go st (cof1 st f v) (cof1 st g v) && implies_go st (cof0 st f v) (cof0 st g v)

let implies f g =
  let st = state () in
  st.steps <- 0;
  implies_go st f g

let sat_count ~nvars f =
  if nvars < 0 then invalid_arg "Bdd.sat_count: negative nvars";
  let st = state () in
  (* Weight of a node whose top variable is [var], counting from level
     [from]: 2^(var - from) times the sum of the child counts, each taken
     from level [var + 1].  Memoising the "below" part only keeps the
     memo independent of [from]; it is indexed by node number. *)
  let memo = Float.Array.make st.dd.next Float.nan in
  let rec go from f =
    (* number of satisfying assignments of variables [from .. nvars-1] *)
    if f = zero then 0.
    else if f = one then Float.pow 2. (Float.of_int (nvars - from))
    else begin
      let var = var_of st f in
      assert (var >= from);
      let below =
        let c = Float.Array.get memo f in
        if Float.is_nan c then begin
          let c = go (var + 1) (hi_of st f) +. go (var + 1) (lo_of st f) in
          Float.Array.set memo f c;
          c
        end
        else c
      in
      Float.pow 2. (Float.of_int (var - from)) *. below
    end
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
      if acc = zero then zero else if pos then mk st i acc zero else mk st i zero acc)
    one sorted

let disj fs = List.fold_left bor zero fs

let size f =
  let st = state () in
  Ddstore.new_epoch st.dd;
  let count = ref 0 in
  let rec go f =
    if f >= 2 && Ddstore.visit st.dd f then begin
      incr count;
      go (hi_of st f);
      go (lo_of st f)
    end
  in
  go f;
  !count
