(* Hash-consed ZDD engine (Minato's zero-suppressed DDs).

   Canonical form: no node has [hi = empty] (zero-suppression) and every
   (var, hi, lo) triple is unique.  [empty] is the family {}, [base] is {∅}.

   [minimal] implements implicit row dominance through [no_sup_set] (the
   sets of one family that contain no set of another); both recursions
   follow the standard cube-set algebra (see e.g. Coudert, "Two-level
   logic minimization: an overview", INTEGRATION 1994).

   Nodes are ints in the domain's flat store (Ddstore): 0 is [empty], 1
   is [base], internal nodes are numbered from 2.  The store, the
   operation caches and the collector's books live in domain-local
   storage: each OCaml 5 domain owns a private manager, so parallel
   workers never contend on (or corrupt) a shared table.  The two
   constants are shared.  The flip side is an ownership rule: a ZDD
   value is a node number that means something only on the domain that
   built it, and must not be mixed into another domain's operations
   (see DESIGN.md §10).  Each recursion keeps the expression shape
   [mk v (op f1 g1) (op f0 g0)], whose arguments OCaml evaluates right
   to left, so the nodes of a computation are created in a fixed
   order. *)

module Cache = Ddstore.Cache

type elt = int
type t = int

let empty = 0
let base = 1

let is_empty f = f = 0
let is_base f = f = 1
let equal = Int.equal

(* Engine-wide tunables, shared by every domain's manager.  They are
   plain atomics so a solver can set them once (Scg.solve does, from
   Config) and worker domains spawned afterwards initialise from the
   same values; per-domain managers re-read the GC threshold at every
   safe point, so a running domain picks up changes too. *)
let default_initial_size = 4_096
let default_gc_threshold = 262_144
let cfg_initial_size = Atomic.make default_initial_size
let cfg_gc_threshold = Atomic.make default_gc_threshold
let cfg_chain = Atomic.make true

let configure ?initial_size ?gc_threshold ?chain_reduction () =
  Option.iter (fun n -> Atomic.set cfg_initial_size (max 16 n)) initial_size;
  Option.iter (fun n -> Atomic.set cfg_gc_threshold (max 0 n)) gc_threshold;
  Option.iter (fun b -> Atomic.set cfg_chain b) chain_reduction

(* One manager per domain, created by the first operation on it: node
   store, peak meter, the operation caches and the collector's books.
   Node numbers are domain-private (they only index this domain's
   store), so independent domains reusing the same numbers is
   harmless. *)
type state = {
  dd : Ddstore.t;
  mutable peak : int;
  union_cache : Cache.t;
  diff_cache : Cache.t;
  nosup_cache : Cache.t;
  minimal_cache : Cache.t;
  mutable counts : Float.Array.t;
      (* [count]'s memo, indexed by node number; nan when unknown *)
  (* lifecycle *)
  mutable young : int array;
  mutable n_young : int;
      (* [young.(0 .. n_young-1)]: the nodes created since the last
         collection, the nursery a minor sweep scans.  Children are
         always built before parents, so an old node can never point at
         a young one and sweeping only the nursery is sound. *)
  mutable gc_threshold : int;
  mutable threshold_seen : int;
      (* the base value [gc_threshold] was derived from; re-synced when
         [configure] changes the atomic after this manager was built *)
  mutable collections : int;
  mutable major_collections : int;
  mutable reclaimed_total : int;
  mutable live_after_last : int;
  mutable chain_hits : int;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let base = Atomic.get cfg_gc_threshold in
      {
        dd = Ddstore.create ~initial_size:(Atomic.get cfg_initial_size);
        peak = 0;
        union_cache = Cache.create ();
        diff_cache = Cache.create ();
        nosup_cache = Cache.create ();
        minimal_cache = Cache.create ();
        counts = Float.Array.create 0;
        young = Array.make 256 0;
        n_young = 0;
        gc_threshold = base;
        threshold_seen = base;
        collections = 0;
        major_collections = 0;
        reclaimed_total = 0;
        live_after_last = 0;
        chain_hits = 0;
      })

let state () = Domain.DLS.get state_key

let var_of st f = st.dd.var.(f)
let hi_of st f = st.dd.hi.(f)
let lo_of st f = st.dd.lo.(f)

let mk st var hi lo =
  if hi = empty then lo
  else
    let dd = st.dd in
    let live = dd.live in
    let n = Ddstore.find_or_add dd var hi lo in
    if dd.live > live then begin
      if st.n_young = Array.length st.young then begin
        let young = Array.make (2 * st.n_young) 0 in
        Array.blit st.young 0 young 0 st.n_young;
        st.young <- young
      end;
      st.young.(st.n_young) <- n;
      st.n_young <- st.n_young + 1;
      if dd.live > st.peak then st.peak <- dd.live
    end;
    n

let node_count () = (state ()).dd.live

let peak_node_count () =
  let st = state () in
  max st.peak st.dd.live

let chain_hit_count () = (state ()).chain_hits

let of_set elems =
  let sorted = List.sort_uniq Stdlib.compare elems in
  List.iter (fun v -> if v < 0 then invalid_arg "Zdd.of_set: negative element") sorted;
  let st = state () in
  List.fold_left (fun acc v -> mk st v acc empty) base (List.rev sorted)

let clear_caches_st st =
  Cache.clear st.union_cache;
  Cache.clear st.diff_cache;
  Cache.clear st.nosup_cache;
  Cache.clear st.minimal_cache;
  st.counts <- Float.Array.create 0

(* ------------------------------------------------------------------ *)
(* Unique-table lifecycle: mark-and-sweep collection                  *)
(* ------------------------------------------------------------------ *)

(* Mark everything reachable from the caller's roots: the marked nodes
   are those [Ddstore.visit] has seen in the current epoch. *)
let rec mark st f =
  if f >= 2 && Ddstore.visit st.dd f then begin
    mark st (hi_of st f);
    mark st (lo_of st f)
  end

let marked st n = st.dd.stamp.(n) = st.dd.epoch

(* Sweep after a full mark.  A minor sweep scans only the nursery
   (sound because parents are always younger than their children, so a
   surviving old node can never point at a swept young one); survivors
   are promoted by emptying the nursery.  A sweep that reclaims
   anything resets every operation cache: a stale cache hit could hand
   out a node whose number was freed, and that number is handed to the
   next node created.  A sweep that reclaims nothing keeps them: every
   cached result is still live and no number was freed, so no entry can
   be stale — and the reduction fixpoint, which collects between steps,
   keeps its memo across a working set that is all live.  Returns
   [(scope, reclaimed)] where [scope] is how many nodes the sweep
   examined. *)
let sweep_st st ~roots ~major =
  let dd = st.dd in
  Ddstore.new_epoch dd;
  List.iter (mark st) roots;
  let free n =
    if dd.var.(n) >= 0 && not (marked st n) then begin
      Ddstore.release dd n;
      true
    end
    else false
  in
  let scope, reclaimed =
    if major then begin
      let before = dd.live and dead = ref 0 in
      for n = 2 to dd.next - 1 do
        if free n then incr dead
      done;
      (before, !dead)
    end
    else begin
      let dead = ref 0 in
      for i = 0 to st.n_young - 1 do
        if free st.young.(i) then incr dead
      done;
      (st.n_young, !dead)
    end
  in
  st.n_young <- 0;
  st.collections <- st.collections + 1;
  if major then st.major_collections <- st.major_collections + 1;
  st.reclaimed_total <- st.reclaimed_total + reclaimed;
  st.live_after_last <- dd.live;
  if reclaimed > 0 then begin
    Ddstore.rehash dd;
    clear_caches_st st
  end;
  (scope, reclaimed)

module Gc = struct
  type stats = {
    collections : int;
    major_collections : int;
    reclaimed_total : int;
    live_after_last : int;
    threshold : int;
  }

  let stats () =
    let st = state () in
    {
      collections = st.collections;
      major_collections = st.major_collections;
      reclaimed_total = st.reclaimed_total;
      live_after_last = st.live_after_last;
      threshold = st.gc_threshold;
    }

  let collect ?(roots = []) () =
    let st = state () in
    let _, reclaimed = sweep_st st ~roots ~major:true in
    reclaimed

  let sync_threshold st =
    let base = Atomic.get cfg_gc_threshold in
    if base <> st.threshold_seen then begin
      st.threshold_seen <- base;
      st.gc_threshold <- base
    end

  (* Adaptive pacing: a low-yield collection means the working set is
     genuinely live, so back off (up to 32x base) rather than re-walk
     the same live graph; a high-yield one pulls the threshold back
     toward base so garbage-heavy phases collect eagerly. *)
  let adapt st ~scope ~reclaimed =
    let base = st.threshold_seen in
    if base > 0 then
      if reclaimed * 4 < scope then
        st.gc_threshold <- min (st.gc_threshold * 2) (base * 32)
      else if reclaimed * 2 > scope then
        st.gc_threshold <- max base (st.gc_threshold / 2)

  let maybe_collect ?(roots = []) () =
    let st = state () in
    sync_threshold st;
    if st.gc_threshold <= 0 || st.n_young < st.gc_threshold then false
    else begin
      let scope, reclaimed = sweep_st st ~roots ~major:false in
      let scope, reclaimed =
        if reclaimed * 4 < scope then begin
          (* the nursery was mostly live: promote it and do a full sweep
             so garbage promoted by earlier minors still gets found *)
          let s2, r2 = sweep_st st ~roots ~major:true in
          (scope + s2, reclaimed + r2)
        end
        else (scope, reclaimed)
      in
      adapt st ~scope ~reclaimed;
      true
    end
end

(* Cofactors of [f] with respect to [v], assuming [v <= top_var f]:
   [cof1] = sets containing v (with v removed), [cof0] = sets without v.
   A constant's variable reads [max_int]. *)
let cof1 st f v = if var_of st f = v then hi_of st f else empty
let cof0 st f v = if var_of st f = v then lo_of st f else f

let top2 st f g =
  let a = var_of st f and b = var_of st g in
  if a < b then a else b

(* ------------------------------------------------------------------ *)
(* Boolean family algebra                                              *)
(* ------------------------------------------------------------------ *)

let rec union_st st f g =
  if f = g then f
  else if f = empty then g
  else if g = empty then f
  else begin
    let a = if f <= g then f else g and b = if f <= g then g else f in
    let r = Cache.find st.union_cache a b in
    if r >= 0 then r
    else begin
      let v = top2 st f g in
      let f1 = cof1 st f v and f0 = cof0 st f v in
      let g1 = cof1 st g v and g0 = cof0 st g v in
      let r = mk st v (union_st st f1 g1) (union_st st f0 g0) in
      Cache.add st.union_cache a b r;
      r
    end
  end

let rec contains_empty_set st f =
  if f < 2 then f = base else contains_empty_set st (lo_of st f)

let rec diff_st st f g =
  if f = g || f = empty then empty
  else if g = empty then f
  else begin
    let r = Cache.find st.diff_cache f g in
    if r >= 0 then r
    else begin
      let r =
        if f = base then if contains_empty_set st g then empty else base
        else if g = base then
          (* g = {∅}: remove the empty set, which lives down the lo spine *)
          mk st (var_of st f) (hi_of st f) (diff_st st (lo_of st f) g)
        else begin
          (* split on the smaller top variable of the two operands *)
          let v = top2 st f g in
          let f1 = cof1 st f v and f0 = cof0 st f v in
          let g1 = cof1 st g v and g0 = cof0 st g v in
          mk st v (diff_st st f1 g1) (diff_st st f0 g0)
        end
      in
      Cache.add st.diff_cache f g r;
      r
    end
  end

let union f g = union_st (state ()) f g
let diff f g = diff_st (state ()) f g

(* ------------------------------------------------------------------ *)
(* Element-wise operations                                             *)
(* ------------------------------------------------------------------ *)

let rec subset0_st st v f =
  if f < 2 then f
  else
    let var = var_of st f in
    if var = v then lo_of st f
    else if var > v then f
    else mk st var (subset0_st st v (hi_of st f)) (subset0_st st v (lo_of st f))

let subset0 f v = subset0_st (state ()) v f

let rec change_st st v f =
  if f = empty then empty
  else if f = base then mk st v base empty
  else
    let var = var_of st f in
    if var = v then mk st var (lo_of st f) (hi_of st f)
    else if var > v then mk st v f empty
    else mk st var (change_st st v (hi_of st f)) (change_st st v (lo_of st f))

let change f v = change_st (state ()) v f

(* ------------------------------------------------------------------ *)
(* Chain fast path                                                    *)
(* ------------------------------------------------------------------ *)

(* Row dominance meets "chain" operands — a family holding exactly one
   set, stored as a hi-spine with every lo pointing at empty (Bryant's
   chain-reduction paper motivates exactly this shape).  The generic
   [no_sup_set] recursion handles them correctly but churns its cache;
   when the second operand is a chain we instead descend its spine,
   allocating only the result spine.  Detection walks the spine once
   and fails fast on the first branching node. *)

let rec is_chain st f =
  if f < 2 then f = base else lo_of st f = empty && is_chain st (hi_of st f)

(* [remove_sup_chain st a t] = no_sup_set a t for a chain [t]: drop from
   [a] every set that contains all of t's set. *)
let rec remove_sup_chain st a t =
  if t = base then empty (* ∅ ⊆ every set *)
  else if a < 2 then a
  else
    let v = var_of st t and var = var_of st a in
    if var > v then a (* no set in a contains v *)
    else if var = v then
      mk st var (remove_sup_chain st (hi_of st a) (hi_of st t)) (lo_of st a)
    else
      mk st var (remove_sup_chain st (hi_of st a) t) (remove_sup_chain st (lo_of st a) t)

(* ------------------------------------------------------------------ *)
(* Dominance                                                          *)
(* ------------------------------------------------------------------ *)

let rec no_sup_set_st st a b =
  (* { s ∈ a : no t ∈ b with t ⊆ s } *)
  if a = empty || b = empty then a
  else if contains_empty_set st b then empty
  else if a = base then a (* b has no ∅, and only ∅ ⊆ ∅ *)
  else if a = b then empty
  else begin
    let r = Cache.find st.nosup_cache a b in
    if r >= 0 then r
    else begin
      let r =
        if Atomic.get cfg_chain && is_chain st b then begin
          st.chain_hits <- st.chain_hits + 1;
          remove_sup_chain st a b
        end
        else begin
          let va = var_of st a and vb = var_of st b in
          if va = vb then begin
            let hi =
              no_sup_set_st st (no_sup_set_st st (hi_of st a) (lo_of st b)) (hi_of st b)
            in
            let lo = no_sup_set_st st (lo_of st a) (lo_of st b) in
            mk st va hi lo
          end
          else if va < vb then
            mk st va (no_sup_set_st st (hi_of st a) b) (no_sup_set_st st (lo_of st a) b)
          else
            (* vb < va: members of b containing vb subsume nothing in a *)
            no_sup_set_st st a (lo_of st b)
        end
      in
      Cache.add st.nosup_cache a b r;
      r
    end
  end

let rec minimal_st st f =
  if f < 2 then f
  else begin
    let r = Cache.find st.minimal_cache f 0 in
    if r >= 0 then r
    else begin
      let lo' = minimal_st st (lo_of st f) in
      let hi' = no_sup_set_st st (minimal_st st (hi_of st f)) lo' in
      let r = mk st (var_of st f) hi' lo' in
      Cache.add st.minimal_cache f 0 r;
      r
    end
  end

let minimal f = minimal_st (state ()) f

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let rec count_st st f =
  if f = empty then 0.
  else if f = base then 1.
  else begin
    let c = Float.Array.get st.counts f in
    if Float.is_nan c then begin
      let c = count_st st (hi_of st f) +. count_st st (lo_of st f) in
      Float.Array.set st.counts f c;
      c
    end
    else c
  end

let count f =
  let st = state () in
  let known = Float.Array.length st.counts in
  if known < st.dd.next then begin
    let counts = Float.Array.make (Array.length st.dd.var) Float.nan in
    Float.Array.blit st.counts 0 counts 0 known;
    st.counts <- counts
  end;
  count_st st f

let singletons f =
  let st = state () in
  let rec go f =
    if f < 2 then []
    else if contains_empty_set st (hi_of st f) then var_of st f :: go (lo_of st f)
    else go (lo_of st f)
  in
  go f

let support f =
  let st = state () in
  Ddstore.new_epoch st.dd;
  let acc = ref [] in
  let rec go f =
    if f >= 2 && Ddstore.visit st.dd f then begin
      acc := var_of st f :: !acc;
      go (hi_of st f);
      go (lo_of st f)
    end
  in
  go f;
  List.sort_uniq Stdlib.compare !acc

let iter_sets f k =
  let st = state () in
  let rec go prefix f =
    if f = base then k (List.rev prefix)
    else if f <> empty then begin
      go (var_of st f :: prefix) (hi_of st f);
      go prefix (lo_of st f)
    end
  in
  go [] f

let fold_sets f ~init ~f:step =
  let acc = ref init in
  iter_sets f (fun s -> acc := step !acc s);
  !acc

let to_sets f = List.rev (fold_sets f ~init:[] ~f:(fun acc s -> s :: acc))

(* ------------------------------------------------------------------ *)
(* Family construction                                                 *)
(* ------------------------------------------------------------------ *)

(* A family is the union of its members' chains (Bryant, "Chain
   Reduction for Binary and Zero-Suppressed Decision Diagrams"), and a
   lexicographically sorted member list lays that union out directly:
   the sets sharing a prefix form one contiguous block, the block's
   distinct next elements are the lo chain of the node that prefix
   reaches, and each element's sub-block is that chain node's hi child.
   So the family is built bottom-up in one pass, children before
   parents, with no union and no intermediate family: every [mk] either
   creates a node of the result or finds it already shared. *)

(* [s] ascending without repeats: as given when it already is (matrix
   rows are), otherwise a sorted deduplicated copy. *)
let normalise_set s =
  let n = Array.length s in
  let rec ascending i = i >= n || (s.(i - 1) < s.(i) && ascending (i + 1)) in
  let s =
    if ascending 1 then s
    else Array.of_list (List.sort_uniq Int.compare (Array.to_list s))
  in
  if n > 0 && s.(0) < 0 then invalid_arg "Zdd.of_sets: negative element";
  s

(* Lexicographic order of ascending sets; a proper prefix sorts first,
   so ∅ precedes every other set. *)
let compare_sets (a : elt array) (b : elt array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la then if i = lb then 0 else -1
    else if i = lb then 1
    else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
    else go (i + 1)
  in
  go 0

let of_arrays sets =
  let st = state () in
  let sets = Array.map normalise_set sets in
  Array.stable_sort compare_sets sets;
  (* [build lo hi d]: the suffixes from position [d] of the members
     [sets.(lo .. hi-1)], which share their first [d] elements.  Members
     ending at [d] (the ∅ suffix, repeated members included) sort first.
     The loop builds the lo chain, last element block first, so the
     recursion only deepens along a set and stack depth is bounded by
     the longest one. *)
  let rec build lo hi d =
    let first = ref lo in
    while !first < hi && Array.length sets.(!first) = d do
      incr first
    done;
    let acc = ref (if !first > lo then base else empty) in
    let stop = ref hi in
    while !stop > !first do
      let v = sets.(!stop - 1).(d) in
      let start = ref (!stop - 1) in
      while !start > !first && sets.(!start - 1).(d) = v do
        decr start
      done;
      acc := mk st v (build !start !stop (d + 1)) !acc;
      stop := !start
    done;
    !acc
  in
  build 0 (Array.length sets) 0

let of_sets sets = of_arrays (Array.of_list (List.map Array.of_list sets))

let size f =
  let st = state () in
  Ddstore.new_epoch st.dd;
  let n = ref 0 in
  let rec go f =
    if f >= 2 && Ddstore.visit st.dd f then begin
      incr n;
      go (hi_of st f);
      go (lo_of st f)
    end
  in
  go f;
  !n
