(* Hash-consed ZDD engine (Minato's zero-suppressed DDs).

   Canonical form: no node has [hi == empty] (zero-suppression) and every
   (var, hi, lo) triple is unique.  [empty] is the family {}, [base] is {∅}.

   [minimal] implements implicit row dominance through [no_sup_set] (the
   sets of one family that contain no set of another); both recursions
   follow the standard cube-set algebra (see e.g. Coudert, "Two-level
   logic minimization: an overview", INTEGRATION 1994).

   The unique table, tag counter and operation caches live in
   domain-local storage: each OCaml 5 domain owns a private manager, so
   parallel workers never contend on (or corrupt) a shared table.  The
   two constants [empty]/[base] are immutable and shared.  The flip side
   is an ownership rule: a ZDD value is only meaningful on the domain
   that built it — nodes from one domain's table must not be mixed into
   another's operations (see DESIGN.md §10). *)

type elt = int
type t = { tag : int; node : node }

and node =
  | Empty
  | Base
  | Node of { var : elt; hi : t; lo : t }

let empty = { tag = 0; node = Empty }
let base = { tag = 1; node = Base }

let is_empty f = f.tag = 0
let is_base f = f.tag = 1
let equal f g = f == g

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

(* One manager per domain: unique table, tag allocator, peak meter, the
   operation caches and the collector's books.  Tags are domain-private
   (they only key this domain's tables), so independent domains reusing
   the same tag values is harmless. *)
type state = {
  unique : t Unique.t;
  mutable next_tag : int;
  mutable peak : int;
  union_cache : t Cache2.t;
  diff_cache : t Cache2.t;
  nosup_cache : t Cache2.t;
  minimal_cache : t Cache1.t;
  count_cache : float Cache1.t;
  (* lifecycle *)
  mutable young : (int * int * int) list;
      (* unique-table keys inserted since the last collection: the
         nursery a minor sweep scans.  Children are always built before
         parents, so an old node can never point at a young one and
         sweeping only the nursery is sound. *)
  mutable allocs_since_gc : int;
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
        unique = Unique.create (Atomic.get cfg_initial_size);
        next_tag = 2;
        peak = 0;
        union_cache = Cache2.create 4_096;
        diff_cache = Cache2.create 4_096;
        nosup_cache = Cache2.create 4_096;
        minimal_cache = Cache1.create 4_096;
        count_cache = Cache1.create 4_096;
        young = [];
        allocs_since_gc = 0;
        gc_threshold = base;
        threshold_seen = base;
        collections = 0;
        major_collections = 0;
        reclaimed_total = 0;
        live_after_last = 0;
        chain_hits = 0;
      })

let state () = Domain.DLS.get state_key

let mk st var hi lo =
  if is_empty hi then lo
  else
    let key = (var, hi.tag, lo.tag) in
    match Unique.find_opt st.unique key with
    | Some n -> n
    | None ->
      let n = { tag = st.next_tag; node = Node { var; hi; lo } } in
      st.next_tag <- st.next_tag + 1;
      Unique.add st.unique key n;
      st.young <- key :: st.young;
      st.allocs_since_gc <- st.allocs_since_gc + 1;
      let occ = Unique.length st.unique in
      if occ > st.peak then st.peak <- occ;
      n

let node_count () = Unique.length (state ()).unique

let peak_node_count () =
  let st = state () in
  max st.peak (Unique.length st.unique)

let chain_hit_count () = (state ()).chain_hits

let of_set elems =
  let sorted = List.sort_uniq Stdlib.compare elems in
  List.iter (fun v -> if v < 0 then invalid_arg "Zdd.of_set: negative element") sorted;
  let st = state () in
  List.fold_left (fun acc v -> mk st v acc empty) base (List.rev sorted)

let clear_caches_st st =
  Cache2.reset st.union_cache;
  Cache2.reset st.diff_cache;
  Cache2.reset st.nosup_cache;
  Cache1.reset st.minimal_cache;
  Cache1.reset st.count_cache

(* ------------------------------------------------------------------ *)
(* Unique-table lifecycle: mark-and-sweep collection                  *)
(* ------------------------------------------------------------------ *)

(* Mark everything reachable from the caller's roots. *)
let mark_live roots =
  let marked : unit Cache1.t = Cache1.create 4_096 in
  let rec mark f =
    match f.node with
    | Empty | Base -> ()
    | Node { hi; lo; _ } ->
      if not (Cache1.mem marked f.tag) then begin
        Cache1.add marked f.tag ();
        mark hi;
        mark lo
      end
  in
  List.iter mark roots;
  marked

(* Sweep after a full mark.  A minor sweep scans only the nursery
   (sound because parents are always younger than their children, so a
   surviving old node can never point at a swept young one); survivors
   are promoted by clearing [young].  A sweep that reclaims anything
   resets every operation cache: a stale cache hit could hand out a node
   that was just removed from the unique table, and a later [mk] of the
   same triple would then build a physically distinct duplicate,
   breaking canonicity.  A sweep that reclaims nothing keeps them: every
   cached result is still in the table, and tags are never reused, so no
   entry can be stale — and the reduction fixpoint, which collects
   between steps, keeps its memo across a working set that is all live.
   Returns [(scope, reclaimed)] where [scope] is how many table entries
   the sweep examined. *)
let sweep_st st ~roots ~major =
  let marked = mark_live roots in
  let scope, reclaimed =
    if major then begin
      let before = Unique.length st.unique in
      let dead = ref [] in
      Unique.iter
        (fun key n -> if not (Cache1.mem marked n.tag) then dead := key :: !dead)
        st.unique;
      List.iter (Unique.remove st.unique) !dead;
      (before, List.length !dead)
    end
    else begin
      let scope = ref 0 and dead = ref 0 in
      List.iter
        (fun key ->
          incr scope;
          match Unique.find_opt st.unique key with
          | None -> ()
          | Some n ->
            if not (Cache1.mem marked n.tag) then begin
              Unique.remove st.unique key;
              incr dead
            end)
        st.young;
      (!scope, !dead)
    end
  in
  st.young <- [];
  st.allocs_since_gc <- 0;
  st.collections <- st.collections + 1;
  if major then st.major_collections <- st.major_collections + 1;
  st.reclaimed_total <- st.reclaimed_total + reclaimed;
  st.live_after_last <- Unique.length st.unique;
  if reclaimed > 0 then clear_caches_st st;
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
    if st.gc_threshold <= 0 || st.allocs_since_gc < st.gc_threshold then false
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
   [hi] = sets containing v (with v removed), [lo] = sets without v. *)
let cof f v =
  match f.node with
  | Node { var; hi; lo } when var = v -> (hi, lo)
  | Empty | Base | Node _ -> (empty, f)

let top2 f g =
  match (f.node, g.node) with
  | Node { var = a; _ }, Node { var = b; _ } -> if a < b then a else b
  | Node { var = a; _ }, (Empty | Base) -> a
  | (Empty | Base), Node { var = b; _ } -> b
  | (Empty | Base), (Empty | Base) -> assert false

(* ------------------------------------------------------------------ *)
(* Boolean family algebra                                              *)
(* ------------------------------------------------------------------ *)

let rec union_st st f g =
  if f == g then f
  else if is_empty f then g
  else if is_empty g then f
  else begin
    let key = if f.tag <= g.tag then (f.tag, g.tag) else (g.tag, f.tag) in
    match Cache2.find_opt st.union_cache key with
    | Some r -> r
    | None ->
      let v = top2 f g in
      let f1, f0 = cof f v and g1, g0 = cof g v in
      let r = mk st v (union_st st f1 g1) (union_st st f0 g0) in
      Cache2.add st.union_cache key r;
      r
  end

let rec contains_empty_set f =
  match f.node with
  | Empty -> false
  | Base -> true
  | Node { lo; _ } -> contains_empty_set lo

let rec diff_st st f g =
  if f == g || is_empty f then empty
  else if is_empty g then f
  else begin
    let key = (f.tag, g.tag) in
    match Cache2.find_opt st.diff_cache key with
    | Some r -> r
    | None ->
      let r =
        match (f.node, g.node) with
        | Empty, _ -> empty
        | Base, _ -> if contains_empty_set g then empty else base
        | Node { var; hi; lo }, Base ->
          (* g = {∅}: remove the empty set, which lives down the lo spine *)
          mk st var hi (diff_st st lo g)
        | Node _, (Empty | Node _) ->
          (* split on the smaller top variable of the two operands *)
          let v = top2 f g in
          let f1, f0 = cof f v and g1, g0 = cof g v in
          mk st v (diff_st st f1 g1) (diff_st st f0 g0)
      in
      Cache2.add st.diff_cache key r;
      r
  end

let union f g = union_st (state ()) f g
let diff f g = diff_st (state ()) f g

(* ------------------------------------------------------------------ *)
(* Element-wise operations                                             *)
(* ------------------------------------------------------------------ *)

let subset0 f v =
  let st = state () in
  let rec go f =
    match f.node with
    | Empty | Base -> f
    | Node { var; hi; lo } ->
      if var = v then lo else if var > v then f else mk st var (go hi) (go lo)
  in
  go f

let change f v =
  let st = state () in
  let rec go f =
    match f.node with
    | Empty -> empty
    | Base -> mk st v base empty
    | Node { var; hi; lo } ->
      if var = v then mk st var lo hi
      else if var > v then mk st v f empty
      else mk st var (go hi) (go lo)
  in
  go f

(* ------------------------------------------------------------------ *)
(* Chain fast path                                                    *)
(* ------------------------------------------------------------------ *)

(* Row dominance meets "chain" operands — a family holding exactly one
   set, stored as a hi-spine with every lo pointing at empty (Bryant's
   chain-reduction paper motivates exactly this shape).  The generic
   [no_sup_set] recursion handles them correctly but churns its cache;
   when the second operand is a chain we instead descend it as a sorted
   element list, allocating only the result spine.  Detection walks the
   spine once and fails fast on the first branching node. *)

let single_set f =
  let rec go acc f =
    match f.node with
    | Base -> Some (List.rev acc)
    | Empty -> None
    | Node { var; hi; lo } -> if is_empty lo then go (var :: acc) hi else None
  in
  go [] f

(* [remove_sup_chain st a t] = no_sup_set a {t}: drop from [a] every set
   that contains all of [t] (sorted ascending). *)
let rec remove_sup_chain st a t =
  match t with
  | [] -> empty (* ∅ ⊆ every set *)
  | v :: rest -> (
    match a.node with
    | Empty | Base -> a
    | Node { var; hi; lo } ->
      if var > v then a (* no set in a contains v *)
      else if var = v then mk st var (remove_sup_chain st hi rest) lo
      else mk st var (remove_sup_chain st hi t) (remove_sup_chain st lo t))

(* ------------------------------------------------------------------ *)
(* Dominance                                                          *)
(* ------------------------------------------------------------------ *)

let rec no_sup_set_st st a b =
  (* { s ∈ a : no t ∈ b with t ⊆ s } *)
  if is_empty a || is_empty b then a
  else if contains_empty_set b then empty
  else if is_base a then a (* b has no ∅, and only ∅ ⊆ ∅ *)
  else if a == b then empty
  else begin
    let key = (a.tag, b.tag) in
    match Cache2.find_opt st.nosup_cache key with
    | Some r -> r
    | None ->
      let chain =
        if Atomic.get cfg_chain then single_set b else None
      in
      let r =
        match chain with
        | Some t ->
          st.chain_hits <- st.chain_hits + 1;
          remove_sup_chain st a t
        | None -> (
          match (a.node, b.node) with
        | Node { var = va; hi = ha; lo = la }, Node { var = vb; hi = _; lo = lb }
          when va = vb ->
          let hb = (match b.node with Node { hi; _ } -> hi | _ -> assert false) in
          let hi = no_sup_set_st st (no_sup_set_st st ha lb) hb in
          let lo = no_sup_set_st st la lb in
          mk st va hi lo
        | Node { var = va; hi = ha; lo = la }, Node { var = vb; _ } when va < vb ->
          mk st va (no_sup_set_st st ha b) (no_sup_set_st st la b)
        | Node _, Node { lo = lb; _ } ->
          (* vb < va: members of b containing vb subsume nothing in a *)
          no_sup_set_st st a lb
          | (Empty | Base | Node _), (Empty | Base) -> assert false
          | (Empty | Base), Node _ -> assert false)
      in
      Cache2.add st.nosup_cache key r;
      r
  end

let minimal f =
  let st = state () in
  let rec go f =
    match f.node with
    | Empty | Base -> f
    | Node { var; hi; lo } -> (
      match Cache1.find_opt st.minimal_cache f.tag with
      | Some r -> r
      | None ->
        let lo' = go lo in
        let hi' = no_sup_set_st st (go hi) lo' in
        let r = mk st var hi' lo' in
        Cache1.add st.minimal_cache f.tag r;
        r)
  in
  go f

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let count f =
  let st = state () in
  let rec go f =
    match f.node with
    | Empty -> 0.
    | Base -> 1.
    | Node { hi; lo; _ } -> (
      match Cache1.find_opt st.count_cache f.tag with
      | Some c -> c
      | None ->
        let c = go hi +. go lo in
        Cache1.add st.count_cache f.tag c;
        c)
  in
  go f

let rec singletons f =
  match f.node with
  | Empty | Base -> []
  | Node { var; hi; lo } ->
    if contains_empty_set hi then var :: singletons lo else singletons lo

let support f =
  let seen : unit Cache1.t = Cache1.create 256 in
  let acc = ref [] in
  let rec go f =
    match f.node with
    | Empty | Base -> ()
    | Node { var; hi; lo } ->
      if not (Cache1.mem seen f.tag) then begin
        Cache1.add seen f.tag ();
        acc := var :: !acc;
        go hi;
        go lo
      end
  in
  go f;
  List.sort_uniq Stdlib.compare !acc

let iter_sets f k =
  let rec go prefix f =
    match f.node with
    | Empty -> ()
    | Base -> k (List.rev prefix)
    | Node { var; hi; lo } ->
      go (var :: prefix) hi;
      go prefix lo
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
  let seen : unit Cache1.t = Cache1.create 256 in
  let n = ref 0 in
  let rec go f =
    match f.node with
    | Empty | Base -> ()
    | Node { hi; lo; _ } ->
      if not (Cache1.mem seen f.tag) then begin
        Cache1.add seen f.tag ();
        incr n;
        go hi;
        go lo
      end
  in
  go f;
  !n
