(* Flat node store of the decision-diagram engines (Bdd and Zdd).

   A node is an int: 0 and 1 are the two constants and internal nodes
   are numbered from 2 in creation order, a number freed by a collection
   being handed out again by a later creation.  Node [n]'s variable and
   children are [var.(n)], [hi.(n)] and [lo.(n)]; a constant's variable
   reads [max_int] (so the top variable of two operands is the smaller
   read) and a free number's reads -1.  The unique table is an
   open-addressed array of node numbers, probed linearly and kept at
   most half full.  Nothing here is a heap block per node: the store is
   a few large int arrays, so the OCaml GC never promotes, marks or
   moves a node. *)

type t = {
  mutable var : int array;
  mutable hi : int array;
  mutable lo : int array;
  mutable next : int;
  mutable free : int array;
  mutable n_free : int;
  mutable live : int;
  mutable slots : int array;
  mutable shift : int;
  mutable stamp : int array;
  mutable epoch : int;
}

let const_var = max_int

(* Fibonacci hashing: multiply by 2^63/φ² (odd) and keep the top bits. *)
let mult = 0x30e44323405ac201

(* Node numbers stay below 2^31, so two of them pack into one cache key. *)
let max_nodes = 1 lsl 31

let rec log2_ceil n b = if 1 lsl b >= n then b else log2_ceil n (b + 1)

let create ~initial_size =
  let cap = max 16 initial_size in
  let bits = log2_ceil (2 * cap) 4 in
  let var = Array.make cap (-1) in
  var.(0) <- const_var;
  var.(1) <- const_var;
  {
    var;
    hi = Array.make cap 0;
    lo = Array.make cap 0;
    next = 2;
    free = [||];
    n_free = 0;
    live = 0;
    slots = Array.make (1 lsl bits) (-1);
    shift = 63 - bits;
    stamp = Array.make cap 0;
    epoch = 0;
  }

let home st v h l = ((((v * mult) + h) * mult + l) * mult) lsr st.shift

(* First slot of [n]'s probe run that is empty (the table never holds
   [n] when this is called). *)
let rec empty_slot slots mask i =
  if slots.(i) < 0 then i else empty_slot slots mask ((i + 1) land mask)

(* Rebuild the unique table at [bits] bits from the node arrays. *)
let rehash_at st bits =
  let slots = Array.make (1 lsl bits) (-1) in
  st.slots <- slots;
  st.shift <- 63 - bits;
  let mask = (1 lsl bits) - 1 in
  for n = 2 to st.next - 1 do
    let v = st.var.(n) in
    if v >= 0 then slots.(empty_slot slots mask (home st v st.hi.(n) st.lo.(n))) <- n
  done

let rehash st = rehash_at st (63 - st.shift)

let grow a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_nodes st =
  let cap = 2 * Array.length st.var in
  if cap > max_nodes then failwith "Ddstore: more than 2^31 nodes";
  st.var <- grow st.var cap (-1);
  st.hi <- grow st.hi cap 0;
  st.lo <- grow st.lo cap 0;
  st.stamp <- grow st.stamp cap 0

let add_at st i v h l =
  let n =
    if st.n_free > 0 then begin
      st.n_free <- st.n_free - 1;
      st.free.(st.n_free)
    end
    else begin
      if st.next = Array.length st.var then grow_nodes st;
      let n = st.next in
      st.next <- n + 1;
      n
    end
  in
  st.var.(n) <- v;
  st.hi.(n) <- h;
  st.lo.(n) <- l;
  st.slots.(i) <- n;
  st.live <- st.live + 1;
  if 2 * st.live > Array.length st.slots then rehash_at st (64 - st.shift);
  n

let rec probe st v h l mask i =
  let n = st.slots.(i) in
  if n < 0 then add_at st i v h l
  else if st.var.(n) = v && st.hi.(n) = h && st.lo.(n) = l then n
  else probe st v h l mask ((i + 1) land mask)

let find_or_add st v h l = probe st v h l (Array.length st.slots - 1) (home st v h l)

let release st n =
  st.var.(n) <- -1;
  if st.n_free = Array.length st.free then
    st.free <- grow st.free (max 64 (2 * st.n_free)) 0;
  st.free.(st.n_free) <- n;
  st.n_free <- st.n_free + 1;
  st.live <- st.live - 1

let new_epoch st = st.epoch <- st.epoch + 1

let visit st n =
  if st.stamp.(n) = st.epoch then false
  else begin
    st.stamp.(n) <- st.epoch;
    true
  end

(* Operation caches: slot [i] holds a key in [data.(2i)] (-1 when
   empty) and its value in [data.(2i+1)].  A key packs two node numbers
   ([a lsl 31 lor b]); one-operand caches pass [b = 0]. *)
module Cache = struct
  type nonrec t = { mutable data : int array; mutable shift : int; mutable count : int }

  let start_bits = 6

  let create () =
    { data = Array.make (2 lsl start_bits) (-1); shift = 63 - start_bits; count = 0 }

  (* the slot holding [k], or the empty slot ending its probe run *)
  let rec slot data k mask i =
    let k' = data.(2 * i) in
    if k' = k || k' < 0 then i else slot data k mask ((i + 1) land mask)

  let slot_of c k = slot c.data k ((Array.length c.data lsr 1) - 1) ((k * mult) lsr c.shift)

  let find c a b =
    let k = (a lsl 31) lor b in
    let i = slot_of c k in
    if c.data.(2 * i) = k then c.data.((2 * i) + 1) else -1

  let resize c bits =
    let old = c.data in
    c.data <- Array.make (2 lsl bits) (-1);
    c.shift <- 63 - bits;
    for i = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * i) in
      if k >= 0 then begin
        let j = slot_of c k in
        c.data.(2 * j) <- k;
        c.data.((2 * j) + 1) <- old.((2 * i) + 1)
      end
    done

  let add c a b r =
    let k = (a lsl 31) lor b in
    let i = slot_of c k in
    if c.data.(2 * i) < 0 then begin
      c.data.(2 * i) <- k;
      c.count <- c.count + 1;
      c.data.((2 * i) + 1) <- r;
      if 4 * c.count > Array.length c.data then resize c (64 - c.shift)
    end
    else c.data.((2 * i) + 1) <- r

  let clear c =
    if c.count > 0 then begin
      if Array.length c.data > 2 lsl start_bits then begin
        c.data <- Array.make (2 lsl start_bits) (-1);
        c.shift <- 63 - start_bits
      end
      else Array.fill c.data 0 (Array.length c.data) (-1);
      c.count <- 0
    end
end
