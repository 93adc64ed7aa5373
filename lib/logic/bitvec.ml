(* Int-array bit vectors.  Bits beyond [len] in the last word are kept zero
   as an invariant so that [equal]/[hash]/[is_zero] can work word-wise. *)

let word_bits = Sys.int_size

type t = { len : int; words : int array }

let nwords len = if len = 0 then 0 else ((len - 1) / word_bits) + 1

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (nwords len) 0 }

(* Mask of the valid bits in the last word. *)
let tail_mask len =
  let r = len mod word_bits in
  if r = 0 then -1 else (1 lsl r) - 1

let create_full len =
  let v = create len in
  let n = nwords len in
  Array.fill v.words 0 n (-1);
  if n > 0 then v.words.(n - 1) <- v.words.(n - 1) land tail_mask len;
  v

let length v = v.len
let copy v = { len = v.len; words = Array.copy v.words }

let check_index v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of bounds"

let get v i =
  check_index v i;
  v.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let set v i b =
  check_index v i;
  let w = i / word_bits and m = 1 lsl (i mod word_bits) in
  if b then v.words.(w) <- v.words.(w) lor m else v.words.(w) <- v.words.(w) land lnot m

let check_same a b = if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let map2 f a b =
  check_same a b;
  let r = create a.len in
  for i = 0 to Array.length a.words - 1 do
    r.words.(i) <- f a.words.(i) b.words.(i)
  done;
  (* f may set padding bits (e.g. lnot); re-establish the invariant *)
  let n = Array.length r.words in
  if n > 0 then r.words.(n - 1) <- r.words.(n - 1) land tail_mask r.len;
  r

let logand a b = map2 ( land ) a b
let logor a b = map2 ( lor ) a b
let logxor a b = map2 ( lxor ) a b
let andnot a b = map2 (fun x y -> x land lnot y) a b

let lognot a =
  let r = create a.len in
  for i = 0 to Array.length a.words - 1 do
    r.words.(i) <- lnot a.words.(i)
  done;
  let n = Array.length r.words in
  if n > 0 then r.words.(n - 1) <- r.words.(n - 1) land tail_mask r.len;
  r

let equal a b = a.len = b.len && Array.for_all2 ( = ) a.words b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash a = Hashtbl.hash (a.len, a.words)

let is_zero a = Array.for_all (fun w -> w = 0) a.words

let is_full a =
  let n = Array.length a.words in
  let ok = ref true in
  for i = 0 to n - 2 do
    if a.words.(i) <> -1 then ok := false
  done;
  if n > 0 && a.words.(n - 1) <> tail_mask a.len then ok := false;
  !ok && (a.len > 0 || true)

let subset a b =
  check_same a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let disjoint a b =
  check_same a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land b.words.(i) <> 0 then ok := false
  done;
  !ok

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let popcount a = Array.fold_left (fun acc w -> acc + popcount_word w) 0 a.words

let iter_ones a k =
  for wi = 0 to Array.length a.words - 1 do
    (* shift the word down, stopping after its highest set bit *)
    let w = ref a.words.(wi) and i = ref (wi * word_bits) in
    while !w <> 0 do
      if !w land 1 <> 0 then k !i;
      w := !w lsr 1;
      incr i
    done
  done

let fold_ones a ~init ~f =
  let acc = ref init in
  iter_ones a (fun i -> acc := f !acc i);
  !acc

let to_string a = String.init a.len (fun i -> if get a i then '1' else '0')

let of_string s =
  let v = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set v i true
      | _ -> invalid_arg "Bitvec.of_string: expected '0' or '1'")
    s;
  v
