(* Positional-cube notation: bit [2i] = "variable i may be 1",
   bit [2i+1] = "variable i may be 0".  Invariant: every variable has at
   least one bit set (cubes are never empty). *)

type t = { n : int; bits : Bitvec.t }

type phase =
  | Zero
  | One
  | Dash

let pos_bit i = 2 * i
let neg_bit i = (2 * i) + 1

let universe n =
  if n < 0 then invalid_arg "Cube.universe: negative arity";
  { n; bits = Bitvec.create_full (2 * n) }

let nvars c = c.n

let phase c i =
  if i < 0 || i >= c.n then invalid_arg "Cube.phase: variable out of range";
  let p = Bitvec.get c.bits (pos_bit i) and q = Bitvec.get c.bits (neg_bit i) in
  match (p, q) with
  | true, true -> Dash
  | true, false -> One
  | false, true -> Zero
  | false, false -> assert false (* excluded by the non-emptiness invariant *)

let set_phase c i p =
  if i < 0 || i >= c.n then invalid_arg "Cube.set_phase: variable out of range";
  let bits = Bitvec.copy c.bits in
  let pos, neg =
    match p with
    | One -> (true, false)
    | Zero -> (false, true)
    | Dash -> (true, true)
  in
  Bitvec.set bits (pos_bit i) pos;
  Bitvec.set bits (neg_bit i) neg;
  Some { c with bits }

(* One vector for the whole cube: a literal keeps its own phase's bit
   and clears the other, so a literal whose bit is already clear
   contradicts an earlier one. *)
let of_literals n lits =
  let bits = (universe n).bits in
  List.iter
    (fun (i, positive) ->
      if i < 0 || i >= n then invalid_arg "Cube.of_literals: variable out of range";
      let keep, drop = if positive then (pos_bit i, neg_bit i) else (neg_bit i, pos_bit i) in
      if not (Bitvec.get bits keep) then invalid_arg "Cube.of_literals: contradictory literals";
      Bitvec.set bits drop false)
    lits;
  { n; bits }

let of_string s =
  let n = String.length s in
  let c = universe n in
  let bits = Bitvec.copy c.bits in
  String.iteri
    (fun i ch ->
      match ch with
      | '0' -> Bitvec.set bits (pos_bit i) false
      | '1' -> Bitvec.set bits (neg_bit i) false
      | '-' | '~' | '2' -> ()
      | _ -> invalid_arg "Cube.of_string: expected '0', '1' or '-'")
    s;
  { n; bits }

let to_string c =
  String.init c.n (fun i ->
      match phase c i with
      | Zero -> '0'
      | One -> '1'
      | Dash -> '-')

let pp ppf c = Format.pp_print_string ppf (to_string c)

let equal a b = a.n = b.n && Bitvec.equal a.bits b.bits

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c else Bitvec.compare a.bits b.bits

let hash c = Bitvec.hash c.bits

(* A 2n-bit vector is a valid cube iff every variable keeps a bit set. *)
let valid n bits =
  let ok = ref true in
  for i = 0 to n - 1 do
    if (not (Bitvec.get bits (pos_bit i))) && not (Bitvec.get bits (neg_bit i)) then
      ok := false
  done;
  !ok

let inter a b =
  if a.n <> b.n then invalid_arg "Cube.inter: arity mismatch";
  let bits = Bitvec.logand a.bits b.bits in
  if valid a.n bits then Some { n = a.n; bits } else None

let subsumes big small =
  if big.n <> small.n then invalid_arg "Cube.subsumes: arity mismatch";
  Bitvec.subset small.bits big.bits

let distance a b =
  if a.n <> b.n then invalid_arg "Cube.distance: arity mismatch";
  let bits = Bitvec.logand a.bits b.bits in
  let d = ref 0 in
  for i = 0 to a.n - 1 do
    if (not (Bitvec.get bits (pos_bit i))) && not (Bitvec.get bits (neg_bit i)) then incr d
  done;
  !d

let supercube a b =
  if a.n <> b.n then invalid_arg "Cube.supercube: arity mismatch";
  { n = a.n; bits = Bitvec.logor a.bits b.bits }

let raise_var c i =
  match set_phase c i Dash with
  | Some c -> c
  | None -> assert false

let consensus a b =
  if distance a b <> 1 then None
  else begin
    (* exactly one conflicting variable: raise it in the intersection of
       the remaining positions *)
    let bits = Bitvec.logand a.bits b.bits in
    let conflict = ref (-1) in
    for i = 0 to a.n - 1 do
      if (not (Bitvec.get bits (pos_bit i))) && not (Bitvec.get bits (neg_bit i)) then
        conflict := i
    done;
    assert (!conflict >= 0);
    Bitvec.set bits (pos_bit !conflict) true;
    Bitvec.set bits (neg_bit !conflict) true;
    Some { n = a.n; bits }
  end

let cofactor c ~by =
  (* espresso cofactor: empty when disjoint, otherwise raise to don't-care
     every variable constrained by [by] *)
  match inter c by with
  | None -> None
  | Some _ ->
    let bits = Bitvec.copy c.bits in
    for i = 0 to c.n - 1 do
      (match phase by i with
      | Dash -> ()
      | One | Zero ->
        Bitvec.set bits (pos_bit i) true;
        Bitvec.set bits (neg_bit i) true)
    done;
    Some { n = c.n; bits }

(* The int-minterm form: bit [i] of [care] marks a literal on variable
   [i], and bit [i] of [value] is its phase. *)
let masks c =
  if c.n > 62 then invalid_arg "Cube.masks: too many variables for int minterms";
  let care = ref 0 and value = ref 0 in
  for i = 0 to c.n - 1 do
    let p = Bitvec.get c.bits (pos_bit i) and q = Bitvec.get c.bits (neg_bit i) in
    if p <> q then begin
      care := !care lor (1 lsl i);
      if p then value := !value lor (1 lsl i)
    end
  done;
  (!care, !value)

(* one bit read per variable, stopping at the first literal [m] violates *)
let covers_minterm c m =
  if c.n > 62 then invalid_arg "Cube.covers_minterm: too many variables for int minterms";
  let rec go i =
    i >= c.n
    || (Bitvec.get c.bits (if m land (1 lsl i) <> 0 then pos_bit i else neg_bit i)
       && go (i + 1))
  in
  go 0

let literal_count c =
  let k = ref 0 in
  for i = 0 to c.n - 1 do
    match phase c i with
    | Dash -> ()
    | One | Zero -> incr k
  done;
  !k

let free_count c = c.n - literal_count c

let literals c =
  let acc = ref [] in
  for i = c.n - 1 downto 0 do
    match phase c i with
    | One -> acc := (i, true) :: !acc
    | Zero -> acc := (i, false) :: !acc
    | Dash -> ()
  done;
  !acc

let iter_minterms c k =
  let care, value = masks c in
  let free = lnot care land ((1 lsl c.n) - 1) in
  (* the submasks of [free] in ascending order: (s - free) land free is
     the next one after s *)
  let rec go s =
    k (value lor s);
    if s <> free then go ((s - free) land free)
  in
  go 0

let to_bdd c = Bdd.cube_of_literals (literals c)

let zdd_literal_vars i = (2 * i, (2 * i) + 1)

let to_literal_set c =
  List.map
    (fun (i, positive) ->
      let pos, neg = zdd_literal_vars i in
      if positive then pos else neg)
    (literals c)

let of_literal_set n vars =
  of_literals n
    (List.map
       (fun v ->
         let i = v / 2 in
         if v < 0 || i >= n then invalid_arg "Cube.of_literal_set: literal out of range";
         (i, v mod 2 = 0))
       vars)
