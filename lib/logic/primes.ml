(* Coudert–Madre implicit prime generation: BDD in, ZDD of cubes out.

   Correctness of the recursion: a prime of f either has no literal of the
   top variable x — then it is an implicant of both cofactors, and maximal
   among the implicants of f₀·f₁ — or it has the literal x̄ (resp. x) — then
   stripping the literal gives a prime of f₀ (resp. f₁) that is not an
   implicant of f₀·f₁ (else the literal could be dropped).  Membership in
   P(f₀·f₁) captures exactly "prime of f₀ and implicant of f₀·f₁", because
   implicants of the product form a sub-order of the implicants of each
   factor. *)

(* P(f) is a function of f's node alone, so one table serves every call
   that shares it; it holds this domain's nodes, so it stays with the
   caller and is never shared across domains *)
type memo = (int, Zdd.t) Hashtbl.t

let memo () : memo = Hashtbl.create 4_096

let of_bdd ?(memo = memo ()) f =
  let rec go f =
    if Bdd.is_zero f then Zdd.empty
    else if Bdd.is_one f then Zdd.base
    else
      match Hashtbl.find_opt memo (Bdd.hash f) with
      | Some p -> p
      | None ->
        let v, f1, f0 = Bdd.cofactors f in
        let pos_var, neg_var = Cube.zdd_literal_vars v in
        let p01 = go (Bdd.band f0 f1) in
        let p0 = go f0 and p1 = go f1 in
        let with_neg = Zdd.change (Zdd.diff p0 p01) neg_var in
        let with_pos = Zdd.change (Zdd.diff p1 p01) pos_var in
        let p = Zdd.union p01 (Zdd.union with_neg with_pos) in
        Hashtbl.add memo (Bdd.hash f) p;
        p
  in
  go f

let of_covers ~on ~dc =
  if Cover.nvars on <> Cover.nvars dc then invalid_arg "Primes.of_covers: arity mismatch";
  of_bdd (Bdd.bor (Cover.to_bdd on) (Cover.to_bdd dc))

let count = Zdd.count

let to_cubes ~nvars zdd =
  List.rev
    (Zdd.fold_sets zdd ~init:[] ~f:(fun acc lits -> Cube.of_literal_set nvars lits :: acc))

let essential ~on ~dc ~primes =
  let n = Cover.nvars on in
  let keep p =
    let others = List.filter (fun q -> not (Cube.equal p q)) primes in
    let shield = Cover.union (Cover.of_cubes n others) dc in
    (* the part of the ON-set inside p that the other primes + DC must
       explain away; if they cannot, p is essential *)
    let part =
      Cover.of_cubes n (List.filter_map (fun c -> Cube.inter c p) (Cover.cubes on))
    in
    not (Cover.covers shield part)
  in
  List.filter keep primes
