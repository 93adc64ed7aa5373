type t = {
  machine : Machine.t;
  compatible : bool array array;
}

(* Paull-Unger: start from output compatibility, then repeatedly mark a
   pair incompatible when it implies an incompatible pair. *)
let analyse m =
  let n = Machine.n_states m in
  let compatible = Array.make_matrix n n true in
  for s = 0 to n - 1 do
    for u = s + 1 to n - 1 do
      let ok = Machine.outputs_compatible m s u in
      compatible.(s).(u) <- ok;
      compatible.(u).(s) <- ok
    done
  done;
  let implied = Array.make_matrix n n [] in
  for s = 0 to n - 1 do
    for u = s + 1 to n - 1 do
      implied.(s).(u) <- Machine.implied_pairs m s u
    done
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      for u = s + 1 to n - 1 do
        if compatible.(s).(u) then
          if List.exists (fun (a, b) -> not compatible.(a).(b)) implied.(s).(u) then begin
            compatible.(s).(u) <- false;
            compatible.(u).(s) <- false;
            changed := true
          end
      done
    done
  done;
  { machine = m; compatible }

let pairs_incompatible t s u = s <> u && not t.compatible.(s).(u)

let all_compatibles ?(limit = 100_000) t =
  let n = Machine.n_states t.machine in
  let acc = ref [] in
  let count = ref 0 in
  (* enumerate cliques: extend each clique only with higher-indexed,
     pairwise-compatible states *)
  let rec extend clique candidates =
    List.iteri
      (fun k s ->
        let clique' = clique @ [ s ] in
        incr count;
        if !count > limit then invalid_arg "Compat.all_compatibles: too many compatibles";
        acc := clique' :: !acc;
        let candidates' =
          List.filteri (fun k' _ -> k' > k) candidates
          |> List.filter (fun u -> t.compatible.(s).(u))
        in
        extend clique' candidates')
      candidates
  in
  extend [] (List.init n Fun.id);
  List.sort
    (fun a b -> Stdlib.compare (List.length b, a) (List.length a, b))
    !acc

let implied_classes t set =
  let m = t.machine in
  let classes = ref [] in
  for x = 0 to (1 lsl m.Machine.ni) - 1 do
    let successors =
      List.filter_map
        (fun s ->
          match Machine.step m ~state:s ~input:x with
          | Some (Some nxt, _) -> Some nxt
          | Some (None, _) | None -> None)
        set
    in
    let cls = List.sort_uniq Stdlib.compare successors in
    if List.length cls >= 2 then begin
      let inside = List.for_all (fun s -> List.mem s set) cls in
      if (not inside) && not (List.mem cls !classes) then classes := cls :: !classes
    end
  done;
  List.sort Stdlib.compare !classes

let subset a b = List.for_all (fun x -> List.mem x b) a

let prime_compatibles ?limit t =
  let compatibles = all_compatibles ?limit t in
  let gamma = List.map (fun c -> (c, implied_classes t c)) compatibles in
  (* C is dominated by C' ⊃ C when every implied class of C' is contained
     in C or in some implied class of C *)
  let dominated (c, gc) =
    List.exists
      (fun (c', gc') ->
        c' <> c
        && subset c c'
        && List.for_all
             (fun d' -> subset d' c || List.exists (fun d -> subset d' d) gc)
             gc')
      gamma
  in
  List.filter (fun cg -> not (dominated cg)) gamma |> List.map fst
