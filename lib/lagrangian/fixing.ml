module Matrix = Covering.Matrix

let default_c_hat = 0.001
let default_mu_hat = 0.999
let default_alpha = 2.

let promising ?(c_hat = default_c_hat) ?(mu_hat = default_mu_hat) m ~reduced_costs ~mu =
  let acc = ref [] in
  for j = Matrix.n_cols m - 1 downto 0 do
    if reduced_costs.(j) <= c_hat && mu.(j) >= mu_hat then acc := j :: !acc
  done;
  !acc

let sigma ?(alpha = default_alpha) ~reduced_costs ~mu () =
  Array.mapi (fun j c -> c -. (alpha *. mu.(j))) reduced_costs

(* One pass keeping the [k] best columns seen so far, sorted, in
   [slots].  Columns arrive in index order, so a later column goes ahead
   of a slot only when its σ is strictly smaller.  [Float.compare]
   orders σ as the polymorphic compare of a full sort did, nan first. *)
let best_columns ~sigma ~exclude ~k =
  let n = Array.length sigma in
  let k = min k n in
  if k <= 0 then []
  else begin
    let slots = Array.make k 0 and filled = ref 0 in
    for j = 0 to n - 1 do
      if
        (not exclude.(j))
        && (!filled < k || Float.compare sigma.(j) sigma.(slots.(k - 1)) < 0)
      then begin
        let p = ref (if !filled < k then !filled else k - 1) in
        while !p > 0 && Float.compare sigma.(j) sigma.(slots.(!p - 1)) < 0 do
          slots.(!p) <- slots.(!p - 1);
          decr p
        done;
        slots.(!p) <- j;
        if !filled < k then incr filled
      end
    done;
    Array.to_list (Array.sub slots 0 !filled)
  end

let pick ?alpha ~best_cols ~rand m ~reduced_costs ~mu =
  ignore m;
  let sigma = sigma ?alpha ~reduced_costs ~mu () in
  let exclude = Array.make (Array.length sigma) false in
  match best_columns ~sigma ~exclude ~k:(max 1 best_cols) with
  | [] -> invalid_arg "Fixing.pick: no columns"
  | [ j ] -> j
  | candidates -> List.nth candidates (rand (List.length candidates))
