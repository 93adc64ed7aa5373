type trace_item =
  | Essential of { id : int; cost : int }
  | Gimpel of { virtual_id : int; cheap_id : int; dear_id : int; base_cost : int }

type trace = trace_item list

type result = {
  core : Matrix.t;
  trace : trace;
  fixed_cost : int;
}

let lift trace sol =
  (* process newest-first so that virtual columns referenced by later
     reductions get resolved by the Gimpel item that created them *)
  List.fold_left
    (fun sol item ->
      match item with
      | Essential { id; _ } -> id :: sol
      | Gimpel { virtual_id; cheap_id; dear_id; _ } ->
        if List.mem virtual_id sol then
          dear_id :: List.filter (fun j -> j <> virtual_id) sol
        else cheap_id :: sol)
    sol (List.rev trace)

let lifted_cost ~original trace sol =
  Matrix.cost_of_ids ~original (lift trace sol)
