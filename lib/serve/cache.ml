type problem =
  | P_matrix of Covering.Matrix.t
  | P_multi of Logic.Pla.t * Covering.From_logic.multi
  | P_kiss of Fsm.Machine.t

type entry = {
  problem : problem;
  mutable last_used : int;
}

type t = {
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  capacity : int;
  mutable clock : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    capacity;
    clock = 0;
    hit_count = 0;
    miss_count = 0;
    invalidations = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

type checkout = {
  problem : problem;
  hit : bool;
}

(* shared matrices must have their lazy id->index table forced while
   still unshared — the same rule batch mode follows (ucp_solve) *)
let force_lazy_indexes = function
  | P_matrix m -> ignore (Covering.Matrix.col_index_of_id m 0)
  | P_multi (_, bridge) ->
    ignore (Covering.Matrix.col_index_of_id bridge.Covering.From_logic.mmatrix 0)
  | P_kiss _ -> ()

let touch t entry =
  t.clock <- t.clock + 1;
  entry.last_used <- t.clock

(* plain LRU: every entry is a victim, since a request solving with an
   evicted problem keeps its own reference to it *)
let evict_one t =
  if Hashtbl.length t.table >= t.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k (e : entry) ->
        match !victim with
        | Some (_, best) when best <= e.last_used -> ()
        | Some _ | None -> victim := Some (k, e.last_used))
      t.table;
    match !victim with
    | None -> ()
    | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
  end

let checkout t ~digest ~parse =
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.table digest with
        | Some entry ->
          touch t entry;
          t.hit_count <- t.hit_count + 1;
          Some { problem = entry.problem; hit = true }
        | None ->
          t.miss_count <- t.miss_count + 1;
          None)
  in
  match cached with
  | Some c -> Ok c
  | None -> (
    (* parse outside the lock: payloads can be large and PLA payloads
       compute their primes here *)
    match parse () with
    | Error e -> Error e
    | Ok problem ->
      force_lazy_indexes problem;
      locked t (fun () ->
          match Hashtbl.find_opt t.table digest with
          | Some entry ->
            (* raced with another miss for the same signature: keep the
               installed entry *)
            touch t entry;
            Ok { problem = entry.problem; hit = true }
          | None ->
            evict_one t;
            let entry = { problem; last_used = 0 } in
            touch t entry;
            Hashtbl.replace t.table digest entry;
            Ok { problem; hit = false }))

let invalidate t ~digest =
  locked t (fun () ->
      match Hashtbl.find_opt t.table digest with
      | Some _ ->
        Hashtbl.remove t.table digest;
        t.invalidations <- t.invalidations + 1
      | None -> ())

let stats t =
  locked t (fun () ->
      [
        ("hits", t.hit_count);
        ("misses", t.miss_count);
        ("entries", Hashtbl.length t.table);
        ("invalidations", t.invalidations);
        ("evictions", t.evictions);
      ])
