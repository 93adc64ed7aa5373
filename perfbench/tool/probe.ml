(* probe — a fixed amount of work that uses none of the solver's code.

   The benchmark times it in fresh processes through each run, beside the
   solves, as a gauge of how fast the shared host happens to be (../run.py).
   Its mix — a process start, about 20 MB of fresh heap, sorting, hashing
   and list traversal — slows down with the host much as a cold solve
   does.  It prints a checksum, so that the work cannot be optimised away
   and a wrong build shows. *)

let () =
  let state = ref 12345 in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state
  in
  let n = 30_000 in
  let a = Array.init n (fun _ -> next ()) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> Hashtbl.replace h (x land 0xFFFF) i) a;
  let l = List.init n (fun i -> a.(n - 1 - i) lxor i) in
  let l = List.sort compare (List.filter (fun x -> x land 3 <> 0) l) in
  let sum = List.fold_left (fun s x -> (s + (x land 0xFFFF)) land 0x3FFFFFFF) 0 l in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if Hashtbl.mem h ((a.(i) lsr 7) land 0xFFFF) then incr hits
  done;
  Printf.printf "%d %d %d\n" sum !hits (Hashtbl.length h)
