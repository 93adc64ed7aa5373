(* A fixed-size Domain pool with per-worker work-stealing deques.

   Concurrency discipline: every deque operation, the pending-task
   counter and both condition variables are protected by one pool-wide
   mutex; tasks themselves run with the mutex released.  Stealing is
   therefore contention on a lock, not a lock-free protocol — for this
   workload (tens of coarse tasks, each milliseconds to minutes) the
   simplicity is worth far more than the nanoseconds.  The mutex also
   provides the happens-before edges that publish task results back to
   the submitting worker: a task's writes precede its pending-counter
   decrement (under the lock), which precedes the submitter observing
   [pending = 0] (under the same lock). *)

(* Owner pushes and pops at the bottom (LIFO, cache-friendly); thieves
   take from the top (FIFO, oldest task first).  Ring buffer over a
   power-of-two array; [top] and [bottom] are absolute counters. *)
module Deque = struct
  type 'a t = {
    mutable buf : 'a option array;  (* length always a power of two *)
    mutable top : int;              (* next slot to steal *)
    mutable bottom : int;           (* next slot to push *)
  }

  let create () = { buf = Array.make 16 None; top = 0; bottom = 0 }
  let size d = d.bottom - d.top

  let grow d =
    let n = Array.length d.buf in
    let buf' = Array.make (2 * n) None in
    for i = d.top to d.bottom - 1 do
      buf'.(i land ((2 * n) - 1)) <- d.buf.(i land (n - 1))
    done;
    d.buf <- buf'

  let push_bottom d x =
    if size d = Array.length d.buf then grow d;
    d.buf.(d.bottom land (Array.length d.buf - 1)) <- Some x;
    d.bottom <- d.bottom + 1

  let pop_bottom d =
    if size d = 0 then None
    else begin
      d.bottom <- d.bottom - 1;
      let i = d.bottom land (Array.length d.buf - 1) in
      let x = d.buf.(i) in
      d.buf.(i) <- None;
      x
    end

  let steal_top d =
    if size d = 0 then None
    else begin
      let i = d.top land (Array.length d.buf - 1) in
      let x = d.buf.(i) in
      d.buf.(i) <- None;
      d.top <- d.top + 1;
      x
    end
end

type pool = {
  size : int;
  mutex : Mutex.t;
  has_work : Condition.t;   (* signalled when tasks are pushed / on shutdown *)
  batch_done : Condition.t; (* signalled when [pending] reaches 0 *)
  deques : (unit -> unit) Deque.t array;
  mutable pending : int;    (* tasks submitted and not yet finished *)
  mutable in_batch : bool;  (* a batch is being driven by some submitter *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

module Pool = struct
  type t = pool

  let jobs p = p.size

  (* Pop our own deque first, then sweep the others.  Caller holds the
     mutex. *)
  let take p i =
    match Deque.pop_bottom p.deques.(i) with
    | Some _ as t -> t
    | None ->
      let rec steal k =
        if k >= p.size then None
        else
          match Deque.steal_top p.deques.((i + k) mod p.size) with
          | Some _ as t -> t
          | None -> steal (k + 1)
      in
      steal 1

  (* Caller holds the mutex. *)
  let finish_task p =
    p.pending <- p.pending - 1;
    if p.pending = 0 then Condition.broadcast p.batch_done

  let worker p i () =
    Mutex.lock p.mutex;
    let rec loop () =
      match take p i with
      | Some task ->
        Mutex.unlock p.mutex;
        task ();
        Mutex.lock p.mutex;
        finish_task p;
        loop ()
      | None ->
        if p.stopping then Mutex.unlock p.mutex
        else begin
          Condition.wait p.has_work p.mutex;
          loop ()
        end
    in
    loop ()

  let create ~jobs =
    if jobs < 1 then invalid_arg "Par.Pool.create: jobs must be >= 1";
    let p =
      {
        size = jobs;
        mutex = Mutex.create ();
        has_work = Condition.create ();
        batch_done = Condition.create ();
        deques = Array.init jobs (fun _ -> Deque.create ());
        pending = 0;
        in_batch = false;
        stopping = false;
        workers = [];
      }
    in
    if jobs > 1 then
      p.workers <- List.init (jobs - 1) (fun k -> Domain.spawn (worker p (k + 1)));
    p

  let shutdown p =
    Mutex.lock p.mutex;
    p.stopping <- true;
    Condition.broadcast p.has_work;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.workers;
    p.workers <- []

  let with_pool ~jobs f =
    let p = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
end

(* Run [tasks] to completion on the pool, the caller driving as worker
   0.  If a batch is already in flight (nested [map] from inside a
   task, or a concurrent submitter) the tasks run sequentially right
   here instead — correct, just not parallel. *)
let run_batch p tasks =
  Mutex.lock p.mutex;
  if p.in_batch || p.stopping then begin
    Mutex.unlock p.mutex;
    Array.iter (fun task -> task ()) tasks
  end
  else begin
    p.in_batch <- true;
    p.pending <- Array.length tasks;
    Array.iteri
      (fun k task -> Deque.push_bottom p.deques.(k mod p.size) task)
      tasks;
    Condition.broadcast p.has_work;
    let rec drive () =
      match Pool.take p 0 with
      | Some task ->
        Mutex.unlock p.mutex;
        task ();
        Mutex.lock p.mutex;
        Pool.finish_task p;
        drive ()
      | None ->
        if p.pending > 0 then begin
          Condition.wait p.batch_done p.mutex;
          drive ()
        end
    in
    drive ();
    p.in_batch <- false;
    Mutex.unlock p.mutex
  end

let map (type a b) ?pool (f : a -> b) (arr : a array) : b array =
  let n = Array.length arr in
  match pool with
  | None -> Array.map f arr
  | Some p when p.size = 1 || n <= 1 -> Array.map f arr
  | Some p ->
    let results : (b, exn) result option array = Array.make n None in
    let tasks =
      Array.init n (fun k () ->
          results.(k) <-
            Some (match f arr.(k) with v -> Ok v | exception e -> Error e))
    in
    run_batch p tasks;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
