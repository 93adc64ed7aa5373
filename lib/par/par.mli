(** Domain-backed parallel execution.

    A fixed-size worker pool built on OCaml 5 [Domain]s, with one
    work-stealing deque per worker.  The pool executes {e batches}: the
    caller submits an array of independent tasks, participates in the
    batch as worker 0, and returns when every task has finished.
    Results are keyed by task index, so the output order never depends
    on scheduling — [map pool f a] is observationally [Array.map f a].

    Design constraints served here (see DESIGN.md §10):
    - a pool of [jobs] workers runs the calling domain plus [jobs - 1]
      spawned domains; [jobs = 1] spawns nothing and degenerates to the
      sequential path;
    - tasks must not share mutable state unless that state is
      thread-safe; [ucp_solve]'s batch mode gives each instance its
      own budget fork, its own output buffer and (via domain-local
      storage) its own ZDD manager;
    - nested [map] calls on the same pool from inside a task do not
      deadlock — they detect the re-entry and run sequentially on the
      calling worker. *)

module Pool : sig
  type t
  (** A worker pool.  One batch runs at a time; concurrent or nested
      submissions fall back to sequential execution on the caller. *)

  val create : jobs:int -> t
  (** [create ~jobs] starts a pool of [jobs] workers total (the caller
      counts as one; [jobs - 1] domains are spawned).  [jobs <= 0]
      raises [Invalid_argument].  [jobs = 1] spawns no domains. *)

  val jobs : t -> int
  (** Worker count the pool was created with. *)

  val shutdown : t -> unit
  (** Stop and join the spawned domains.  Call only after every [map]
      has returned; idempotent. *)

  val with_pool : jobs:int -> (t -> 'a) -> 'a
  (** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
      afterwards, also on exception. *)
end

val default_jobs : unit -> int
(** The runtime's recommended domain count
    ({!Domain.recommended_domain_count}); what [--jobs 0] resolves to. *)

val map : ?pool:Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?pool f a] applies [f] to every element of [a] and returns the
    results in index order.  Without a pool (or with a one-worker pool,
    or on arrays of length [<= 1]) this is exactly [Array.map f a].
    With a pool, tasks are distributed over the workers; all tasks run
    to completion even if some raise, then the exception of the
    lowest-indexed failing task is re-raised in the caller. *)
