(** Warm state shared across requests, keyed by problem signature.

    The signature of a request is the digest of its format tag and raw
    payload bytes, so byte-identical re-submissions — the repeated or
    near-identical instances a long-running service actually sees — hit
    the same entry.  An entry memoizes the {e parsed} problem (for PLA
    payloads that includes the computed multi-output primes, the
    expensive part) and owns one {!Scg.Warm} multiplier pair that
    {!Scg.solve} warm-starts from and writes back through.

    Thread-safety: the table is mutex-protected; parsing happens outside
    the lock.  A parsed problem is immutable under [Scg.solve] and may
    be shared by concurrent requests, but a [Warm] pair is a plain
    hashtable, so it is {e checked out} exclusively: a second concurrent
    request for the same signature solves cold and its check-in is
    dropped if the slot was refilled first.

    Crash isolation: {!invalidate} drops one signature's entry — parsed
    problem, primes and multiplier memory together — so a request that
    died on this input cannot poison the next one, while every other
    signature keeps its warmth (per-signature, not global,
    invalidation). *)

type problem =
  | P_matrix of Covering.Matrix.t  (** [.ucp] / OR-Library payloads *)
  | P_multi of Logic.Pla.t * Covering.From_logic.multi
      (** a PLA payload with its memoized multi-output prime bridge *)
  | P_kiss of Fsm.Machine.t

type t

val create : capacity:int -> t
(** [capacity] bounds the entry count; beyond it the least-recently-used
    entry whose warm pair is checked {e in} is evicted.  Entries whose
    pair is checked out (a request is solving with them, or they were
    just installed and await their first check-in) are pinned and never
    victims — when every entry is pinned the table runs over capacity
    temporarily, bounded by the worker count. *)

type checkout = {
  problem : problem;
  warm : (Scg.Warm.t * Scg.Warm.t) option;
      (** the signature's multiplier memory, exclusively checked out —
          [None] when another in-flight request holds it (solve cold) *)
  hit : bool;  (** the signature was already cached *)
}

val checkout :
  t ->
  digest:string ->
  parse:(unit -> (problem, Logic.Parse_error.error) result) ->
  (checkout, Logic.Parse_error.error) result
(** Look up [digest], calling [parse] (outside the lock) on a miss.
    Parse failures are returned, not cached.  [parse] may raise
    {!Covering.Infeasible}; it propagates. *)

val checkin : t -> digest:string -> Scg.Warm.t * Scg.Warm.t -> unit
(** Return a multiplier pair after a successful solve.  Dropped silently
    if the entry was invalidated or refilled meanwhile. *)

val invalidate : t -> digest:string -> unit
(** Drop one signature's entry: its parsed problem and its multiplier
    pair. *)

val stats : t -> (string * int) list
(** [hits], [misses], [entries], [invalidations], [evictions] — fed
    into the daemon's [STATS] response. *)
