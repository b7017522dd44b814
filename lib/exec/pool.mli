(** Domain-based worker pool with order-preserving [map].

    Built for the DSE evaluation loop: work items are uneven (a 16-lane
    variant costs far more to lower than the baseline pipe), so items are
    fed to workers from a shared deque of small chunks rather than a
    static partition. {!map} has exact sequential semantics (first
    exception propagates). See the implementation notes in [pool.ml]. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ?jobs ()] — a pool of [jobs] workers (default
    {!default_jobs}; clamped to at least 1). A pool is a configuration
    value: domains are spawned per {!map} call and joined before it
    returns, so a pool never outlives its work. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], capped at a sensible bound. *)

val jobs : t -> int
(** Worker count this pool was created with. *)

val inside_worker : unit -> bool
(** [true] while the calling domain is executing pool work. A {!map}
    issued from inside a worker does not fan out again — it degrades to
    the sequential short-circuit on the worker's own domain, so nested
    dispatch (a parallel sub-computation running within a pooled item)
    can never oversubscribe the machine or deadlock against the dispatch
    waiting on that item. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] — [List.map f xs] evaluated on [jobs t] domains.

    - Results are in input order regardless of completion order.
    - If any application of [f] raises, the first such exception is
      re-raised (with its backtrace) after {e all} workers have been
      joined (no orphaned domains); remaining work is abandoned
      promptly, and tasks that poll [Task.check] unwind early.
    - With [jobs t = 1] (or fewer than two items) this is exactly
      [List.map f xs] on the calling domain.
    - With a {!Faultgen} crash installed, each item draws its task id
      here, in input order, before any work fans out. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ?jobs f] — run [f] with a freshly created pool. *)
