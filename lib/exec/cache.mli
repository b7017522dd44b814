(** Bounded, domain-safe LRU cache keyed by content digests.

    Holds the engine's parse+validate and response caches; nothing below
    the engine caches. See [cache.ml] for the concurrency contract. *)

type 'v t

val create : ?metrics_prefix:string -> capacity:int -> unit -> 'v t
(** [create ?metrics_prefix ~capacity ()] — an empty cache holding at
    most [capacity] entries (clamped to ≥ 1); least-recently-used
    entries are evicted past that. When [metrics_prefix] is given,
    hit/miss/eviction counts are also published as telemetry counters
    [<prefix>.hits], [<prefix>.misses], [<prefix>.evictions]. *)

val find : 'v t -> key:string -> 'v option
(** Lookup; counts a hit or a miss and refreshes LRU order on hit. *)

val add : 'v t -> key:string -> 'v -> unit
(** Insert or overwrite; evicts the LRU entry when over capacity. *)

val find_or_add : 'v t -> key:string -> (unit -> 'v) -> 'v
(** [find_or_add t ~key f] — cached value for [key], computing and
    inserting [f ()] on a miss. [f] runs outside the cache lock; under
    a concurrent miss on the same key [f] may run more than once. *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_size : int;
}

val stats : 'v t -> stats
(** Counts since creation; [st_size] is the number of entries held. *)

val digest_key : string list -> string
(** Collision-resistant hex digest of a list of key components
    (length-prefixed, so component boundaries cannot alias). *)

val digest_marshal : 'a -> string
(** Content digest of a pure-data value (via [Marshal]). Use for
    structural keys over IR values, cost-model inputs or calibrations;
    unsound for values containing closures or mutable state that changes
    after keying. *)
