(** Content-keyed memoization cache.

    The engine keeps its two caches here: the parse+validate cache, keyed
    by a digest of the source bytes, and the full-request response cache
    ([Tytra_engine.Engine]). Each cached value is a pure function of a
    content digest of its inputs, so a hit answers exactly what a fresh
    computation would. The DSE and the cost model keep no cache: an
    estimate costs tens of microseconds, and a digest of its inputs
    about half of that.

    Domain-safe: every access takes the cache mutex. The value thunk of
    {!find_or_add} runs *outside* the lock, so a slow evaluation never
    blocks other domains; two domains racing on the same missing key may
    both compute it (the second insert wins harmlessly — values are
    deterministic by construction of the key).

    Hit/miss/eviction counts are kept unconditionally (for tests and for
    {!stats}) and mirrored into {!Tytra_telemetry.Metrics} under
    [<prefix>.hits] / [<prefix>.misses] / [<prefix>.evictions] when a
    [metrics_prefix] is given. *)

(* Doubly-linked LRU list: front = most recently used. *)
type ('v) node = {
  nd_key : string;
  mutable nd_value : 'v;
  mutable nd_prev : 'v node option;  (* towards the front *)
  mutable nd_next : 'v node option;  (* towards the back *)
}

(* The telemetry counters a cache with a [metrics_prefix] publishes,
   named once at creation, not on every lookup. *)
type names = { n_hits : string; n_misses : string; n_evictions : string }

type 'v t = {
  mutex : Mutex.t;
  table : (string, 'v node) Hashtbl.t;
  capacity : int;
  names : names option;
  mutable front : 'v node option;
  mutable back : 'v node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { st_hits : int; st_misses : int; st_evictions : int; st_size : int }

let create ?metrics_prefix ~capacity () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (max 16 (min capacity 4096));
    capacity = max 1 capacity;
    names =
      Option.map
        (fun p ->
          { n_hits = p ^ ".hits"; n_misses = p ^ ".misses";
            n_evictions = p ^ ".evictions" })
        metrics_prefix;
    front = None;
    back = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* ---- intrusive list plumbing (call with the mutex held) ---- *)

let unlink t nd =
  (match nd.nd_prev with
  | Some p -> p.nd_next <- nd.nd_next
  | None -> t.front <- nd.nd_next);
  (match nd.nd_next with
  | Some nx -> nx.nd_prev <- nd.nd_prev
  | None -> t.back <- nd.nd_prev);
  nd.nd_prev <- None;
  nd.nd_next <- None

let push_front t nd =
  nd.nd_prev <- None;
  nd.nd_next <- t.front;
  (match t.front with Some f -> f.nd_prev <- Some nd | None -> t.back <- Some nd);
  t.front <- Some nd

let touch t nd =
  if t.front != Some nd then begin
    unlink t nd;
    push_front t nd
  end

let evict_lru t =
  match t.back with
  | None -> ()
  | Some nd ->
      unlink t nd;
      Hashtbl.remove t.table nd.nd_key;
      t.evictions <- t.evictions + 1;
      Option.iter (fun n -> Tytra_telemetry.Metrics.incr n.n_evictions) t.names

let count_hit t =
  t.hits <- t.hits + 1;
  Option.iter (fun n -> Tytra_telemetry.Metrics.incr n.n_hits) t.names

let count_miss t =
  t.misses <- t.misses + 1;
  Option.iter (fun n -> Tytra_telemetry.Metrics.incr n.n_misses) t.names

(* ---- public operations ---- *)

let find t ~key =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some nd ->
        touch t nd;
        count_hit t;
        Some nd.nd_value
    | None ->
        count_miss t;
        None
  in
  Mutex.unlock t.mutex;
  r

let add t ~key value =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.table key with
  | Some nd ->
      nd.nd_value <- value;
      touch t nd
  | None ->
      let nd = { nd_key = key; nd_value = value; nd_prev = None; nd_next = None } in
      Hashtbl.replace t.table key nd;
      push_front t nd;
      if Hashtbl.length t.table > t.capacity then evict_lru t);
  Mutex.unlock t.mutex

let find_or_add t ~key f =
  match find t ~key with
  | Some v -> v
  | None ->
      let v = f () in
      add t ~key v;
      v

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      st_hits = t.hits;
      st_misses = t.misses;
      st_evictions = t.evictions;
      st_size = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.mutex;
  s

(** [digest_marshal v] — content digest of a pure-data value via its
    marshalled bytes. Sound as a cache key exactly when [v] contains no
    closures, custom blocks or mutable state observed after keying —
    i.e. for plain algebraic data (IR designs, cost-model inputs,
    calibrations). *)
let digest_marshal (v : 'a) : string =
  Digest.to_hex (Digest.string (Marshal.to_string v []))

(** [digest_key parts] — a collision-resistant key from heterogeneous
    components. Parts are length-prefixed before hashing so that
    ["ab"; "c"] and ["a"; "bc"] cannot collide. *)
let digest_key (parts : string list) : string =
  let b = Buffer.create 64 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))
