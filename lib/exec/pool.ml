(** Domain-based worker pool for the evaluation loop.

    The DSE sweep is embarrassingly parallel — every (variant, device,
    form) point lowers and costs independently — but variants are
    *uneven*: a 16-lane variant elaborates an order of magnitude more IR
    than the baseline pipe. A static block partition would leave most
    domains idle behind the one that drew the widest variants, so [map]
    feeds workers from a shared deque of small index chunks: each worker
    pops the next chunk when it runs dry, which bounds the straggler
    penalty by one chunk rather than one block.

    [map] keeps exactly sequential-equivalent semantics: results in input
    order, the first exception re-raised after all domains are joined,
    [jobs = 1] short-circuiting to [List.map]. When a {!Faultgen} crash
    is installed, every item draws its task id at submission, in input
    order, and the item with the installed id kills the process.

    Shutdown is unconditional: workers are joined through {!join_all},
    which joins every domain even when an earlier join re-raises a task
    exception, so no domain is ever orphaned (and a spawn failure
    mid-fanout aborts and joins the domains already running). *)

type t = { pool_jobs : int }

(** Upper bound used by [default_jobs]: going past the physical core
    count only adds scheduling noise to a CPU-bound sweep. *)
let max_sensible_jobs = 64

let default_jobs () =
  min max_sensible_jobs (Domain.recommended_domain_count ())

let create ?jobs () =
  let j = match jobs with Some j -> j | None -> default_jobs () in
  { pool_jobs = max 1 j }

let jobs t = t.pool_jobs

(* ------------------------------------------------------------------ *)
(* Nested-dispatch guard                                                *)
(* ------------------------------------------------------------------ *)

(* Set while a domain is executing pool work. A [map] issued from inside
   a worker (a pooled item that runs a parallel sub-computation of its
   own) must not fan out again: the nested spawn would oversubscribe
   the machine jobs-fold and, once pools hold queues or other shared
   resources, deadlock against the dispatch that is waiting on this
   very item. Nested maps therefore degrade to the sequential
   short-circuit on the worker's own domain. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let inside_worker () = Domain.DLS.get in_worker_key

let as_worker f =
  Domain.DLS.set in_worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key false) f

(* ------------------------------------------------------------------ *)
(* Work deque: index chunks [lo, hi), popped front-first under a lock.  *)
(* ------------------------------------------------------------------ *)

type deque = {
  dq_mutex : Mutex.t;
  mutable dq_chunks : (int * int) list;
}

let deque_of ~n ~workers =
  (* Small chunks (≈4 per worker) so an expensive tail item cannot hold
     the whole sweep hostage; at least 1 so tiny inputs still terminate. *)
  let chunk = max 1 (n / (workers * 4)) in
  let rec build lo acc =
    if lo >= n then List.rev acc
    else build (lo + chunk) ((lo, min n (lo + chunk)) :: acc)
  in
  { dq_mutex = Mutex.create (); dq_chunks = build 0 [] }

let deque_pop dq =
  Mutex.lock dq.dq_mutex;
  let r =
    match dq.dq_chunks with
    | [] -> None
    | c :: tl ->
        dq.dq_chunks <- tl;
        Some c
  in
  Mutex.unlock dq.dq_mutex;
  r

(* ------------------------------------------------------------------ *)
(* Shutdown: join everything, always                                    *)
(* ------------------------------------------------------------------ *)

(** Join every domain even when an earlier join re-raises (a task
    exception that escaped a worker body); the first such exception is
    re-raised only after the whole list is joined, so no domain is
    orphaned behind a propagating failure. *)
let join_all domains =
  let first = ref None in
  List.iter
    (fun d ->
      try Domain.join d
      with e -> (
        let bt = Printexc.get_raw_backtrace () in
        match !first with None -> first := Some (e, bt) | Some _ -> ()))
    domains;
  match !first with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(** Spawn [n] workers; if a spawn fails mid-fanout (resource limits),
    flip [abort] so already-running cooperative workers wind down, join
    them, and re-raise — never leaks the partial fleet. *)
let spawn_all ~abort n worker =
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match Domain.spawn worker with
      | d -> go (i + 1) (d :: acc)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set abort true;
          (try join_all (List.rev acc) with _ -> ());
          Printexc.raise_with_backtrace e bt
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* map                                                                  *)
(* ------------------------------------------------------------------ *)

type 'b slot = Pending | Done of 'b

(* [List.map f xs], fanned out over [jobs t] domains. Order-preserving;
   re-raises the first worker exception. *)
let fan_out (t : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  (* Dispatch accounting is per call, published on the sequential
     short-circuit too: exec.pool.* must be a pure function of the
     workload, not of how many cores the machine happens to have
     (perf_guard gates these counters on exact equality). *)
  Tytra_telemetry.Metrics.incr "exec.pool.maps";
  Tytra_telemetry.Metrics.add "exec.pool.items" (float_of_int n);
  if t.pool_jobs <= 1 || n <= 1 || inside_worker () then List.map f xs
  else begin
    let workers = min t.pool_jobs n in
    let input = Array.of_list xs in
    let results = Array.make n Pending in
    let dq = deque_of ~n ~workers in
    let failure_mutex = Mutex.create () in
    let failure : (exn * Printexc.raw_backtrace) option ref = ref None in
    let failed = Atomic.make false in
    let record_failure e bt =
      Mutex.lock failure_mutex;
      if !failure = None then failure := Some (e, bt);
      Mutex.unlock failure_mutex;
      Atomic.set failed true
    in
    let worker () =
      let rec drain () =
        if Atomic.get failed then ()
        else
          match deque_pop dq with
          | None -> ()
          | Some (lo, hi) ->
              (try
                 for i = lo to hi - 1 do
                   if not (Atomic.get failed) then
                     results.(i) <-
                       (* Arm the abort flag as a cooperative context:
                          tasks that poll [Task.check] unwind promptly
                          once another worker has recorded a failure. *)
                       Done
                         (Task.with_context ~abort:failed (fun () ->
                              f input.(i)))
                 done
               with
              | Task.Cancelled ->
                  (* Unwound because another worker already failed — not
                     a failure of this item. *)
                  ()
              | e -> record_failure e (Printexc.get_raw_backtrace ()));
              drain ()
      in
      as_worker drain
    in
    let domains = spawn_all ~abort:failed workers worker in
    join_all domains;
    match !failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.to_list results
        |> List.map (function
             | Done v -> v
             | Pending ->
                 (* unreachable: every chunk was drained and no failure
                    was recorded *)
                 invalid_arg "Pool.map: missing result")
  end

(** [map t f xs] — [List.map f xs], fanned out over [jobs t] domains.
    Order-preserving; re-raises the first worker exception. *)
let map (t : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match Faultgen.installed () with
  | None -> fan_out t f xs
  | Some _ ->
      (* Task ids are drawn here, at submission and in input order, so
         the installed crash hits the same item at every pool width. *)
      let tagged = List.map (fun x -> (Faultgen.next_id (), x)) xs in
      fan_out t
        (fun (id, x) ->
          Faultgen.inject ~id;
          f x)
        tagged

(** [with_pool ?jobs f] — scoped pool; today a pool holds no OS
    resources, but callers should not rely on that. *)
let with_pool ?jobs f = f (create ?jobs ())
