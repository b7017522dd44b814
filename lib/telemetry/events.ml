(** Structured event log: an append-only JSONL sink of typed records.

    Where {!Span} answers "where did the time go" after the fact, the
    event log answers "what is happening right now": each significant
    action (sweep lifecycle, per-point DSE outcomes, span open/close,
    counter deltas) is appended as one self-contained JSON object per
    line, so a `tail -f` or a log shipper can follow a long sweep live
    and the file parses back losslessly through {!decode_line}.

    Concurrency: all domains share one sink behind a mutex; [r_seq] is a
    global sequence number assigned under that lock, so the file order is
    the emission order. Timestamps come from {!Clock}, so tests inject a
    deterministic clock and get byte-stable logs.

    Cost: with no sink installed, {!emit} is one mutable-bool check.
    Coarse events (sweep lifecycle, shard crashes) flush the channel so
    external observers see them promptly; high-rate events (span close,
    counter deltas) ride the normal buffering.

    Schema versioning policy (see DESIGN.md §12): every line carries
    [{"v":N}]. Additive field changes keep the version; renaming or
    removing a field, or changing a field's meaning, bumps it. Decoders
    must ignore unknown fields. *)

(** Schema version stamped into every line. *)
let schema_version = 1

type event =
  | Sweep_started of { kernel : string; space : int; prune : bool }
      (** encoded with a constant ["jobs":1] member, which version-1
          readers require *)
  | Sweep_finished of { evaluated : int; pruned : int }
      (** encoded with constant ["failed":0,"restored":0] members, which
          version-1 readers require *)
  | Point_evaluated of {
      variant : string;
      ekit : float;
      valid : bool;
      dur_ns : int64;
    }
      (** encoded with a constant ["cached":false] member, which
          version-1 readers require *)
  | Point_pruned of { variant : string; reason : string }
  | Span_open of { name : string; depth : int }
  | Span_close of { name : string; dur_ns : int64; error : string option }
  | Counter_delta of { name : string; delta : float }
  | Shard_crash of { shard : int; pid : int; restarts : int }
      (** a serve shard died unexpectedly; [restarts] counts its
          consecutive restarts so far (additive in schema v1) *)

type record = {
  r_seq : int;      (** global emission order *)
  r_ts_ns : int64;  (** {!Clock} time at emission *)
  r_domain : int;   (** emitting domain id *)
  r_event : event;
}

(* ------------------------------------------------------------------ *)
(* Sink state                                                          *)
(* ------------------------------------------------------------------ *)

type sink = No_sink | Channel of out_channel | Memory of Buffer.t

let mutex = Mutex.create ()
let sink = ref No_sink

(* Fast gate read outside the lock: emit sites in hot paths check this
   single bool before doing any work. Only flipped under [mutex]. *)
let active_flag = ref false

let seq = ref 0
let n_emitted = ref 0
let n_write_errors = ref 0

let active () = !active_flag

let emitted () = !n_emitted
let write_errors () = !n_write_errors

let close () =
  Mutex.lock mutex;
  (match !sink with
  | Channel oc -> ( try close_out oc with Sys_error _ -> ())
  | Memory _ | No_sink -> ());
  sink := No_sink;
  active_flag := false;
  Mutex.unlock mutex

let install s =
  close ();
  Mutex.lock mutex;
  sink := s;
  active_flag := true;
  seq := 0;
  n_emitted := 0;
  n_write_errors := 0;
  Mutex.unlock mutex

(** [open_file path] — truncate [path] and start appending events to it.
    Any previously installed sink is closed first. *)
let open_file path = install (Channel (open_out path))

(** [open_memory buf] — append events to an in-memory buffer (tests). *)
let open_memory buf = install (Memory buf)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Direct Buffer writes, not Printf: encoding sits on the per-point hot
   path of an observed sweep, and format interpretation there is what
   pushes the observability overhead past its 2% budget. *)
let add_kv_str b k v =
  Buffer.add_string b k;
  Buffer.add_string b (Jsenc.json_string v)

let add_kv_int b k v =
  Buffer.add_string b k;
  Buffer.add_string b (string_of_int v)

let add_kv_i64 b k v =
  Buffer.add_string b k;
  Buffer.add_string b (Int64.to_string v)

let add_kv_bool b k v =
  Buffer.add_string b k;
  Buffer.add_string b (if v then "true" else "false")

let add_body b (e : event) : unit =
  match e with
  | Sweep_started { kernel; space; prune } ->
      Buffer.add_string b "\"type\":\"sweep_started\"";
      add_kv_str b ",\"kernel\":" kernel;
      add_kv_int b ",\"space\":" space;
      Buffer.add_string b ",\"jobs\":1";
      add_kv_bool b ",\"prune\":" prune
  | Sweep_finished { evaluated; pruned } ->
      Buffer.add_string b "\"type\":\"sweep_finished\"";
      add_kv_int b ",\"evaluated\":" evaluated;
      add_kv_int b ",\"pruned\":" pruned;
      Buffer.add_string b ",\"failed\":0,\"restored\":0"
  | Point_evaluated { variant; ekit; valid; dur_ns } ->
      Buffer.add_string b "\"type\":\"point_evaluated\"";
      add_kv_str b ",\"variant\":" variant;
      Buffer.add_string b ",\"ekit\":";
      Buffer.add_string b (Jsenc.json_num ekit);
      add_kv_bool b ",\"valid\":" valid;
      Buffer.add_string b ",\"cached\":false";
      add_kv_i64 b ",\"dur_ns\":" dur_ns
  | Point_pruned { variant; reason } ->
      Buffer.add_string b "\"type\":\"point_pruned\"";
      add_kv_str b ",\"variant\":" variant;
      add_kv_str b ",\"reason\":" reason
  | Span_open { name; depth } ->
      Buffer.add_string b "\"type\":\"span_open\"";
      add_kv_str b ",\"name\":" name;
      add_kv_int b ",\"depth\":" depth
  | Span_close { name; dur_ns; error } ->
      Buffer.add_string b "\"type\":\"span_close\"";
      add_kv_str b ",\"name\":" name;
      add_kv_i64 b ",\"dur_ns\":" dur_ns;
      Option.iter (fun e -> add_kv_str b ",\"error\":" e) error
  | Counter_delta { name; delta } ->
      Buffer.add_string b "\"type\":\"counter_delta\"";
      add_kv_str b ",\"name\":" name;
      Buffer.add_string b ",\"delta\":";
      Buffer.add_string b (Jsenc.json_num delta)
  | Shard_crash { shard; pid; restarts } ->
      Buffer.add_string b "\"type\":\"shard_crash\"";
      add_kv_int b ",\"shard\":" shard;
      add_kv_int b ",\"pid\":" pid;
      add_kv_int b ",\"restarts\":" restarts

let add_record b (r : record) : unit =
  Buffer.add_string b "{\"v\":";
  Buffer.add_string b (string_of_int schema_version);
  add_kv_int b ",\"seq\":" r.r_seq;
  add_kv_i64 b ",\"ts_ns\":" r.r_ts_ns;
  add_kv_int b ",\"dom\":" r.r_domain;
  Buffer.add_char b ',';
  add_body b r.r_event;
  Buffer.add_char b '}'

(** One JSONL line (no trailing newline) for [r]. *)
let encode (r : record) : string =
  let b = Buffer.create 192 in
  add_record b r;
  Buffer.contents b

(* Rare, coarse events flush so a tail -f (or a crash shortly after)
   sees them; the per-point and per-span stream rides stdio buffering,
   and [close] flushes everything. *)
let flush_worthy = function
  | Sweep_started _ | Sweep_finished _ | Shard_crash _ -> true
  | Point_evaluated _ | Point_pruned _ | Span_open _ | Span_close _
  | Counter_delta _ ->
      false

(** Append one event to the active sink; a no-op without a sink. *)
(* Reused under [mutex] so the hot path allocates no intermediate
   strings beyond what json_string/json_num produce. *)
let scratch = Buffer.create 256

let emit (e : event) : unit =
  if !active_flag then begin
    let ts = Clock.now_ns () in
    let dom = (Domain.self () :> int) in
    Mutex.lock mutex;
    (match !sink with
    | No_sink -> () (* closed between the gate check and the lock *)
    | Channel oc -> (
        let r = { r_seq = !seq; r_ts_ns = ts; r_domain = dom; r_event = e } in
        incr seq;
        try
          Buffer.clear scratch;
          add_record scratch r;
          Buffer.add_char scratch '\n';
          Buffer.output_buffer oc scratch;
          if flush_worthy e then flush oc;
          incr n_emitted
        with Sys_error _ -> incr n_write_errors)
    | Memory b ->
        let r = { r_seq = !seq; r_ts_ns = ts; r_domain = dom; r_event = e } in
        incr seq;
        add_record b r;
        Buffer.add_char b '\n';
        incr n_emitted);
    Mutex.unlock mutex
  end

(* ------------------------------------------------------------------ *)
(* Decoding (round-trip)                                               *)
(* ------------------------------------------------------------------ *)

let decode_error fmt = Printf.ksprintf (fun s -> Error s) fmt

let req_str j key =
  match Jsenc.str_member key j with
  | Some s -> Ok s
  | None -> decode_error "missing string field %S" key

let req_num j key =
  match Jsenc.num_member key j with
  | Some f -> Ok f
  | None -> decode_error "missing numeric field %S" key

let req_int j key = Result.map int_of_float (req_num j key)
let req_i64 j key = Result.map Int64.of_float (req_num j key)

let req_bool j key =
  match Jsenc.bool_member key j with
  | Some b -> Ok b
  | None -> decode_error "missing boolean field %S" key

let ( let* ) = Result.bind

let decode_event j : (event, string) result =
  let* ty = req_str j "type" in
  match ty with
  | "sweep_started" ->
      let* kernel = req_str j "kernel" in
      let* space = req_int j "space" in
      let* prune = req_bool j "prune" in
      Ok (Sweep_started { kernel; space; prune })
  | "sweep_finished" ->
      let* evaluated = req_int j "evaluated" in
      let* pruned = req_int j "pruned" in
      Ok (Sweep_finished { evaluated; pruned })
  | "point_evaluated" ->
      let* variant = req_str j "variant" in
      let* ekit = req_num j "ekit" in
      let* valid = req_bool j "valid" in
      let* dur_ns = req_i64 j "dur_ns" in
      Ok (Point_evaluated { variant; ekit; valid; dur_ns })
  | "point_pruned" ->
      let* variant = req_str j "variant" in
      let* reason = req_str j "reason" in
      Ok (Point_pruned { variant; reason })
  | "span_open" ->
      let* name = req_str j "name" in
      let* depth = req_int j "depth" in
      Ok (Span_open { name; depth })
  | "span_close" ->
      let* name = req_str j "name" in
      let* dur_ns = req_i64 j "dur_ns" in
      Ok (Span_close { name; dur_ns; error = Jsenc.str_member "error" j })
  | "counter_delta" ->
      let* name = req_str j "name" in
      let* delta = req_num j "delta" in
      Ok (Counter_delta { name; delta })
  | "shard_crash" ->
      let* shard = req_int j "shard" in
      let* pid = req_int j "pid" in
      let* restarts = req_int j "restarts" in
      Ok (Shard_crash { shard; pid; restarts })
  | other -> decode_error "unknown event type %S" other

(** Parse one JSONL line back into a {!record}. Inverse of {!encode} for
    every event this module emits; tolerates unknown extra fields (the
    schema policy allows additive growth). *)
let decode_line (line : string) : (record, string) result =
  let* j = Jsenc.parse line in
  let* v = req_int j "v" in
  if v <> schema_version then
    decode_error "unsupported event schema version %d (expected %d)" v
      schema_version
  else
    let* r_seq = req_int j "seq" in
    let* r_ts_ns = req_i64 j "ts_ns" in
    let* r_domain = req_int j "dom" in
    let* r_event = decode_event j in
    Ok { r_seq; r_ts_ns; r_domain; r_event }

(** Decode a whole JSONL document; returns records plus per-line errors. *)
let decode_lines (s : string) : record list * (int * string) list =
  let lines = String.split_on_char '\n' s in
  let recs, errs, _ =
    List.fold_left
      (fun (recs, errs, lineno) line ->
        if String.trim line = "" then (recs, errs, lineno + 1)
        else
          match decode_line line with
          | Ok r -> (r :: recs, errs, lineno + 1)
          | Error e -> (recs, (lineno, e) :: errs, lineno + 1))
      ([], [], 1) lines
  in
  (List.rev recs, List.rev errs)
