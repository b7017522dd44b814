(** Structured event log: an append-only JSONL sink of typed records.

    Public interface of [Tytra_telemetry.Events]. Each significant action
    (sweep lifecycle, per-point DSE outcomes, span open/close, counter
    deltas) is appended as one self-contained JSON
    object per line; the file parses back losslessly through
    {!decode_line}. See [events.ml] for the concurrency and flushing
    contract.

    Schema versioning policy (DESIGN.md §12): every line carries
    [{"v":N}]. Additive field changes keep the version; renaming or
    removing a field, or changing a field's meaning, bumps it. Decoders
    must ignore unknown fields. *)

val schema_version : int
(** Version stamped into every line. *)

(** The typed event kinds, encoded one per line. *)
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

(** One emitted line: a gapless global sequence number, the {!Clock}
    timestamp and the emitting domain, around the event itself. *)
type record = {
  r_seq : int;      (** global emission order *)
  r_ts_ns : int64;  (** {!Clock} time at emission *)
  r_domain : int;   (** emitting domain id *)
  r_event : event;
}

(** {2 Sink lifecycle} *)

val open_file : string -> unit
(** [open_file path] — truncate [path] and start appending events to it.
    Any previously installed sink is closed first. *)

val open_memory : Buffer.t -> unit
(** [open_memory buf] — append events to an in-memory buffer (tests). *)

val close : unit -> unit
(** Flush and close the active sink; subsequent {!emit}s are no-ops. *)

val active : unit -> bool
(** Is a sink installed? The {!emit} fast-gate, readable by callers that
    want to avoid stealing an already-open sink. *)

val emit : event -> unit
(** Append one event to the active sink; a no-op without a sink. *)

val emitted : unit -> int
(** Lines successfully written since the sink was installed. *)

val write_errors : unit -> int
(** Lines lost to write errors since the sink was installed
    (loss-accounting twin of {!emitted}). *)

(** {2 Encoding and decoding} *)

val encode : record -> string
(** One JSONL line (no trailing newline) for the record. *)

val decode_line : string -> (record, string) result
(** Parse one JSONL line back into a {!record}. Inverse of {!encode} for
    every event this module emits; tolerates unknown extra fields (the
    schema policy allows additive growth). *)

val decode_lines : string -> record list * (int * string) list
(** Decode a whole JSONL document; returns records plus per-line
    [(line_number, error)] diagnostics. Blank lines are skipped. *)
