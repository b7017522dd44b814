(** Deterministic crash injection for the execution layer.

    Disabled unless a crash is installed (programmatically or via the
    [TYTRA_FAULT_SPEC] environment variable, e.g. [crash_at=1]). Task ids
    are drawn at submission time in input order, so the [N]-th task
    submitted through {!Pool.map} dies in every run, whatever the pool
    width — see [faultgen.ml]. *)

val parse : string -> (int, string) result
(** Parse ["crash_at=N"] into [N]. Any other key, a field without ['='],
    a non-integer value or a spec without [crash_at] is an error. *)

val installed : unit -> int option
(** The id of the task that will crash the process, if any. *)

val with_spec : int option -> (unit -> 'a) -> 'a
(** Run with the given crash id installed (or none), restoring the
    previous one afterwards (exception-safe). *)

val next_id : unit -> int
(** Draw the next task id from the process-wide counter. {!Pool.map}
    calls this at submission time, before work fans out, so ids — and
    hence the crash — are independent of domain interleaving. *)

val reset_counter : unit -> unit
(** Restart ids at 0 (tests; lets one process replay a schedule). *)

val inject : id:int -> unit
(** SIGKILL the process if [id] is the installed crash id; a no-op
    otherwise. *)
