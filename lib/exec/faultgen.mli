(** Deterministic crash injection for the execution layer.

    Disabled unless a crash is installed (programmatically or via the
    [TYTRA_FAULT_SPEC] environment variable, e.g. [crash_at=1]). A sweep
    draws one task id per design point, just before evaluating it, so
    the [N]-th point evaluated in the process dies in every run — see
    [faultgen.ml]. *)

val parse : string -> (int, string) result
(** Parse ["crash_at=N"] into [N]. Any other key, a field without ['='],
    a non-integer value or a spec without [crash_at] is an error. *)

val installed : unit -> int option
(** The id of the task that will crash the process, if any. *)

val with_spec : int option -> (unit -> 'a) -> 'a
(** Run with the given crash id installed (or none), restoring the
    previous one afterwards (exception-safe). *)

val next_id : unit -> int
(** Draw the next task id from the process-wide counter. A sweep calls
    this once per design point, only while a crash is installed. *)

val reset_counter : unit -> unit
(** Restart ids at 0 (tests; lets one process replay a schedule). *)

val inject : id:int -> unit
(** SIGKILL the process if [id] is the installed crash id; a no-op
    otherwise. *)
