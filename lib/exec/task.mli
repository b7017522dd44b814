(** Cooperative per-task deadlines.

    See [task.ml] for the cooperative contract: deadlines interrupt a
    task only at {!check} safepoints — OCaml domains cannot be killed
    from the outside. *)

exception Timeout of float
(** [Timeout allotted_s] — the task ran past its cooperative deadline. *)

val check : unit -> unit
(** Raise {!Timeout} if the current task's deadline passed; no-op
    outside a task context. Long task bodies call this at safepoints. *)

val with_context : ?deadline_s:float -> (unit -> 'a) -> 'a
(** Arm a task context for the duration of the callback: {!check} inside
    it observes the deadline. Contexts nest. *)
