(** Per-task execution context: cooperative deadlines.

    OCaml domains cannot be killed from the outside, so a "timeout" here
    is a *cooperative* contract: the caller arms a deadline before
    invoking the task body ([tybec serve] does so per request), and any
    code that wants to be interruptible polls {!check}. A task that
    never polls runs to completion. *)

exception Timeout of float
(** [Timeout allotted_s] — the task ran past its cooperative deadline. *)

type ctx = {
  cx_deadline : float option;  (* absolute wall-clock time *)
  cx_allotted : float;         (* deadline_s as given, for the exception *)
}

let dls : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(** [check ()] — raise {!Timeout} if the current task's deadline has
    passed; a no-op outside any task context. Long-running task bodies
    should call this at convenient safepoints to honour deadlines. *)
let check () =
  match Domain.DLS.get dls with
  | Some { cx_deadline = Some dl; cx_allotted }
    when Unix.gettimeofday () > dl ->
      raise (Timeout cx_allotted)
  | _ -> ()

(** [with_context ?deadline_s f] — run [f] with a task context armed:
    {!check} inside [f] observes the deadline. Contexts nest; the
    previous one is restored on exit. *)
let with_context ?deadline_s f =
  let prev = Domain.DLS.get dls in
  let cx =
    {
      cx_deadline = Option.map (fun d -> Unix.gettimeofday () +. d) deadline_s;
      cx_allotted = Option.value deadline_s ~default:Float.infinity;
    }
  in
  Domain.DLS.set dls (Some cx);
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls prev) f
