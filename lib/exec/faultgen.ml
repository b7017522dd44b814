(** Deterministic crash injection for the execution layer.

    The chaos harness needs a process to die mid-request, reproducibly:
    [TYTRA_FAULT_SPEC="crash_at=N"] makes the [N]-th design point a
    sweep evaluates (0-based, counted across the whole process) SIGKILL
    the process before it runs. A sweep evaluates its points one after
    another and draws each id just before the point, so the same point
    dies in every run. With no spec installed, {!inject} is a no-op and
    sweeps draw no ids. *)

let parse s =
  let fields =
    String.split_on_char ',' s |> List.filter (fun f -> String.trim f <> "")
  in
  try
    let crash_at =
      List.fold_left
        (fun _ field ->
          match String.index_opt field '=' with
          | None -> failwith (Printf.sprintf "field %S has no '='" field)
          | Some i -> (
              let k = String.trim (String.sub field 0 i) in
              let v =
                String.trim
                  (String.sub field (i + 1) (String.length field - i - 1))
              in
              match k with
              | "crash_at" -> Some (int_of_string v)
              | _ -> failwith (Printf.sprintf "unknown key %S" k)))
        None fields
    in
    match crash_at with
    | Some n -> Ok n
    | None -> failwith "no crash_at"
  with
  | Failure msg -> Error (Printf.sprintf "bad fault spec %S: %s" s msg)
  | _ -> Error (Printf.sprintf "bad fault spec %S" s)

(* ---- installed crash id ---- *)

let spec_ref : int option ref =
  ref
    (match Sys.getenv_opt "TYTRA_FAULT_SPEC" with
    | None | Some "" -> None
    | Some s -> (
        match parse s with
        | Ok n -> Some n
        | Error msg ->
            prerr_endline ("warning: TYTRA_FAULT_SPEC ignored: " ^ msg);
            None))

let installed () = !spec_ref

let with_spec sp f =
  let prev = !spec_ref in
  spec_ref := sp;
  Fun.protect ~finally:(fun () -> spec_ref := prev) f

(* ---- task identity ---- *)

(* One process-wide counter, so the schedule is stable across the sweeps
   of one process. *)
let counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add counter 1
let reset_counter () = Atomic.set counter 0

let inject ~id =
  match !spec_ref with
  | Some n when n = id ->
      (* SIGKILL, not exit, so no at_exit handler or finaliser runs:
         the process is lost exactly as in a machine failure. *)
      Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()
