(** Versioned, digest-validated checkpoint files.

    A checkpoint makes an interrupted sweep resumable, so the format is
    designed around the two ways resumption goes wrong:

    - {e the file is garbage} — the process died mid-write, the disk
      filled up, the user pointed [--resume] at the wrong file. Writes
      go to a temp file first and land with an atomic [Sys.rename], so
      a reader only ever sees complete checkpoints; the payload is
      digest-checked on load anyway, and every failure mode comes back
      as [Error _], never an exception.
    - {e the file is stale} — it was written by an incompatible build
      or for a different workload. The header carries a format version,
      a payload [kind], and a caller-supplied [meta] digest (the DSE
      layer derives it from program + device + sweep parameters); any
      mismatch is a load error with a message saying which field
      disagreed.

    The payload itself is [Marshal]ed OCaml data — checkpoints are a
    crash-recovery mechanism for the same binary, not an interchange
    format, and the meta digest is what keeps a checkpoint from being
    fed to a sweep it does not belong to. *)

let magic = "TYTRA-CKPT"

(* Bump whenever the layout of a marshalled payload changes: a payload
   unmarshalled at another layout reads out of bounds instead of failing.
   2: DSE points' reports carry their Table-I inputs
   ([Report.rp_inputs]). *)
let version = 2

(** [save ~path ~kind ~meta v] — atomically write [v] as a checkpoint:
    marshal to a sibling temp file, then [Sys.rename] over [path], so a
    concurrent or crashed writer can never leave a half-written
    checkpoint at [path]. *)
let save ~path ~kind ~meta v =
  let payload = Marshal.to_string v [] in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s %d %s\n" magic version kind;
      Printf.fprintf oc "meta %s\n" meta;
      Printf.fprintf oc "payload %s %d\n" (Digest.to_hex (Digest.string payload))
        (String.length payload);
      output_string oc payload);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Split [s] at the first newline: (line, rest). *)
let cut_line s =
  match String.index_opt s '\n' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(** [load ~path ~kind ~meta] — read a checkpoint back, validating magic,
    version, [kind], [meta] and the payload digest before unmarshalling.
    Every failure — missing file, truncation, corruption, an
    incompatible or stale checkpoint — is an [Error] with a diagnostic,
    never an exception. *)
let load ~path ~kind ~meta =
  let fail fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
  match read_file path with
  | exception Sys_error m -> Error m
  | exception End_of_file -> fail "truncated checkpoint"
  | contents -> (
      let header, rest = cut_line contents in
      match String.split_on_char ' ' header with
      | [ m; v; k ] when m = magic -> (
          if v <> string_of_int version then
            fail "checkpoint format version %s (this build reads %d)" v
              version
          else if k <> kind then
            fail "checkpoint holds %S, expected %S" k kind
          else
            let meta_line, rest = cut_line rest in
            match String.split_on_char ' ' meta_line with
            | [ "meta"; m ] when m = meta -> (
                let payload_line, payload = cut_line rest in
                match String.split_on_char ' ' payload_line with
                | [ "payload"; digest; len ] -> (
                    if int_of_string_opt len <> Some (String.length payload)
                    then fail "truncated payload"
                    else if
                      digest <> Digest.to_hex (Digest.string payload)
                    then fail "payload digest mismatch (corrupt checkpoint)"
                    else
                      match Marshal.from_string payload 0 with
                      | v -> Ok v
                      | exception _ -> fail "unreadable payload")
                | _ -> fail "malformed payload header")
            | [ "meta"; _ ] ->
                fail
                  "checkpoint belongs to a different program/device/sweep \
                   configuration"
            | _ -> fail "malformed meta header")
      | _ -> fail "not a TyTra checkpoint")
