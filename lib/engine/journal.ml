(** Crash-safe response-cache journal: an append-only, digest-validated
    JSONL file of (key, payload) pairs.

    The engine's in-memory response cache dies with the process; a shard
    that crashes mid-flight restarts cold and pays the full evaluation
    cost for every request it had already answered. The journal makes
    the cache's *contents* survive: every insertion is appended as one
    self-contained line, and a fresh engine replays the file back into
    its cache before serving ({!Engine.create} with
    [config.cache_journal]).

    Like the {!Tytra_telemetry.Events} sink it is an append-only JSONL
    stream flushed per record (a crash loses at most the line being
    written), and every record is versioned and digest-validated — a
    header line carries the magic and format version, each entry carries
    an MD5 digest of its payload, and the loader treats every malformed,
    truncated or digest-mismatched line as data loss to skip, never a
    reason to raise.

    Payloads are opaque bytes (hex-encoded on the wire, so the JSONL
    stays valid UTF-8); the engine marshals {!Engine.response} values
    through them. Keys are the response-cache digest keys. This module
    knows neither — it journals strings, which keeps it free of
    dependency cycles and reusable for any cache worth persisting. *)

module J = Tytra_telemetry.Jsenc

let magic = "TYTRA-JRNL"
let version = 1

(* ------------------------------------------------------------------ *)
(* Hex payload codec                                                   *)
(* ------------------------------------------------------------------ *)

let hex_encode (s : string) : string =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  let digit v = Char.chr (if v < 10 then Char.code '0' + v else Char.code 'a' + v - 10) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (digit (c lsr 4));
    Bytes.set b ((2 * i) + 1) (digit (c land 0xf))
  done;
  Bytes.to_string b

let hex_decode (s : string) : string option =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (nibble s.[2 * i], nibble s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Bytes.to_string b) else None

(* ------------------------------------------------------------------ *)
(* Line codecs                                                         *)
(* ------------------------------------------------------------------ *)

let header_line () =
  Printf.sprintf {|{"v":%d,"magic":%s}|} version (J.json_string magic)

let entry_line ~key ~payload =
  Printf.sprintf {|{"v":%d,"key":%s,"digest":%s,"payload":%s}|} version
    (J.json_string key)
    (J.json_string (Digest.to_hex (Digest.string payload)))
    (J.json_string (hex_encode payload))

let decode_header line =
  match J.parse line with
  | Error _ -> false
  | Ok j -> (
      match (J.num_member "v" j, J.str_member "magic" j) with
      | Some v, Some m -> int_of_float v = version && m = magic
      | _ -> false)

(* One entry back from its line; [None] covers every corruption mode —
   bad JSON (including a torn tail from a mid-write crash), missing
   fields, undecodable hex, digest mismatch. *)
let decode_entry line : (string * string) option =
  match J.parse line with
  | Error _ -> None
  | Ok j -> (
      match
        (J.num_member "v" j, J.str_member "key" j, J.str_member "digest" j,
         J.str_member "payload" j)
      with
      | Some v, Some key, Some digest, Some hex
        when int_of_float v = version -> (
          match hex_decode hex with
          | Some payload
            when Digest.to_hex (Digest.string payload) = digest ->
              Some (key, payload)
          | _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          Some (go []))

(** [load path] — every validated (key, payload) entry in file order,
    plus the count of lines skipped as corrupt. A missing file is an
    empty journal; a file whose first line is not a valid v1 header is
    treated as wholly foreign (no entries, every line skipped) rather
    than guessed at. *)
let load path : (string * string) list * int =
  match read_lines path with
  | None -> ([], 0)
  | Some [] -> ([], 0)
  | Some (header :: rest) ->
      if not (decode_header header) then ([], 1 + List.length rest)
      else
        List.fold_left
          (fun (entries, skipped) line ->
            if String.trim line = "" then (entries, skipped)
            else
              match decode_entry line with
              | Some e -> (e :: entries, skipped)
              | None -> (entries, skipped + 1))
          ([], 0) rest
        |> fun (entries, skipped) -> (List.rev entries, skipped)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  jr_path : string;
  jr_mutex : Mutex.t;
  mutable jr_oc : out_channel option;
  mutable jr_appended : int;
  mutable jr_write_errors : int;
}

let path t = t.jr_path
let appended t = t.jr_appended
let write_errors t = t.jr_write_errors

(** [open_append path] — open (creating if needed) for appending. A new
    or empty file gets the header line first; an existing journal is
    appended to as-is (its header was validated by {!load} if the caller
    replayed it). [None] when the path cannot be opened. *)
let open_append path : t option =
  match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
  | exception Sys_error _ -> None
  | oc ->
      if out_channel_length oc = 0 then begin
        output_string oc (header_line ());
        output_char oc '\n';
        flush oc
      end;
      Some
        {
          jr_path = path;
          jr_mutex = Mutex.create ();
          jr_oc = Some oc;
          jr_appended = 0;
          jr_write_errors = 0;
        }

(* Flush per entry: the whole point is surviving a crash, so an entry
   is either durably on disk or (at worst) a torn final line the loader
   skips. Write errors are counted, never raised — journaling is an
   optimization, losing it must not fail the request. *)
let append t ~key ~payload =
  Mutex.lock t.jr_mutex;
  (match t.jr_oc with
  | None -> ()
  | Some oc -> (
      try
        output_string oc (entry_line ~key ~payload);
        output_char oc '\n';
        flush oc;
        t.jr_appended <- t.jr_appended + 1
      with Sys_error _ -> t.jr_write_errors <- t.jr_write_errors + 1));
  Mutex.unlock t.jr_mutex

let close t =
  Mutex.lock t.jr_mutex;
  (match t.jr_oc with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ());
  t.jr_oc <- None;
  Mutex.unlock t.jr_mutex
