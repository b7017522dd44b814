(** Typed diagnostics for the TyTra-IR front door.

    Library consumers used to have to catch [Parser.Parse_error],
    [Lexer.Lex_error], [Sys_error] and assorted [Failure _]s to find out
    *why* a design failed to load. This module is the single typed error
    channel: [Parser.parse_result] reports [Lex] and [Parse], and the
    engine, which reads a request's file once and validates what it
    parsed, adds [Io] and [Invalid]. Each carries enough location to
    print a compiler-style ["file:line: message"] diagnostic. *)

(** Where a lexical/syntactic diagnostic points. *)
type location = {
  loc_file : string option;  (** source path, when parsing from a file *)
  loc_line : int;            (** 1-based line number *)
}

type t =
  | Lex of { msg : string; loc : location }
      (** invalid input below the token level *)
  | Parse of { msg : string; loc : location }
      (** token stream does not form a design *)
  | Invalid of Validate.error list
      (** parsed, but rejected by static validation *)
  | Io of { path : string; msg : string }
      (** the source could not be read at all *)

let lex ?file msg line = Lex { msg; loc = { loc_file = file; loc_line = line } }

let parse ?file msg line =
  Parse { msg; loc = { loc_file = file; loc_line = line } }

(** The line a lexical/syntactic error points at, if it has one. *)
let line = function
  | Lex { loc; _ } | Parse { loc; _ } -> Some loc.loc_line
  | Invalid _ | Io _ -> None

let pp_location fmt loc =
  (match loc.loc_file with
  | Some f -> Format.fprintf fmt "%s:" f
  | None -> ());
  Format.fprintf fmt "%d" loc.loc_line

(** Compiler-style rendering: one ["file:line: kind: msg"] line per
    diagnostic (validation reports one line per violated rule). *)
let pp fmt = function
  | Lex { msg; loc } ->
      Format.fprintf fmt "%a: lex error: %s" pp_location loc msg
  | Parse { msg; loc } ->
      Format.fprintf fmt "%a: parse error: %s" pp_location loc msg
  | Invalid errs ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
        (fun fmt e -> Format.pp_print_string fmt (Validate.error_to_string e))
        fmt errs
  | Io { path; msg } -> Format.fprintf fmt "%s: %s" path msg

let to_string e = Format.asprintf "%a" pp e
