(** Typed diagnostics for loading TyTra-IR designs.

    The single error channel of loading a design: [Parser.parse_result]
    reports [Lex] and [Parse], and the engine adds [Io] for a file it
    cannot read and [Invalid] for a design that fails validation.
    Consumers match on constructors instead of catching exceptions. *)

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

val lex : ?file:string -> string -> int -> t
val parse : ?file:string -> string -> int -> t

val line : t -> int option
(** The line a lexical/syntactic error points at, if it has one. *)

val pp : Format.formatter -> t -> unit
(** Compiler-style ["file:line: kind: msg"] rendering. *)

val to_string : t -> string
