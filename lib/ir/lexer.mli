(** Lexer for the textual TyTra-IR ([.tirl]) concrete syntax.

    Comments run from [;] to end of line. Local names are [%ident],
    design-level names are [@ident] (dots allowed, for qualified port
    names like [@main.p]); metadata is introduced by [!].

    Tokens are produced on demand: a lexer holds one lookahead token and
    scans the next only when {!next} consumes it. A lexical error is
    therefore raised when the scan reaches it, not when the lexer is
    created; {!Parser.parse} restores "the first lexical error wins" by
    lexing the rest of the input when its grammar fails. *)

type token =
  | TIdent of string  (** keywords and type names *)
  | TLocal of string  (** [%name] *)
  | TGlobal of string  (** [@name] or [@main.p] *)
  | TInt of int
  | TFloat of float
  | TString of string
  | TBang
  | TLparen
  | TRparen
  | TLbrace
  | TRbrace
  | TComma
  | TEq
  | TEOF

val token_to_string : token -> string

exception Lex_error of string * int
(** message, 1-based line *)

type t

val of_string : string -> t
(** [of_string src] is a lexer positioned on the first token of [src].
    Raises {!Lex_error} if that token is invalid. *)

val peek : t -> token
(** The lookahead token, not consumed. *)

val line : t -> int
(** The line the lookahead token starts on. *)

val next : t -> token
(** [next lx] returns the lookahead and scans the token after it; at
    [TEOF] it stays put. Raises {!Lex_error} if the following token is
    invalid. *)
