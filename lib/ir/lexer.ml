(** Lexer for the textual TyTra-IR ([.tirl]) concrete syntax.

    Comments run from [;] to end of line (as in the paper's listings).
    Local names are [%ident], design-level names are [@ident] (dots
    allowed, for qualified port names like [@main.p]). Metadata tokens are
    introduced by [!] and may be bare identifiers, integers, or quoted
    strings ([!"CONT"], as in the paper's Fig 12).

    Tokens are produced on demand (see lexer.mli). *)

type token =
  | TIdent of string          (* keywords and type names *)
  | TLocal of string          (* %name *)
  | TGlobal of string         (* @name or @main.p *)
  | TInt of int
  | TFloat of float
  | TString of string
  | TBang
  | TLparen | TRparen | TLbrace | TRbrace
  | TComma | TEq
  | TEOF

let token_to_string = function
  | TIdent s -> s
  | TLocal s -> "%" ^ s
  | TGlobal s -> "@" ^ s
  | TInt i -> string_of_int i
  | TFloat f -> string_of_float f
  | TString s -> Printf.sprintf "%S" s
  | TBang -> "!"
  | TLparen -> "(" | TRparen -> ")" | TLbrace -> "{" | TRbrace -> "}"
  | TComma -> "," | TEq -> "="
  | TEOF -> "<eof>"

exception Lex_error of string * int  (** message, line *)

type t = {
  src : string;
  mutable pos : int;       (* first byte not yet scanned *)
  mutable lnum : int;      (* line of [pos] *)
  mutable tok : token;     (* lookahead *)
  mutable tok_line : int;  (* line the lookahead starts on *)
}

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let fail lx msg = raise (Lex_error (msg, lx.lnum))

(* byte [i] of [src] exists and is [c] / is a decimal digit *)
let char_at src i c = i < String.length src && String.unsafe_get src i = c
let digit_at src i = i < String.length src && is_digit (String.unsafe_get src i)

let rec skip_ident src i =
  if i < String.length src && is_ident_char (String.unsafe_get src i) then
    skip_ident src (i + 1)
  else i

let rec skip_global src i =
  if i < String.length src
     && (let c = String.unsafe_get src i in is_ident_char c || c = '.')
  then skip_global src (i + 1)
  else i

let rec skip_digits src i = if digit_at src i then skip_digits src (i + 1) else i

let rec skip_line src i =
  if i < String.length src && String.unsafe_get src i <> '\n' then
    skip_line src (i + 1)
  else i

(* The value of the decimal digits [src.[i..j-1]], or -1 past max_int. *)
let rec int_of_digits src i j acc =
  if i = j then acc
  else
    let d = Char.code (String.unsafe_get src i) - Char.code '0' in
    if acc > (max_int - d) / 10 then -1
    else int_of_digits src (i + 1) j ((acc * 10) + d)

let set lx tok stop =
  lx.tok <- tok;
  lx.tok_line <- lx.lnum;
  lx.pos <- stop

(* A number starting at [start] (after any sign):
   digits ('.' digits)? (('e'|'E') sign? digits)? — a token is a float
   iff it contains a fractional part or an exponent. *)
let scan_number lx ~neg start =
  let src = lx.src in
  let int_end = skip_digits src start in
  let has_dot = char_at src int_end '.' && digit_at src (int_end + 1) in
  let frac_end = if has_dot then skip_digits src (int_end + 1) else int_end in
  (* index of the exponent's first digit, or -1 without an exponent *)
  let exp_digits =
    let e = frac_end in
    if not (char_at src e 'e' || char_at src e 'E') then -1
    else if digit_at src (e + 1) then e + 1
    else if (char_at src (e + 1) '+' || char_at src (e + 1) '-')
            && digit_at src (e + 2)
    then e + 2
    else -1
  in
  if has_dot || exp_digits >= 0 then begin
    let stop = if exp_digits >= 0 then skip_digits src exp_digits else frac_end in
    (* the span always converts (overflow saturates to infinity, which
       is fine for a literal); the [None] arm keeps the lexer total *)
    let v =
      match float_of_string_opt (String.sub src start (stop - start)) with
      | Some v -> v
      | None -> fail lx "invalid numeric literal"
    in
    set lx (TFloat (if neg then -.v else v)) stop
  end
  else
    (* literals past max_int must surface as a lex error, not wrap *)
    let v = int_of_digits src start int_end 0 in
    if v < 0 then fail lx "integer literal out of range";
    set lx (TInt (if neg then -v else v)) int_end

(* Scan the token at [lx.pos] into the lookahead. *)
let rec scan lx =
  let src = lx.src in
  let i = lx.pos in
  if i >= String.length src then set lx TEOF i
  else
    match String.unsafe_get src i with
    | '\n' ->
        lx.lnum <- lx.lnum + 1;
        lx.pos <- i + 1;
        scan lx
    | ' ' | '\t' | '\r' ->
        lx.pos <- i + 1;
        scan lx
    | ';' ->
        lx.pos <- skip_line src i;
        scan lx
    | '(' -> set lx TLparen (i + 1)
    | ')' -> set lx TRparen (i + 1)
    | '{' -> set lx TLbrace (i + 1)
    | '}' -> set lx TRbrace (i + 1)
    | ',' -> set lx TComma (i + 1)
    | '=' -> set lx TEq (i + 1)
    | '!' -> set lx TBang (i + 1)
    | '%' ->
        let stop = skip_ident src (i + 1) in
        if stop = i + 1 then fail lx "empty local name after %";
        set lx (TLocal (String.sub src (i + 1) (stop - i - 1))) stop
    | '@' ->
        let stop = skip_global src (i + 1) in
        if stop = i + 1 then fail lx "empty global name after @";
        set lx (TGlobal (String.sub src (i + 1) (stop - i - 1))) stop
    | '"' ->
        let rec close j =
          if j >= String.length src then fail lx "unterminated string"
          else
            match String.unsafe_get src j with
            | '"' -> j
            | '\n' -> fail lx "newline in string"
            | _ -> close (j + 1)
        in
        let j = close (i + 1) in
        set lx (TString (String.sub src (i + 1) (j - i - 1))) (j + 1)
    | '0' .. '9' -> scan_number lx ~neg:false i
    | ('-' | '+') as c when digit_at src (i + 1) ->
        scan_number lx ~neg:(c = '-') (i + 1)
    | c when is_ident_start c ->
        let stop = skip_ident src i in
        set lx (TIdent (String.sub src i (stop - i))) stop
    | c -> fail lx (Printf.sprintf "unexpected character %C" c)

let of_string src =
  let lx = { src; pos = 0; lnum = 1; tok = TEOF; tok_line = 1 } in
  scan lx;
  lx

let peek lx = lx.tok
let line lx = lx.tok_line

let next lx =
  let t = lx.tok in
  (match t with TEOF -> () | _ -> scan lx);
  t
