(** Lexer for the textual TyTra-IR ([.tirl]) concrete syntax.

    Comments run from [;] to end of line (as in the paper's listings).
    Local names are [%ident], design-level names are [@ident] (dots
    allowed, for qualified port names like [@main.p]). Metadata tokens are
    introduced by [!] and may be bare identifiers, integers, or quoted
    strings ([!"CONT"], as in the paper's Fig 12).

    Tokens are produced on demand (see lexer.mli). Every name the
    grammar knows lexes to one token made at initialisation (see
    [keywords]), so only [%]/[@] names, numbers, strings and unknown
    names allocate. *)

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

(* Byte classes: bit 1 marks a byte that continues a name ([A-Za-z0-9_]),
   bit 2 one that continues a global name (those and '.'). *)
let byte_class =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> '\003'
      | '.' -> '\002'
      | _ -> '\000')

let[@inline] in_class src i bit =
  i < String.length src
  && Char.code
       (String.unsafe_get byte_class (Char.code (String.unsafe_get src i)))
     land bit
     <> 0

let is_digit c = c >= '0' && c <= '9'

let fail lx msg = raise (Lex_error (msg, lx.lnum))

(* byte [i] of [src] exists and is [c] / is a decimal digit *)
let[@inline] char_at src i c =
  i < String.length src && String.unsafe_get src i = c

let[@inline] digit_at src i =
  i < String.length src && is_digit (String.unsafe_get src i)

let rec skip_ident src i =
  if in_class src i 1 then skip_ident src (i + 1) else i

let rec skip_global src i =
  if in_class src i 2 then skip_global src (i + 1) else i

let rec skip_digits src i = if digit_at src i then skip_digits src (i + 1) else i

let rec skip_line src i =
  if i < String.length src && String.unsafe_get src i <> '\n' then
    skip_line src (i + 1)
  else i

(* Every name the grammar knows, as the one token each occurrence
   lexes to: keywords, parallelism kinds, address spaces, directions,
   patterns, operations and every valid type name. The table is filled
   here, at module initialisation, and only read after, so lexers on
   any number of domains share it. It is open-addressed and under a
   third full, so a lookup compares the name with about one entry. *)
let keywords =
  [ "define"; "void"; "call"; "pipe"; "par"; "seq"; "comb"; "memobj";
    "stream"; "private"; "global"; "local"; "constant"; "istream";
    "ostream"; "cont"; "random"; "strided"; "addrspace"; "size";
    "pattern"; "init"; "offset"; "add"; "sub"; "mul"; "div"; "rem"; "and";
    "or"; "xor"; "shl"; "shr"; "min"; "max"; "abs"; "neg"; "not"; "sqrt";
    "cmpeq"; "cmpne"; "cmplt"; "cmple"; "cmpgt"; "cmpge"; "select"; "mov";
    "bool"; "fp32"; "fp64" ]
  @ List.concat
      (List.init Ty.max_int_width (fun w ->
           let w = string_of_int (w + 1) in
           [ "ui" ^ w; "si" ^ w ]))

let kw_mask = 1023
let kw_names = Array.make (kw_mask + 1) ""
let kw_tokens = Array.make (kw_mask + 1) TEOF

(* A name's hash: [h * 31 + byte] over its bytes, from 0. [scan]
   computes it as it finds the name's end. *)
let hash_step h c = (h * 31) + Char.code c

let rec hash_span src i stop h =
  if i = stop then h
  else hash_span src (i + 1) stop (hash_step h (String.unsafe_get src i))

(* a multiplicative mix of the hash, so that names differing only in
   their last digits spread over the table *)
let slot_of_hash h = ((h * 0x9E3779B1) lsr 20) land kw_mask

let rec same_span src i name k len =
  k = len
  || String.unsafe_get src (i + k) = String.unsafe_get name k
     && same_span src i name (k + 1) len

(* The slot of [src.[i..stop-1]], or the empty slot where it would go. *)
let rec slot src i stop h =
  let name = Array.unsafe_get kw_names h in
  let len = stop - i in
  if String.length name = 0
     || (String.length name = len && same_span src i name 0 len)
  then h
  else slot src i stop ((h + 1) land kw_mask)

let () =
  (* a full table would make [slot] loop *)
  assert (3 * List.length keywords < kw_mask + 1);
  List.iter
    (fun name ->
      let len = String.length name in
      let h = slot name 0 len (slot_of_hash (hash_span name 0 len 0)) in
      kw_names.(h) <- name;
      kw_tokens.(h) <- TIdent name)
    keywords

(* The token of the name [src.[i..stop-1]], whose hash is [hash]: the
   table's own for a name it holds, a fresh [TIdent] for any other. *)
let ident src i stop hash =
  let h = slot src i stop (slot_of_hash hash) in
  if String.length (Array.unsafe_get kw_names h) = 0 then
    TIdent (String.sub src i (stop - i))
  else Array.unsafe_get kw_tokens h

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

(* The first byte at or after [i] that is neither blank nor in a
   comment, counting the newlines passed. *)
let rec skip_blank lx src i =
  if i >= String.length src then i
  else
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' -> skip_blank lx src (i + 1)
    | '\n' ->
        lx.lnum <- lx.lnum + 1;
        skip_blank lx src (i + 1)
    | ';' -> skip_blank lx src (skip_line src i)
    | _ -> i

(* The closing quote of the string whose body starts at [j]. *)
let rec string_end lx src j =
  if j >= String.length src then fail lx "unterminated string"
  else
    match String.unsafe_get src j with
    | '"' -> j
    | '\n' -> fail lx "newline in string"
    | _ -> string_end lx src (j + 1)

(* Scan the token at [lx.pos] into the lookahead. *)
let scan lx =
  let src = lx.src in
  let i = skip_blank lx src lx.pos in
  if i >= String.length src then set lx TEOF i
  else
    match String.unsafe_get src i with
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
        let j = string_end lx src (i + 1) in
        set lx (TString (String.sub src (i + 1) (j - i - 1))) (j + 1)
    | '0' .. '9' -> scan_number lx ~neg:false i
    | ('-' | '+') as c when digit_at src (i + 1) ->
        scan_number lx ~neg:(c = '-') (i + 1)
    | ('a' .. 'z' | 'A' .. 'Z' | '_') as c ->
        (* find the name's end and hash it in one pass *)
        let stop = ref (i + 1) and h = ref (hash_step 0 c) in
        while in_class src !stop 1 do
          h := hash_step !h (String.unsafe_get src !stop);
          incr stop
        done;
        set lx (ident src i !stop !h) !stop
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
