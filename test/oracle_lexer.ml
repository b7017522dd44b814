(* Differential oracle for [Lexer]: the original tokenize-then-index
   lexer. It lexes the whole input into a (token, line) array before the
   parser reads a token, so a lexical error anywhere beats any parse
   error. test_lexer checks that the on-demand lexer yields the same
   stream, and that [Parser.parse_result] keeps that precedence. *)

open Tytra_ir
open Lexer

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** [tokenize src] lexes the whole of [src], returning tokens paired with
    their 1-based line number. Raises {!Lex_error} on invalid input. *)
let tokenize (src : string) : (token * int) array =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let read_while pred =
    let start = !i in
    while !i < n && pred src.[!i] do incr i done;
    String.sub src start (!i - start)
  in
  let read_number ~neg =
    (* digits ('.' digits)? (('e'|'E') sign? digits)? — a token is a float
       iff it contains a fractional part or an exponent. *)
    let intpart = read_while is_digit in
    let has_dot =
      peek 0 = Some '.' && (match peek 1 with Some c -> is_digit c | None -> false)
    in
    let frac =
      if has_dot then begin
        incr i;
        "." ^ read_while is_digit
      end
      else ""
    in
    let has_exp =
      (peek 0 = Some 'e' || peek 0 = Some 'E')
      && (match peek 1 with
         | Some c when is_digit c -> true
         | Some ('+' | '-') ->
             (match peek 2 with Some c -> is_digit c | None -> false)
         | _ -> false)
    in
    let ex =
      if has_exp then begin
        incr i;
        let sign =
          if peek 0 = Some '-' || peek 0 = Some '+' then begin
            let c = src.[!i] in
            incr i;
            String.make 1 c
          end
          else ""
        in
        "e" ^ sign ^ read_while is_digit
      end
      else ""
    in
    if has_dot || has_exp then begin
      (* [float_of_string] would crash on e.g. a bare "1e"; overflow
         saturates to infinity, which is fine for a literal. *)
      let v =
        match float_of_string_opt (intpart ^ frac ^ ex) with
        | Some v -> v
        | None -> raise (Lex_error ("invalid numeric literal", !line))
      in
      push (TFloat (if neg then -.v else v))
    end
    else
      (* [int_of_string] raises on literals past max_int — arbitrary
         input must surface as a lex error, not a [Failure] crash. *)
      let v =
        match int_of_string_opt intpart with
        | Some v -> v
        | None -> raise (Lex_error ("integer literal out of range", !line))
      in
      push (TInt (if neg then -v else v))
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = ';' then (while !i < n && src.[!i] <> '\n' do incr i done)
    else if c = '(' then (push TLparen; incr i)
    else if c = ')' then (push TRparen; incr i)
    else if c = '{' then (push TLbrace; incr i)
    else if c = '}' then (push TRbrace; incr i)
    else if c = ',' then (push TComma; incr i)
    else if c = '=' then (push TEq; incr i)
    else if c = '!' then (push TBang; incr i)
    else if c = '%' then begin
      incr i;
      let s = read_while is_ident_char in
      if s = "" then raise (Lex_error ("empty local name after %", !line));
      push (TLocal s)
    end
    else if c = '@' then begin
      incr i;
      let s = read_while (fun c -> is_ident_char c || c = '.') in
      if s = "" then raise (Lex_error ("empty global name after @", !line));
      push (TGlobal s)
    end
    else if c = '"' then begin
      incr i;
      let b = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !i >= n then raise (Lex_error ("unterminated string", !line));
        let c = src.[!i] in
        if c = '"' then (fin := true; incr i)
        else if c = '\n' then raise (Lex_error ("newline in string", !line))
        else (Buffer.add_char b c; incr i)
      done;
      push (TString (Buffer.contents b))
    end
    else if is_digit c then read_number ~neg:false
    else if (c = '-' || c = '+') && (match peek 1 with Some d -> is_digit d | None -> false)
    then begin
      incr i;
      read_number ~neg:(c = '-')
    end
    else if is_ident_start c then begin
      let s = read_while is_ident_char in
      push (TIdent s)
    end
    else raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
  done;
  push TEOF;
  Array.of_list (List.rev !toks)
