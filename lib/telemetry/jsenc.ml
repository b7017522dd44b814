(** Minimal JSON encoding/decoding shared by the telemetry exporters.

    The telemetry layer deliberately has no external JSON dependency:
    every exporter (Chrome trace, metrics registry, event log, exposition
    endpoint) builds its output through the two encoders below, and the
    event-log round-trip decoder ({!Events.decode_line}) parses through
    {!parse}. The parser handles the full JSON grammar in one indexed
    pass, no streaming; besides telemetry's small flat objects it
    decodes every request body [tybec serve] receives. A [\u] escape
    takes exactly four hex digits and decodes to UTF-8, a surrogate pair
    to one code point; a lone surrogate is an error. *)

(** JSON string literal with proper escaping (OCaml's [%S] escapes
    control characters as decimal [\ddd], which JSON rejects). *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x =
  (* JSON has no infinities/NaN; clamp to null-safe strings *)
  if Float.is_nan x then "0"
  else if x = infinity then "1e308"
  else if x = neg_infinity then "-1e308"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(* The decoder indexes [s] directly: no option per character, and a
   string without escapes is one [String.sub] of its span. Errors name
   the offset where decoding stopped. *)
let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let skip_ws () =
    while
      !pos < n
      && (match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if at c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    let rec same i = i = l || (s.[!pos + i] = lit.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  (* first index at or after [i] holding a quote or a backslash, or [n] *)
  let rec plain i =
    if i < n && (match String.unsafe_get s i with '"' | '\\' -> false | _ -> true)
    then plain (i + 1)
    else i
  in
  (* the UTF-16 code unit spelled by the four hex digits at [pos], which
     then moves past them *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit i =
      match String.unsafe_get s (!pos + i) with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> -1
    in
    let d0 = digit 0 and d1 = digit 1 and d2 = digit 2 and d3 = digit 3 in
    pos := !pos + 4;
    if d0 lor d1 lor d2 lor d3 < 0 then fail "bad \\u escape";
    (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3
  in
  let lone_surrogate = "lone surrogate in \\u escape" in
  (* the rest of a string whose first escape is at [i]; the raw span up
     to the closing quote bounds its decoded length *)
  let escaped start i =
    let rec close j =
      if j >= n then n
      else match String.unsafe_get s j with
        | '"' -> j
        | '\\' -> close (j + 2)
        | _ -> close (j + 1)
    in
    let b = Buffer.create (close i - start) in
    Buffer.add_substring b s start (i - start);
    pos := i;
    let unescaped c =
      incr pos;
      Buffer.add_char b c
    in
    let rec go () =
      let j = plain !pos in
      Buffer.add_substring b s !pos (j - !pos);
      pos := j;
      if j >= n then fail "unterminated string"
      else if s.[j] = '"' then incr pos
      else begin
        incr pos;
        if !pos >= n then fail "bad escape";
        (match s.[!pos] with
        | 'n' -> unescaped '\n'
        | 't' -> unescaped '\t'
        | 'r' -> unescaped '\r'
        | 'b' -> unescaped '\b'
        | 'f' -> unescaped '\012'
        | ('/' | '"' | '\\') as c -> unescaped c
        | 'u' ->
            incr pos;
            let code = hex4 () in
            if code < 0xD800 || code > 0xDFFF then
              Buffer.add_utf_8_uchar b (Uchar.unsafe_of_int code)
            else if
              code < 0xDC00 && !pos + 1 < n && s.[!pos] = '\\'
              && s.[!pos + 1] = 'u'
            then begin
              (* a high surrogate and its low one: one code point *)
              pos := !pos + 2;
              let low = hex4 () in
              if low < 0xDC00 || low > 0xDFFF then fail lone_surrogate;
              Buffer.add_utf_8_uchar b
                (Uchar.unsafe_of_int
                   (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)))
            end
            else fail lone_surrogate
        | _ -> fail "bad escape");
        go ()
      end
    in
    go ();
    Buffer.contents b
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = plain start in
    if i < n && String.unsafe_get s i = '"' then begin
      pos := i + 1;
      String.sub s start (i - start)
    end
    else escaped start i
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && (match String.unsafe_get s !pos with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin incr pos; Obj [] end else Obj (members [])
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin incr pos; List [] end else List (elements [])
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  and members acc =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    let acc = (k, parse_value ()) :: acc in
    skip_ws ();
    if at ',' then begin incr pos; members acc end
    else if at '}' then begin incr pos; List.rev acc end
    else fail "expected ',' or '}'"
  and elements acc =
    let acc = parse_value () :: acc in
    skip_ws ();
    if at ',' then begin incr pos; elements acc end
    else if at ']' then begin incr pos; List.rev acc end
    else fail "expected ',' or ']'"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* Accessors used by the decoder and tests. *)
let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str_member key j =
  match member key j with Some (Str s) -> Some s | _ -> None

let num_member key j =
  match member key j with Some (Num f) -> Some f | _ -> None

let bool_member key j =
  match member key j with Some (Bool b) -> Some b | _ -> None
