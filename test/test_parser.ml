(* Lexer and parser tests: token streams, full designs in the paper's
   concrete syntax, error reporting, and print/parse round-trips. *)

open Tytra_ir

let design = Alcotest.testable Ast.pp_design Ast.equal_design

let sor_c2_text =
  {|
; **** MANAGE-IR ****
%m_p   = memobj global ui18 size 288
%m_rhs = memobj global ui18 size 288
%m_out = memobj global ui18 size 288
%s_p   = stream istream %m_p pattern cont
%s_rhs = stream istream %m_rhs pattern cont
%s_out = stream ostream %m_out pattern cont
@main.p    = addrspace(1) ui18 !istream !cont !0 !s_p
@main.rhs  = addrspace(1) ui18 !istream !cont !0 !s_rhs
@main.o_p  = addrspace(1) ui18 !ostream !cont !0 !s_out
@sorErrAcc = global ui18 init 0

; **** COMPUTE-IR ****
define void @f0 (ui18 %p, ui18 %rhs, ui18 %w) pipe {
  %pip1 = offset ui18 %p, +1
  %pin1 = offset ui18 %p, -1
  %pkp  = offset ui18 %p, +48
  %pkn  = offset ui18 %p, -48
  %t1 = mul ui18 %w, %pip1
  %t2 = mul ui18 %w, %pin1
  %t3 = add ui18 %t1, %t2
  %t4 = add ui18 %pkp, %pkn
  %t5 = add ui18 %t3, %t4
  %t6 = sub ui18 %t5, %rhs
  %out_p = mov ui18 %t6
  @sorErrAcc = add ui18 %t6, @sorErrAcc
}
define void @main (ui18 %p, ui18 %rhs, ui18 %o_p) seq {
  call @f0 (%p, %rhs, 3) pipe
}
|}

let parse_sor () = Parser.parse ~name:"sor_c2" sor_c2_text

let test_parse_complete () =
  let d = parse_sor () in
  Alcotest.(check int) "3 memobjs" 3 (List.length d.Ast.d_mems);
  Alcotest.(check int) "3 streams" 3 (List.length d.Ast.d_streams);
  Alcotest.(check int) "3 ports" 3 (List.length d.Ast.d_ports);
  Alcotest.(check int) "1 global" 1 (List.length d.Ast.d_globals);
  Alcotest.(check int) "2 functions" 2 (List.length d.Ast.d_funcs);
  let f0 = Ast.find_func_exn d "f0" in
  Alcotest.(check int) "f0 body" 12 (List.length f0.Ast.fn_body);
  Alcotest.(check bool) "f0 is pipe" true (f0.Ast.fn_kind = Ast.Pipe)

let test_parse_validates () =
  Alcotest.(check (list Alcotest.string))
    "validates clean" []
    (List.map Validate.error_to_string (Validate.check (parse_sor ())))

let test_roundtrip_paper_style () =
  let d = parse_sor () in
  let d2 = Parser.parse ~name:"sor_c2" (Pprint.design_to_string d) in
  Alcotest.check design "pprint/parse roundtrip" d d2

let test_quoted_metadata () =
  (* the paper's Fig 12 quotes metadata strings: !"istream", !"CONT" *)
  let src =
    {|
%m = memobj global ui18 size 8
%s = stream istream %m pattern cont
@main.p = addrspace(1) ui18 !"istream" !"CONT" !0 !"s"
define void @main (ui18 %p) seq { }
|}
  in
  let d = Parser.parse src in
  let p = List.hd d.Ast.d_ports in
  Alcotest.(check bool) "dir" true (p.Ast.pt_dir = Ast.IStream);
  Alcotest.(check bool) "pattern" true (p.Ast.pt_pattern = Ast.Cont);
  Alcotest.(check string) "stream" "s" p.Ast.pt_stream

let test_strided_pattern () =
  let src =
    {|
%m = memobj global ui32 size 4096
%s = stream istream %m pattern strided 64
@main.x = addrspace(1) ui32 !istream !strided 64 !0 !s
define void @main (ui32 %x) seq { }
|}
  in
  let d = Parser.parse src in
  Alcotest.(check bool) "stream stride" true
    ((Ast.find_stream_exn d "s").Ast.so_pattern = Ast.Strided 64);
  Alcotest.(check bool) "port stride" true
    ((List.hd d.Ast.d_ports).Ast.pt_pattern = Ast.Strided 64)

let expect_parse_error src =
  match Parser.parse_result src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected parse error on %S" src

let test_parse_errors () =
  expect_parse_error "define void @f () wat { }";
  expect_parse_error "%m = memobj global ui18";
  expect_parse_error "define void @f (ui18 %x) pipe { %y = bogus ui18 %x }";
  expect_parse_error "define void @f (ui18 %x) pipe { %y = add ui18 %x }";
  expect_parse_error "@main.p = addrspace(9) ui18 !istream !cont !0 !s";
  expect_parse_error "define void @f (ui18 %x) pipe { call @g (%x) }";
  expect_parse_error "%m = memobj global ui18 size -4"

let test_error_line_numbers () =
  match Parser.parse_result "\n\n%m = memobj global ui18\n" with
  | Error e -> (
      match Error.line e with
      | Some line -> Alcotest.(check bool) "line >= 3" true (line >= 3)
      | None -> Alcotest.fail "expected a located lex/parse error")
  | Ok _ -> Alcotest.fail "expected error"

let test_typed_errors () =
  (* parse_result returns the typed channel: constructors, not strings *)
  (match Parser.parse_result ~file:"bad.tirl" "define void @f () wat { }" with
  | Error (Error.Parse { loc; _ }) ->
      Alcotest.(check (option string)) "file recorded" (Some "bad.tirl")
        loc.Error.loc_file
  | Error e -> Alcotest.failf "expected Parse, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  (match Parser.parse_result "@x = \x01" with
  | Error (Error.Lex _) -> ()
  | Error e -> Alcotest.failf "expected Lex, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  (* to_string renders a located compiler-style diagnostic *)
  match Parser.parse_result ~file:"bad.tirl" "\ndefine void @f () wat { }" with
  | Error e ->
      let s = Error.to_string e in
      Alcotest.(check bool) "diagnostic is located" true
        (String.length s >= 11 && String.sub s 0 11 = "bad.tirl:2:")
  | Ok _ -> Alcotest.fail "expected error"

(* the (token, line) stream the on-demand lexer yields for [src] *)
let lex_all src =
  let lx = Lexer.of_string src in
  let rec go acc =
    let l = Lexer.line lx in
    match Lexer.next lx with
    | Lexer.TEOF -> List.rev ((Lexer.TEOF, l) :: acc)
    | t -> go ((t, l) :: acc)
  in
  go []

let test_lexer_tokens () =
  let toks = lex_all "%a = add ui18 %b, -3 ; comment\n@g(1.5)" in
  Alcotest.(check bool) "token stream" true
    (List.map fst toks
    = [ Lexer.TLocal "a"; Lexer.TEq; Lexer.TIdent "add"; Lexer.TIdent "ui18";
        Lexer.TLocal "b"; Lexer.TComma; Lexer.TInt (-3); Lexer.TGlobal "g";
        Lexer.TLparen; Lexer.TFloat 1.5; Lexer.TRparen; Lexer.TEOF ]);
  Alcotest.(check (list int)) "token lines"
    [ 1; 1; 1; 1; 1; 1; 1; 2; 2; 2; 2; 2 ]
    (List.map snd toks);
  (* peek does not consume; next at EOF stays put *)
  let lx = Lexer.of_string "x\n" in
  Alcotest.(check bool) "peek" true (Lexer.peek lx = Lexer.TIdent "x");
  Alcotest.(check bool) "next" true (Lexer.next lx = Lexer.TIdent "x");
  for _ = 1 to 3 do
    Alcotest.(check bool) "next at EOF" true (Lexer.next lx = Lexer.TEOF)
  done;
  Alcotest.(check int) "EOF line" 2 (Lexer.line lx)

let test_lexer_floats () =
  let one s v =
    match lex_all s with
    | [ (Lexer.TFloat f, 1); (Lexer.TEOF, 1) ] ->
        Alcotest.(check (float 1e-12)) s v f
    | other ->
        Alcotest.failf "%S lexed to %s" s
          (String.concat " "
             (List.map (fun (t, _) -> Lexer.token_to_string t) other))
  in
  one "1.5" 1.5;
  one "2.0e3" 2000.0;
  one "1e-3" 0.001;
  one "1E3" 1000.0;
  one "2.5e-3" 0.0025;
  one "-0.25" (-0.25)

(* Tokens are lexed on demand, but the first lexical error in the input
   still beats any parse error, as when the whole input was lexed up
   front. *)
let test_lex_error_precedence () =
  let lex_error what src ~msg ~line =
    match Parser.parse_result src with
    | Error (Error.Lex { msg = m; loc }) ->
        Alcotest.(check string) (what ^ ": message") msg m;
        Alcotest.(check int) (what ^ ": line") line loc.loc_line
    | Error e ->
        Alcotest.failf "%s: expected a lex error, got %s" what
          (Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: expected a lex error" what
  in
  (* the lookahead scan reaches the [$] of [foo $] before the grammar
     rejects [foo]; in [foo bar $] only the drain does *)
  lex_error "foo $" "foo $" ~msg:"unexpected character '$'" ~line:1;
  lex_error "foo bar $" "foo bar $" ~msg:"unexpected character '$'" ~line:1;
  (match Parser.parse_result "foo $" with
  | Error e ->
      Alcotest.(check string) "rendered" "1: lex error: unexpected character '$'"
        (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected an error");
  lex_error "bad declaration, then $"
    "%m = memobj nowhere ui18 size 4\n\n$ ; two lines on"
    ~msg:"unexpected character '$'" ~line:3;
  lex_error "out-of-range integer after a parse error"
    "define oops\n%x = add ui18 %y, 99999999999999999999"
    ~msg:"integer literal out of range" ~line:2;
  (* without a lexical error, the parse error stands *)
  match Parser.parse_result "%m = memobj nowhere ui18 size 4\n\n%ok" with
  | Error (Error.Parse { loc; _ }) ->
      Alcotest.(check int) "parse error line" 1 loc.loc_line
  | Error e -> Alcotest.failf "expected a parse error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected a parse error"

(* property: printing any lowered kernel design re-parses equal *)
let arb_small_shape =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (a, b) -> (4 * a, b))
        (pair (int_range 1 4) (int_range 1 4)))

let prop_lowered_roundtrip =
  QCheck.Test.make ~name:"lowered designs roundtrip through .tirl" ~count:30
    arb_small_shape
    (fun (im, km) ->
      let p = Tytra_kernels.Sor.program ~im ~jm:2 ~km () in
      List.for_all
        (fun v ->
          let d = Tytra_front.Lower.lower p v in
          let d2 =
            Parser.parse ~name:d.Ast.d_name (Pprint.design_to_string d)
          in
          Ast.equal_design d d2)
        (List.filter
           (Tytra_front.Transform.applicable p)
           [ Tytra_front.Transform.Pipe; Tytra_front.Transform.Seq;
             Tytra_front.Transform.ParPipe 2;
             Tytra_front.Transform.ParPipe 4 ]))

let suite =
  [
    Alcotest.test_case "parse complete design" `Quick test_parse_complete;
    Alcotest.test_case "parsed design validates" `Quick test_parse_validates;
    Alcotest.test_case "roundtrip paper-style design" `Quick
      test_roundtrip_paper_style;
    Alcotest.test_case "quoted metadata accepted" `Quick test_quoted_metadata;
    Alcotest.test_case "strided pattern" `Quick test_strided_pattern;
    Alcotest.test_case "parse errors rejected" `Quick test_parse_errors;
    Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
    Alcotest.test_case "lexer token stream" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer float literals" `Quick test_lexer_floats;
    Alcotest.test_case "first lexical error wins" `Quick
      test_lex_error_precedence;
    QCheck_alcotest.to_alcotest prop_lowered_roundtrip;
  ]

let test_returning_call_parses () =
  let src =
    {|
define void @f (ui8 %x) pipe {
  %y = add ui8 %x, 1
  %out_y = mov ui8 %y
}
define void @top (ui8 %x) pipe {
  %c1 = call @f (%x) pipe
  call @f (%c1) pipe
}
define void @main (ui8 %x) seq { call @top (%x) pipe }
|}
  in
  let d = Tytra_ir.Validate.check_exn (Parser.parse src) in
  let top = Ast.find_func_exn d "top" in
  match top.Ast.fn_body with
  | [ Ast.Call { rets = [ "c1" ]; _ }; Ast.Call { rets = []; _ } ] -> ()
  | _ -> Alcotest.fail "expected one returning and one plain call"

let test_returning_call_errors () =
  (* more rets than the callee streams *)
  let over =
    {|
define void @f (ui8 %x) pipe {
  %out_y = mov ui8 %x
}
define void @main (ui8 %x) seq {
  %a, %b = call @f (%x) pipe
}
|}
  in
  (match Validate.check (Parser.parse over) with
  | [] -> Alcotest.fail "over-binding must be rejected"
  | _ -> ());
  (* ret name reuse violates SSA *)
  let reuse =
    {|
define void @f (ui8 %x) pipe {
  %out_y = mov ui8 %x
}
define void @main (ui8 %x) seq {
  %a = call @f (%x) pipe
  %a = call @f (%x) pipe
}
|}
  in
  (match Validate.check (Parser.parse reuse) with
  | [] -> Alcotest.fail "SSA reuse must be rejected"
  | _ -> ());
  (* multiple destinations on a non-call *)
  match Parser.parse_result "define void @main (ui8 %x) seq { %a, %b = add ui8 %x, 1 }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "multi-dst assign must be a parse error"

let suite =
  suite
  @ [
      Alcotest.test_case "returning call parses" `Quick
        test_returning_call_parses;
      Alcotest.test_case "returning call errors" `Quick
        test_returning_call_errors;
      Alcotest.test_case "typed error channel" `Quick test_typed_errors;
    ]
