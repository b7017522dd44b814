(* The on-demand lexer against its oracle, the original tokenize-then-index
   lexer (oracle_lexer.ml), and the parser against its oracle, the
   parser it replaced (oracle_parser.ml). On every input the two lexers
   must yield the same (token, line) sequence or raise the same
   [Lex_error (msg, line)]; whenever the oracle raises,
   [Parser.parse_result] must report that lexical error, as it did when
   the whole input was lexed before parsing; and [Parser.parse_result]
   must return what the oracle parser returns: the same design, or the
   same typed error with the same message and line. *)

open Tytra_ir

type lexed = ((Lexer.token * int) list, string * int) result

let oracle src : lexed =
  match Oracle_lexer.tokenize src with
  | toks -> Ok (Array.to_list toks)
  | exception Lexer.Lex_error (m, l) -> Error (m, l)

let on_demand src : lexed =
  match Test_parser.lex_all src with
  | toks -> Ok toks
  | exception Lexer.Lex_error (m, l) -> Error (m, l)

(* floats compare by bits, so -0. and 0. differ *)
let same_token a b =
  match (a, b) with
  | Lexer.TFloat x, Lexer.TFloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_stream (a : lexed) (b : lexed) =
  match (a, b) with
  | Ok a, Ok b ->
      List.equal (fun (t, l) (t', l') -> same_token t t' && l = l') a b
  | Error e, Error e' -> e = e'
  | _ -> false

(* the parse outcome agrees with the oracle on lexical errors *)
let same_lex_outcome (o : lexed) src =
  match (o, Parser.parse_result src) with
  | Error (m, l), Error (Error.Lex { msg; loc }) -> msg = m && loc.loc_line = l
  | Error _, _ -> false
  | Ok _, Error (Error.Lex _) -> false
  | Ok _, _ -> true

(* the parse outcome equals the oracle parser's *)
let same_parse src =
  match (Parser.parse_result src, Oracle_parser.parse_result src) with
  | Ok d, Ok d' -> Ast.equal_design d d'
  | Error e, Error e' -> e = e'
  | _ -> false

type tally = { mutable inputs : int; mutable lex_errors : int;
               mutable diffs : string list }

let tally () = { inputs = 0; lex_errors = 0; diffs = [] }

let compare_on t ~what src =
  let o = oracle src in
  t.inputs <- t.inputs + 1;
  (match o with Error _ -> t.lex_errors <- t.lex_errors + 1 | Ok _ -> ());
  if not (same_stream o (on_demand src) && same_lex_outcome o src) then
    t.diffs <- what :: t.diffs
  else if not (same_parse src) then t.diffs <- (what ^ " (parse)") :: t.diffs

let check_no_diffs name t =
  Alcotest.(check (list string))
    (Printf.sprintf "%s: differences over %d inputs" name t.inputs)
    [] (List.rev t.diffs)

let test_corpus () =
  let t = tally () in
  List.iter
    (fun f ->
      compare_on t ~what:f
        (Test_fuzz.read_file (Filename.concat Test_fuzz.corpus_dir f)))
    (Test_fuzz.corpus_files ());
  Alcotest.(check bool) "corpus has lexical errors" true (t.lex_errors > 0);
  check_no_diffs "corpus" t

(* the fuzz suite's generators at their seeds, 10,000 inputs each *)
let per_generator = 10_000

let test_generators () =
  let t = tally () in
  let run name seed gen =
    let st = Random.State.make seed in
    for i = 1 to per_generator do
      compare_on t ~what:(Printf.sprintf "%s %d" name i) (gen st)
    done
  in
  run "random bytes" Test_fuzz.random_bytes_seed Test_fuzz.random_bytes;
  run "token soup" Test_fuzz.token_soup_seed Test_fuzz.token_soup;
  let base = Test_fuzz.valid_design () in
  run "mutant" Test_fuzz.mutation_seed (fun st -> Test_fuzz.mutant st base);
  Alcotest.(check int) "inputs" (3 * per_generator) t.inputs;
  (* both channels are exercised: lexical errors, and clean streams *)
  Alcotest.(check bool) "lexical errors seen" true
    (t.lex_errors > 0 && t.lex_errors < t.inputs);
  check_no_diffs "fuzz generators" t

(* every string of up to 5 bytes over the characters numbers are made
   of, plus a newline and a letter: signs, dots and exponents in every
   arrangement the generators might miss *)
let test_number_shapes () =
  let t = tally () in
  let alphabet = "09.eE+-\na" in
  let k = String.length alphabet in
  let rec strings len =
    if len = 0 then [ "" ]
    else
      List.concat_map
        (fun s -> List.init k (fun i -> s ^ String.make 1 alphabet.[i]))
        (strings (len - 1))
  in
  for len = 1 to 5 do
    List.iter (fun s -> compare_on t ~what:(String.escaped s) s) (strings len)
  done;
  check_no_diffs "number shapes" t

let examples_dir =
  let up = "../../../examples/ir" in
  if Sys.file_exists up then up else "examples/ir"

let test_examples () =
  let t = tally () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tirl" then
        compare_on t ~what:f
          (Test_fuzz.read_file (Filename.concat examples_dir f)))
    (Sys.readdir examples_dir);
  Alcotest.(check bool) "examples present" true (t.inputs >= 5);
  check_no_diffs "examples/ir" t

(* printed designs of the four kernels at 1, 4, 16 and 64 lanes *)
let test_printed_kernels () =
  let t = tally () in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun lanes ->
          let v =
            if lanes = 1 then Tytra_front.Transform.Pipe
            else Tytra_front.Transform.ParPipe lanes
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s at %d lanes applicable" name lanes)
            true
            (Tytra_front.Transform.applicable p v);
          compare_on t
            ~what:(Printf.sprintf "%s x%d" name lanes)
            (Pprint.design_to_string (Tytra_front.Lower.lower p v)))
        [ 1; 4; 16; 64 ])
    [
      ("sor", Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ());
      ("hotspot", Tytra_kernels.Hotspot.program ~rows:64 ~cols:64 ());
      ("lavamd", Tytra_kernels.Lavamd.program ~boxes:16 ());
      ("srad", Tytra_kernels.Srad.program ~rows:64 ~cols:64 ());
    ];
  check_no_diffs "printed kernels" t

(* one input per error the grammar raises, and a few that parse: each
   message, its line and which of two errors wins must match the
   oracle's *)
let grammar_cases =
  let port meta = "@main.p = addrspace(1) ui18 " ^ meta in
  let fn body = "define void @f (ui18 %p) pipe {\n" ^ body ^ "\n}" in
  [ port "!istream !cont !0 !s_p"; port "!ISTREAM, !\"CONT\", !4 !s";
    port "!ostream !strided !8 !s"; port "!ostream !strided 8 !s";
    port "!ostream !strided !s"; port "!cont"; port "!istream";
    port "!s"; port "!istream !istream"; port "!cont !random";
    port "!0 !1"; port "!s !t"; port "!istream !s !("; port "";
    "@main.p = addrspace(7) ui18 !istream !s";
    "@main.p = addrspace 1 ui18"; "@mainp = addrspace(1) ui18";
    "@g = global ui18 init 0"; "@g = global ui18 init x";
    "%m = memobj global ui18 size 0"; "%m = memobj foo ui18 size 1";
    "%m = memobj global ui18 length 1"; "%s = stream sideways %m pattern cont";
    "%s = stream istream %m pattern zigzag";
    "%s = stream istream %m pattern strided 4"; "%x = thing"; "%x thing";
    "define void @f (ui18 %a ui18 %b) pipe {}"; "define void @f () wobble {}";
    "define void @f (ui18 %a,) pipe {}"; "define int @f () pipe {}";
    fn "%a = add ui18 %p"; fn "%a = add ui18 %p, %p, %p";
    fn "%a = frob ui18 %p"; fn "@g = offset ui18 %p, 1";
    fn "%a = offset ui18 %p 1"; fn "%a, %b = add ui18 %p, %p";
    fn "%a, %b = call @g (%p) pipe"; fn "call @g (%p %p) pipe";
    fn "call @g () pipe"; fn "%a, 5 = call @g () pipe"; fn "5";
    fn "%a = add ui0x12 %p, %p"; fn "%a = add ui18 %p, {";
    "define void @f () pipe { %a = add ui18 %b, %c";
    "5"; fn "%a = add ui18 %p, %p } $"; fn "%a = add ui18 } $";
    fn "%a = add ui18 %p, 1.5e3\n%b = select bool %a, -2, +3" ]

let test_grammar_cases () =
  let t = tally () in
  List.iter (fun src -> compare_on t ~what:(String.escaped src) src)
    grammar_cases;
  check_no_diffs "grammar cases" t

(* Every name the grammar knows lexes to one token that every lexer
   shares; any other name lexes to a fresh one. *)
let test_keyword_tokens () =
  let tok s = Lexer.peek (Lexer.of_string s) in
  let types =
    Ty.Bool :: Ty.Float 32 :: Ty.Float 64
    :: List.concat_map
         (fun w -> [ Ty.UInt w; Ty.SInt w ])
         (List.init Ty.max_int_width succ)
  in
  let ops =
    Ast.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Min; Max; Abs;
          Neg; Not; Sqrt; CmpEq; CmpNe; CmpLt; CmpLe; CmpGt; CmpGe; Select;
          Mov ]
  in
  let names =
    [ "define"; "void"; "call"; "memobj"; "stream"; "addrspace"; "size";
      "pattern"; "init"; "offset"; "cont"; "random"; "strided" ]
    @ List.map Ast.kind_to_string Ast.[ Pipe; Par; Seq; Comb ]
    @ List.map Ast.space_to_string Ast.[ Private; Global; Local; Constant ]
    @ List.map Ast.dir_to_string Ast.[ IStream; OStream ]
    @ List.map Ast.op_to_string ops
    @ List.map Ty.to_string types
  in
  List.iter
    (fun s ->
      let t = tok s in
      Alcotest.(check bool) (s ^ " lexes to itself") true (t = Lexer.TIdent s);
      Alcotest.(check bool) (s ^ " is one shared token") true (t == tok s))
    names;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " is a fresh token") false (tok s == tok s))
    [ "ui" ^ string_of_int (Ty.max_int_width + 1); "fp16"; "s_p"; "defin" ]

let suite =
  [
    Alcotest.test_case "keyword tokens are shared" `Quick test_keyword_tokens;
    Alcotest.test_case "oracle: parser error paths" `Quick test_grammar_cases;
    Alcotest.test_case "oracle: corpus" `Quick test_corpus;
    Alcotest.test_case "oracle: fuzz generators" `Quick test_generators;
    Alcotest.test_case "oracle: number shapes" `Quick test_number_shapes;
    Alcotest.test_case "oracle: examples/ir" `Quick test_examples;
    Alcotest.test_case "oracle: printed kernels" `Quick test_printed_kernels;
  ]
