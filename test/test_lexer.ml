(* The on-demand lexer against its oracle, the original tokenize-then-index
   lexer (oracle_lexer.ml). On every input the two must yield the same
   (token, line) sequence or raise the same [Lex_error (msg, line)]; and
   whenever the oracle raises, [Parser.parse_result] must report that
   lexical error, as it did when the whole input was lexed before
   parsing. The grammar functions read tokens only through
   [Lexer.peek]/[next]/[line], so equal streams plus this rule give equal
   parse outcomes. *)

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

type tally = { mutable inputs : int; mutable lex_errors : int;
               mutable diffs : string list }

let tally () = { inputs = 0; lex_errors = 0; diffs = [] }

let compare_on t ~what src =
  let o = oracle src in
  t.inputs <- t.inputs + 1;
  (match o with Error _ -> t.lex_errors <- t.lex_errors + 1 | Ok _ -> ());
  if not (same_stream o (on_demand src) && same_lex_outcome o src) then
    t.diffs <- what :: t.diffs

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

let suite =
  [
    Alcotest.test_case "oracle: corpus" `Quick test_corpus;
    Alcotest.test_case "oracle: fuzz generators" `Quick test_generators;
    Alcotest.test_case "oracle: number shapes" `Quick test_number_shapes;
    Alcotest.test_case "oracle: examples/ir" `Quick test_examples;
    Alcotest.test_case "oracle: printed kernels" `Quick test_printed_kernels;
  ]
