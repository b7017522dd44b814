(* Parser totality: [Parser.parse_result] must never raise, whatever
   bytes it is fed — a fixed corpus of nasty inputs plus deterministic
   random-byte, token-soup and mutation generators. *)

open Tytra_ir

let never_raises ~what src =
  match Parser.parse_result src with
  | Ok _ | Error _ -> ()
  | exception e ->
      Alcotest.failf "parse_result raised %s on %s (%d bytes)"
        (Printexc.to_string e) what (String.length src)

(* dune runtest runs the binary from _build/default/test, where the
   glob dep materializes the corpus; dune exec runs from the root *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tirl")
  |> List.sort compare

let test_corpus () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus present" true (List.length files >= 7);
  List.iter
    (fun f ->
      let src = read_file (Filename.concat corpus_dir f) in
      never_raises ~what:f src;
      (* the seed entry must stay on the Ok channel *)
      if f = "valid.tirl" then
        match Parser.parse_result ~file:f src with
        | Ok d ->
            Alcotest.(check int) "valid.tirl functions" 2
              (List.length d.Ast.d_funcs)
        | Error e -> Alcotest.failf "valid.tirl: %s" (Error.to_string e))
    files

(* The three input generators, each with its seed; test_lexer draws
   many more inputs from the same streams. *)

let random_bytes_seed = [| 0x7177a5 |]

let random_bytes st =
  let len = Random.State.int st 400 in
  String.init len (fun _ -> Char.chr (Random.State.int st 256))

(* structurally plausible fragments reach deeper parser states than raw
   bytes do *)
let token_soup_seed = [| 0xbeef |]

let soup_atoms =
  [| "define"; "void"; "@main"; "@f"; "%x"; "%y"; "memobj"; "stream";
     "istream"; "ostream"; "pattern"; "cont"; "strided"; "addrspace";
     "global"; "size"; "init"; "call"; "add"; "mul"; "offset"; "mov";
     "seq"; "pipe"; "par"; "ui18"; "ui32"; "("; ")"; "{"; "}"; ",";
     "="; "!"; "!0"; "!\"CONT\""; "0"; "-1"; "+48"; "3.5"; "1e9";
     "99999999999999999999"; "\"s\""; "\n"; ";comment\n" |]

let token_soup st =
  let n = 1 + Random.State.int st 60 in
  String.concat " "
    (List.init n (fun _ ->
         soup_atoms.(Random.State.int st (Array.length soup_atoms))))

(* flip 1-4 bytes of [base] *)
let mutation_seed = [| 0x5eed |]

let mutant st base =
  let b = Bytes.of_string base in
  let flips = 1 + Random.State.int st 4 in
  for _ = 1 to flips do
    Bytes.set b
      (Random.State.int st (Bytes.length b))
      (Char.chr (Random.State.int st 256))
  done;
  Bytes.to_string b

let valid_design () = read_file (Filename.concat corpus_dir "valid.tirl")

let test_random_bytes () =
  let st = Random.State.make random_bytes_seed in
  for i = 1 to 300 do
    never_raises ~what:(Printf.sprintf "random case %d" i) (random_bytes st)
  done

let test_token_soup () =
  let st = Random.State.make token_soup_seed in
  for i = 1 to 300 do
    never_raises ~what:(Printf.sprintf "token soup %d" i) (token_soup st)
  done

let test_mutations () =
  (* every mutant of a valid design must parse or fail cleanly, never
     crash *)
  let base = valid_design () in
  let st = Random.State.make mutation_seed in
  for i = 1 to 300 do
    never_raises ~what:(Printf.sprintf "mutant %d" i) (mutant st base)
  done

let test_pathological_shapes () =
  (* deep nesting must not blow the stack through parse_result *)
  never_raises ~what:"deep braces" (String.make 200_000 '{');
  never_raises ~what:"deep parens"
    ("define void @f " ^ String.make 200_000 '(');
  never_raises ~what:"long comment" (";" ^ String.make 500_000 'x');
  never_raises ~what:"many banged ints"
    ("@main.p = addrspace(1) ui18 "
    ^ String.concat " " (List.init 5_000 (fun i -> "!" ^ string_of_int i)));
  never_raises ~what:"huge float exponent" "%m = memobj global ui18 size 1e999999";
  never_raises ~what:"nul bytes" "define \x00void @f\x00 () seq { }"

let suite =
  [
    Alcotest.test_case "corpus" `Quick test_corpus;
    Alcotest.test_case "random bytes" `Quick test_random_bytes;
    Alcotest.test_case "token soup" `Quick test_token_soup;
    Alcotest.test_case "mutations of valid input" `Quick test_mutations;
    Alcotest.test_case "pathological shapes" `Quick test_pathological_shapes;
  ]
