(* Counted-work linearity: building, validating and costing a replicated
   variant, and parsing its printed form, must cost work linear in its
   size. Work is counted as words allocated on the minor heap
   (Gc.minor_words), which is deterministic where wall time is not: a
   quadratic step (a list append per declaration, a per-instance digest
   of the shared PE) shows as a per-PE or per-line allocation that grows
   with the lane count. *)

open Tytra_ir
open Tytra_front

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* 4096 points: divisible by the 512 PEs of ParVecPipe (64, 8) *)
let sor () = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ()

let check_ratio what ~small ~large =
  let ratio = large /. small in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f vs %.0f words (ratio %.2f) within 2x" what
       large small ratio)
    true (ratio <= 2.0)

let test_variant_words_per_pe () =
  let p = sor () in
  let tpl = Lower.template p in
  let per_pe v =
    Tytra_cost.Report.clear_stage_caches ();
    let w =
      minor_words (fun () ->
          let d = Lower.derive tpl v in
          ignore (Validate.check d);
          Tytra_cost.Report.evaluate ~nki:100 d)
    in
    w /. float_of_int (Transform.pes v)
  in
  check_ratio "derive + validate + evaluate, words per PE"
    ~small:(per_pe (Transform.ParPipe 8))
    ~large:(per_pe (Transform.ParVecPipe (64, 8)))

let test_parse_words_per_line () =
  let p = sor () in
  let per_line v =
    let src = Pprint.design_to_string (Lower.lower p v) in
    let lines =
      String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 src
    in
    minor_words (fun () -> Parser.parse src) /. float_of_int lines
  in
  check_ratio "Parser.parse, words per line"
    ~small:(per_line Transform.Pipe)
    ~large:(per_line (Transform.ParPipe 64))

let suite =
  [
    Alcotest.test_case "variant work linear in PEs" `Quick
      test_variant_words_per_pe;
    Alcotest.test_case "parse work linear in lines" `Quick
      test_parse_words_per_line;
  ]
