(* Unit and property tests for Tytra_ir.Ty: widths, parsing, masking. *)

open Tytra_ir

let check = Alcotest.check
let ty = Alcotest.testable Ty.pp Ty.equal

let test_width () =
  check Alcotest.int "ui18 width" 18 (Ty.width (Ty.UInt 18));
  check Alcotest.int "si32 width" 32 (Ty.width (Ty.SInt 32));
  check Alcotest.int "fp64 width" 64 (Ty.width (Ty.Float 64));
  check Alcotest.int "bool width" 1 (Ty.width Ty.Bool)

let test_to_of_string () =
  List.iter
    (fun t ->
      check ty
        ("roundtrip " ^ Ty.to_string t)
        t
        (Ty.of_string_exn (Ty.to_string t)))
    [ Ty.UInt 18; Ty.UInt 1; Ty.SInt 24; Ty.Float 32; Ty.Float 64; Ty.Bool ]

let test_of_string_errors () =
  List.iter
    (fun s ->
      match Ty.of_string s with
      | Ok t -> Alcotest.failf "%S parsed to %s" s (Ty.to_string t)
      | Error _ -> ())
    [ "ui"; "ui0"; "ui129"; "fp16"; "fp65"; "int32"; ""; "uixx"; "si";
      (* spellings int_of_string reads, which to_string never prints *)
      "ui0x12"; "ui1_8"; "ui018"; "ui0b10010"; "ui0u18"; "si0o22"; "fp032";
      "ui+18" ]

let test_classify () =
  Alcotest.(check bool) "ui integer" true (Ty.is_integer (Ty.UInt 18));
  Alcotest.(check bool) "fp not integer" false (Ty.is_integer (Ty.Float 32));
  Alcotest.(check bool) "si signed" true (Ty.is_signed (Ty.SInt 8));
  Alcotest.(check bool) "ui not signed" false (Ty.is_signed (Ty.UInt 8));
  Alcotest.(check bool) "fp float" true (Ty.is_float (Ty.Float 64))

let test_mask_ui () =
  check Alcotest.int64 "ui8 wraps 256" 0L (Ty.mask (Ty.UInt 8) 256L);
  check Alcotest.int64 "ui8 wraps 257" 1L (Ty.mask (Ty.UInt 8) 257L);
  check Alcotest.int64 "ui8 keeps 255" 255L (Ty.mask (Ty.UInt 8) 255L);
  check Alcotest.int64 "ui18 max" 262143L (Ty.mask (Ty.UInt 18) 262143L);
  check Alcotest.int64 "ui18 wrap" 0L (Ty.mask (Ty.UInt 18) 262144L)

let test_mask_si () =
  check Alcotest.int64 "si8 128 -> -128" (-128L) (Ty.mask (Ty.SInt 8) 128L);
  check Alcotest.int64 "si8 -129 -> 127" 127L (Ty.mask (Ty.SInt 8) (-129L));
  check Alcotest.int64 "si8 keeps -1" (-1L) (Ty.mask (Ty.SInt 8) (-1L));
  check Alcotest.int64 "bool mask" 1L (Ty.mask Ty.Bool 42L)

let test_int_range () =
  (match Ty.int_range (Ty.UInt 8) with
  | Some (lo, hi) ->
      check Alcotest.int64 "ui8 lo" 0L lo;
      check Alcotest.int64 "ui8 hi" 255L hi
  | None -> Alcotest.fail "ui8 has a range");
  (match Ty.int_range (Ty.SInt 8) with
  | Some (lo, hi) ->
      check Alcotest.int64 "si8 lo" (-128L) lo;
      check Alcotest.int64 "si8 hi" 127L hi
  | None -> Alcotest.fail "si8 has a range");
  check Alcotest.bool "float no range" true (Ty.int_range (Ty.Float 32) = None)

(* property: mask is idempotent and lands in range *)
let prop_mask_idempotent =
  QCheck.Test.make ~name:"mask idempotent and in range" ~count:500
    QCheck.(pair (int_range 1 62) int64)
    (fun (w, v) ->
      let t = Ty.UInt w in
      let m = Ty.mask t v in
      Ty.mask t m = m
      &&
      match Ty.int_range t with
      | Some (lo, hi) -> Int64.compare m lo >= 0 && Int64.compare m hi <= 0
      | None -> false)

let prop_mask_signed =
  QCheck.Test.make ~name:"signed mask in range" ~count:500
    QCheck.(pair (int_range 2 62) int64)
    (fun (w, v) ->
      let t = Ty.SInt w in
      let m = Ty.mask t v in
      match Ty.int_range t with
      | Some (lo, hi) -> Int64.compare m lo >= 0 && Int64.compare m hi <= 0
      | None -> false)

let suite =
  [
    Alcotest.test_case "width" `Quick test_width;
    Alcotest.test_case "to/of_string roundtrip" `Quick test_to_of_string;
    Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
    Alcotest.test_case "classification" `Quick test_classify;
    Alcotest.test_case "mask unsigned" `Quick test_mask_ui;
    Alcotest.test_case "mask signed" `Quick test_mask_si;
    Alcotest.test_case "int_range" `Quick test_int_range;
    QCheck_alcotest.to_alcotest prop_mask_idempotent;
    QCheck_alcotest.to_alcotest prop_mask_signed;
  ]
