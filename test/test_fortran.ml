(* Legacy Fortran front-end tests: parsing, elaboration, semantics
   equivalence with the hand-written kernels, and rejection of the
   unsupported. *)

open Tytra_front

let sizes = [ ("im", 8); ("jm", 6); ("km", 6) ]

let sor_src =
  {|
parameter omega = 1
parameter cn1 = 1
parameter cn2l = 1
parameter cn2s = 1
parameter cn3l = 1
parameter cn3s = 1
parameter cn4l = 1
parameter cn4s = 1
do k = 1, km
  do j = 1, jm
    do i = 1, im
      reltmp = omega * (cn1 * ( cn2l * p(i+1,j,k) + cn2s * p(i-1,j,k)  &
             + cn3l * p(i,j+1,k) + cn3s * p(i,j-1,k)                   &
             + cn4l * p(i,j,k+1) + cn4s * p(i,j,k-1) ) - rhs(i,j,k)) - p(i,j,k)
      p_new(i,j,k) = p(i,j,k) + reltmp
      sorerracc = sorerracc + reltmp * reltmp
    end do
  end do
end do
|}

let test_parse_sor () =
  let p = Fortran.parse ~sizes sor_src in
  Alcotest.(check int) "points" (8 * 6 * 6) (Expr.points p);
  Alcotest.(check (list string)) "inputs" [ "p"; "rhs" ]
    p.Expr.p_kernel.Expr.k_inputs;
  Alcotest.(check int) "8 params" 8
    (List.length p.Expr.p_kernel.Expr.k_params);
  Alcotest.(check int) "1 output" 1
    (List.length p.Expr.p_kernel.Expr.k_outputs);
  Alcotest.(check int) "1 reduction" 1
    (List.length p.Expr.p_kernel.Expr.k_reductions);
  (* stencil offsets linearize with i fastest: ±1, ±im, ±im*jm *)
  let offs = List.assoc "p" (Expr.stencil_offsets p.Expr.p_kernel) in
  Alcotest.(check (list int)) "offsets" [ -48; -8; -1; 1; 8; 48 ] offs

let test_semantics_match_hand_written () =
  let p = Fortran.parse ~sizes sor_src in
  let hand = Tytra_kernels.Sor.program ~im:8 ~jm:6 ~km:6 () in
  let env = Tytra_kernels.Workloads.random_env hand in
  let a = Eval.run_baseline hand env in
  let b = Eval.run_baseline p env in
  Alcotest.(check bool) "outputs equal" true
    (List.assoc "p" a.Eval.outputs = List.assoc "p_new" b.Eval.outputs);
  Alcotest.(check int64) "reductions equal"
    (List.assoc "sorErrAcc" a.Eval.reductions)
    (List.assoc "sorerracc" b.Eval.reductions)

let test_imported_lowers_and_validates () =
  let p = Fortran.parse ~sizes sor_src in
  List.iter
    (fun v ->
      let d = Lower.lower p v in
      Alcotest.(check bool)
        (Transform.to_string v ^ " validates")
        true
        (Tytra_ir.Validate.is_valid d))
    [ Transform.Pipe; Transform.ParPipe 4; Transform.Seq ]

let test_1d_and_2d_nests () =
  let p1 =
    Fortran.parse ~sizes:[ ("n", 32) ]
      {|
do i = 1, n
  y(i) = x(i+1) + x(i-1)
end do
|}
  in
  Alcotest.(check int) "1d points" 32 (Expr.points p1);
  Alcotest.(check (list int)) "1d offsets" [ -1; 1 ]
    (List.assoc "x" (Expr.stencil_offsets p1.Expr.p_kernel));
  let p2 =
    Fortran.parse ~sizes:[ ("rows", 4); ("cols", 8) ]
      {|
do r = 1, rows
  do c = 1, cols
    y(c,r) = x(c,r+1) + x(c+1,r)
  end do
end do
|}
  in
  Alcotest.(check int) "2d points" 32 (Expr.points p2);
  (* r stride = cols = 8 *)
  Alcotest.(check (list int)) "2d offsets" [ 1; 8 ]
    (List.assoc "x" (Expr.stencil_offsets p2.Expr.p_kernel))

let test_literal_bounds_and_enddo () =
  let p =
    Fortran.parse ~sizes:[]
      {|
do i = 1, 16
  y(i) = 3 * x(i)
enddo
|}
  in
  Alcotest.(check int) "points" 16 (Expr.points p)

let test_min_max_reductions () =
  let p =
    Fortran.parse ~sizes:[ ("n", 8) ]
      {|
do i = 1, n
  hottest = max(hottest, t(i))
  y(i) = t(i)
end do
|}
  in
  let r = List.hd p.Expr.p_kernel.Expr.k_reductions in
  Alcotest.(check bool) "max reduction" true (r.Expr.r_op = Tytra_ir.Ast.Max)

let test_intrinsics () =
  let p =
    Fortran.parse ~sizes:[ ("n", 8) ]
      {|
do i = 1, n
  y(i) = abs(x(i)) + sqrt(x(i)) + min(x(i), 7)
end do
|}
  in
  let env = [ ("x", [| 9L; 16L; 25L; 4L; 1L; 0L; 49L; 64L |]) ] in
  let r = Eval.run_baseline p env in
  let y = List.assoc "y" r.Eval.outputs in
  (* abs(9)+sqrt(9)+min(9,7) = 9+3+7 = 19 *)
  Alcotest.(check int64) "first" 19L y.(0)

let expect_error src sizes' =
  match Fortran.parse ~sizes:sizes' src with
  | exception Fortran.Error _ -> ()
  | _ -> Alcotest.failf "expected rejection of %S" src

let test_rejections () =
  (* non-affine index *)
  expect_error {|
do i = 1, 8
  y(i) = x(j)
end do
|} [];
  (* unknown size name *)
  expect_error {|
do i = 1, n
  y(i) = x(i)
end do
|} [];
  (* self-dependent non-reduction *)
  expect_error {|
do i = 1, 8
  s = s * x(i)
  y(i) = s
end do
|} [];
  (* output written at an offset *)
  expect_error {|
do i = 1, 8
  y(i+1) = x(i)
end do
|} [];
  (* lower bound not 1 *)
  expect_error {|
do i = 2, 8
  y(i) = x(i)
end do
|} [];
  (* 4-deep nest *)
  expect_error
    {|
do a = 1, 2
do b = 1, 2
do c = 1, 2
do d = 1, 2
  y(d,c,b,a) = x(d,c,b,a)
end do
end do
end do
end do
|}
    []

let test_float_kernel () =
  let p =
    Fortran.parse ~ty:(Tytra_ir.Ty.Float 32) ~sizes:[ ("n", 4) ]
      {|
parameter w = 0.5
do i = 1, n
  y(i) = w * x(i)
end do
|}
  in
  let x = Array.map Int64.bits_of_float [| 2.0; 4.0; 6.0; 8.0 |] in
  let r = Eval.run_baseline p [ ("x", x) ] in
  let y = List.assoc "y" r.Eval.outputs in
  Alcotest.(check (float 1e-9)) "0.5 * 2.0" 1.0 (Int64.float_of_bits y.(0))

(* Kernel names that collide with the names lowering generates: [@f0]'s
   temporaries [t0], [t1], ... and the value [out_<o>] of output [o]. A
   temporary skips a parameter's name, so an input [t0] lowers to a
   valid design at every lane count; an input or scalar [out_y] beside
   an output [y] (or an input [o_y], its port) is refused as an invalid
   kernel, not as a parse error. *)
let y_of name =
  Printf.sprintf "do i = 1, n\n  y(i) = %s(i) + 1\nend do\n" name

let test_generated_names () =
  let p = Fortran.parse ~sizes:[ ("n", 16) ] (y_of "t0") in
  List.iter
    (fun v -> ignore (Lower.lower p v))
    Transform.[ Seq; Pipe; ParPipe 2; ParPipe 4; ParVecPipe (2, 2) ];
  let invalid what src =
    match Fortran.parse ~sizes:[ ("n", 16) ] src with
    | exception Fortran.Invalid _ -> ()
    | exception Fortran.Error (m, _) ->
        Alcotest.failf "%s: refused as a parse error: %s" what m
    | _ -> Alcotest.failf "%s: accepted" what
  in
  invalid "input out_y" (y_of "out_y");
  invalid "input o_y" (y_of "o_y");
  invalid "scalar out_y"
    "parameter out_y = 2\ndo i = 1, n\n  y(i) = out_y * x(i)\nend do\n"

(* Loop bounds whose index space an [int] cannot count are an invalid
   kernel, with the shape in the message. A product past [max_int] used
   to wrap (2.7e6 cubed imported with memory objects of 1.2e18
   elements), and a side below 1 reached lowering, or with two negative
   sides imported. *)
let test_shape_refused () =
  let refused sizes expect =
    match Fortran.parse ~sizes sor_src with
    | exception Fortran.Invalid m ->
        Alcotest.(check string) "the shape's message" expect m
    | _ -> Alcotest.failf "accepted: %s" expect
  in
  let big = 2_700_000 in
  refused
    [ ("im", big); ("jm", big); ("km", big) ]
    (Printf.sprintf
       "index space 2700000x2700000x2700000 has more than %d points" max_int);
  refused [ ("im", -3); ("jm", 4); ("km", 4) ]
    "index space 4x4x-3 has a side below 1";
  refused [ ("im", -3); ("jm", -4); ("km", 4) ]
    "index space 4x-4x-3 has a side below 1";
  (* the largest cube an int counts still imports *)
  let side = 1_664_510 in
  Alcotest.(check int) "1664510^3 points" (side * side * side)
    (Expr.points
       (Fortran.parse ~sizes:[ ("im", side); ("jm", side); ("km", side) ] sor_src))

let suite =
  [
    Alcotest.test_case "parse SOR loop nest" `Quick test_parse_sor;
    Alcotest.test_case "matches hand-written kernel" `Quick
      test_semantics_match_hand_written;
    Alcotest.test_case "imported program lowers" `Quick
      test_imported_lowers_and_validates;
    Alcotest.test_case "1-D and 2-D nests" `Quick test_1d_and_2d_nests;
    Alcotest.test_case "literal bounds / enddo" `Quick
      test_literal_bounds_and_enddo;
    Alcotest.test_case "min/max reductions" `Quick test_min_max_reductions;
    Alcotest.test_case "intrinsics" `Quick test_intrinsics;
    Alcotest.test_case "unsupported code rejected" `Quick test_rejections;
    Alcotest.test_case "float kernels" `Quick test_float_kernel;
    Alcotest.test_case "names of generated locals" `Quick
      test_generated_names;
    Alcotest.test_case "index spaces an int cannot count" `Quick
      test_shape_refused;
  ]
