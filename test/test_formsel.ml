(* Form-selection and roofline tests. *)

open Tytra_front
open Tytra_cost

let lower_sor side v =
  Lower.lower (Tytra_kernels.Sor.program ~im:side ~jm:side ~km:side ()) v

(* The production path, as [tybec cost] takes it: the report's Table-I
   inputs at the base clock. *)
let device = Tytra_device.Device.stratixv_gsd8

let inputs ~nki d =
  Report.base_clock_inputs ~device (Report.evaluate ~device ~nki d)

let recommend ~nki d =
  Formsel.recommend ~device
    ~footprint:(Tytra_ir.Analysis.bytes_per_ndrange d)
    (inputs ~nki d)

let roofline ?form ~nki d = Roofline.of_inputs ?form (inputs ~nki d)

let test_small_data_prefers_form_c () =
  (* 16^3 x 3 streams x 3 B ≈ 37 KB: fits on-chip easily *)
  let d = lower_sor 16 Transform.Pipe in
  let r = recommend ~nki:1000 d in
  Alcotest.(check bool) "form C recommended" true
    (r.Formsel.fr_best.Formsel.fo_form = Throughput.FormC);
  Alcotest.(check int) "untiled" 1 r.Formsel.fr_best.Formsel.fo_tiles;
  Alcotest.(check int) "three options" 3 (List.length r.Formsel.fr_options)

let test_medium_data_tiles () =
  (* 128^3 x 3 x 3 B ≈ 19 MB: too big for BRAM, fits DRAM, NKI large ->
     tiled form C must appear as an option *)
  let d = lower_sor 128 Transform.Pipe in
  let r = recommend ~nki:1000 d in
  let tiled =
    List.find_opt (fun o -> o.Formsel.fo_tiles > 1) r.Formsel.fr_options
  in
  (match tiled with
  | Some t ->
      Alcotest.(check bool) "tile count covers footprint" true
        (float_of_int r.Formsel.fr_footprint_bytes
         /. float_of_int t.Formsel.fo_tiles
         <= r.Formsel.fr_onchip_bytes)
  | None -> Alcotest.fail "expected a tiled form-C option");
  (* and form B is present *)
  Alcotest.(check bool) "form B present" true
    (List.exists
       (fun o -> o.Formsel.fo_form = Throughput.FormB && o.Formsel.fo_tiles = 1)
       r.Formsel.fr_options)

let test_no_tiling_without_reuse () =
  (* with NKI = 1 there is no reuse to amortize tile loads: no tiled option *)
  let d = lower_sor 128 Transform.Pipe in
  let r = recommend ~nki:1 d in
  Alcotest.(check bool) "no tiled option at nki=1" true
    (List.for_all (fun o -> o.Formsel.fo_tiles = 1) r.Formsel.fr_options)

let test_ordering_invariant () =
  let d = lower_sor 64 Transform.Pipe in
  let r = recommend ~nki:100 d in
  let rec sorted = function
    | a :: (b :: _ as tl) ->
        a.Formsel.fo_ekit >= b.Formsel.fo_ekit && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "options sorted best-first" true
    (sorted r.Formsel.fr_options);
  Alcotest.(check bool) "best is head" true
    (r.Formsel.fr_best == List.hd r.Formsel.fr_options)

let test_form_b_beats_a_with_reuse () =
  let d = lower_sor 64 Transform.Pipe in
  let r = recommend ~nki:1000 d in
  let find f =
    List.find (fun o -> o.Formsel.fo_form = f && o.Formsel.fo_tiles = 1)
      r.Formsel.fr_options
  in
  Alcotest.(check bool) "B >= A" true
    ((find Throughput.FormB).Formsel.fo_ekit
     >= (find Throughput.FormA).Formsel.fo_ekit)

(* ---- roofline ---- *)

let test_roofline_basics () =
  let d = lower_sor 32 Transform.Pipe in
  let r = roofline ~nki:100 d in
  Alcotest.(check bool) "intensity positive" true (r.Roofline.rf_intensity > 0.0);
  Alcotest.(check bool) "attainable <= compute ceiling" true
    (r.Roofline.rf_attainable <= r.Roofline.rf_compute_ceiling +. 1e-6);
  Alcotest.(check bool) "attainable <= gmem roof" true
    (r.Roofline.rf_attainable <= r.Roofline.rf_gmem_roof +. 1e-6)

let test_roofline_lanes_move_compute_ceiling () =
  let r1 = roofline ~nki:100 (lower_sor 32 Transform.Pipe) in
  let r4 = roofline ~nki:100 (lower_sor 32 (Transform.ParPipe 4)) in
  Alcotest.(check bool) "4 lanes ~4x compute ceiling" true
    (r4.Roofline.rf_compute_ceiling /. r1.Roofline.rf_compute_ceiling > 3.9);
  Alcotest.(check (float 1e-9)) "intensity invariant"
    r1.Roofline.rf_intensity r4.Roofline.rf_intensity

let test_roofline_crossover () =
  (* enough lanes push the variant from compute-bound to bandwidth-bound *)
  let prog = Tytra_kernels.Sor.program ~im:32 ~jm:32 ~km:32 () in
  let bound l =
    (roofline ~nki:100
       (Lower.lower prog (if l = 1 then Transform.Pipe else Transform.ParPipe l)))
      .Roofline.rf_bound
  in
  Alcotest.(check bool) "1 lane compute-bound" true (bound 1 = `Compute);
  Alcotest.(check bool) "16 lanes bandwidth-bound" true (bound 16 <> `Compute)

let test_roofline_form_c_ignores_bandwidth () =
  let d = lower_sor 16 (Transform.ParPipe 16) in
  let r = roofline ~form:Throughput.FormC ~nki:100 d in
  Alcotest.(check bool) "form C compute-bound" true (r.Roofline.rf_bound = `Compute);
  Alcotest.(check (float 1e-6)) "attainable = compute ceiling"
    r.Roofline.rf_compute_ceiling r.Roofline.rf_attainable

let suite =
  [
    Alcotest.test_case "small data -> form C" `Quick
      test_small_data_prefers_form_c;
    Alcotest.test_case "medium data tiles" `Quick test_medium_data_tiles;
    Alcotest.test_case "no tiling without reuse" `Quick
      test_no_tiling_without_reuse;
    Alcotest.test_case "options sorted" `Quick test_ordering_invariant;
    Alcotest.test_case "B beats A with reuse" `Quick
      test_form_b_beats_a_with_reuse;
    Alcotest.test_case "roofline basics" `Quick test_roofline_basics;
    Alcotest.test_case "roofline lanes" `Quick
      test_roofline_lanes_move_compute_ceiling;
    Alcotest.test_case "roofline crossover" `Quick test_roofline_crossover;
    Alcotest.test_case "roofline form C" `Quick
      test_roofline_form_c_ignores_bandwidth;
  ]
