(* The closed-form cost of replicated DSE variants against its oracle.

   [Report.replicate] costs a ParPipe / ParVecPipe variant from its
   program's Pipe report, without the variant's design. The oracle is
   the IR path it replaces in the DSE: derive the variant's design from
   the program's template ([Lower.derive]: build, index, validate) and
   run the whole cost model on it ([Report.evaluate]). The two must
   agree field for field, floats bit-equal, and print the same. *)

open Tytra_front
module Report = Tytra_cost.Report
module Throughput = Tytra_cost.Throughput

(** [full_report ~device ?calib ~form ~nki tpl v] — the oracle: the full
    cost-model report of variant [v] of the template's program. *)
let full_report ~device ?calib ~form ~nki tpl v =
  Report.evaluate ~device ?calib ~form ~nki (Lower.derive tpl v)

let replicated (v : Transform.variant) = Transform.pes v >= 2

(* The four kernels at side 16, at each element type the DSE sweeps. *)
let programs () =
  List.concat_map
    (fun ty ->
      [ ("sor", Tytra_kernels.Sor.program ~ty ~im:16 ~jm:16 ~km:16 ());
        ("hotspot", Tytra_kernels.Hotspot.program ~ty ~rows:16 ~cols:16 ());
        ("lavamd", Tytra_kernels.Lavamd.program ~ty ~boxes:16 ());
        ("srad", Tytra_kernels.Srad.program ~ty ~rows:16 ~cols:16 ()) ]
      |> List.map (fun (k, p) -> (k ^ "/" ^ Tytra_ir.Ty.to_string ty, p)))
    [ Tytra_ir.Ty.UInt 18; Tytra_ir.Ty.UInt 32; Tytra_ir.Ty.Float 32 ]

let forms = [ Throughput.FormA; Throughput.FormB; Throughput.FormC ]

(* Every (device, calibration, form, nki) evaluation setting: the device
   registry × forms × nki {1, 100} on each device's own calibration,
   plus one foreign calibration. *)
let settings =
  List.concat_map
    (fun device ->
      List.concat_map
        (fun form ->
          List.map (fun nki -> (device, None, form, nki)) [ 1; 100 ])
        forms)
    Tytra_device.Device.all
  @ [ ( Tytra_device.Device.stratixv_gsd8,
        Some Tytra_device.Bandwidth.virtex7_default,
        Throughput.FormB,
        100 ) ]

let test_replicate_equals_full_path () =
  let checked = ref 0 and mismatches = ref [] in
  List.iter
    (fun (name, p) ->
      let tpl = Lower.template p in
      let variants =
        List.filter replicated (Transform.enumerate ~max_lanes:64 ~max_vec:8 p)
      in
      let designs = List.map (fun v -> (v, Lower.derive tpl v)) variants in
      List.iter
        (fun (device, calib, form, nki) ->
          let baseline = full_report ~device ?calib ~form ~nki tpl Transform.Pipe in
          List.iter
            (fun (v, d) ->
              let want = Report.evaluate ~device ?calib ~form ~nki d in
              let got =
                Report.replicate ~device ~form ~name:(Lower.design_name p v)
                  ~lanes:(Transform.lanes v) ~vec:(Transform.vec v) baseline
              in
              incr checked;
              if got <> want || Report.to_string got <> Report.to_string want
              then
                mismatches :=
                  Printf.sprintf "%s %s on %s, form %s, nki %d%s:\n%s\nvs\n%s"
                    name (Transform.to_string v)
                    device.Tytra_device.Device.dev_name
                    (Throughput.form_to_string form) nki
                    (if calib = None then "" else ", foreign calibration")
                    (Report.to_string got) (Report.to_string want)
                  :: !mismatches)
            designs)
        settings)
    (programs ());
  (match List.rev !mismatches with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%d of %d replicated reports differ; first: %s"
        (List.length !mismatches) !checked first);
  (* the scope does not shrink unnoticed: 366 replicated variants over
     the 12 programs, times 19 settings *)
  Alcotest.(check int) "reports compared" 6954 !checked

let suite =
  [
    Alcotest.test_case "replicate == evaluate of the derived design" `Quick
      test_replicate_equals_full_path;
  ]
