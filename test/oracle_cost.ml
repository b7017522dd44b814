(* Differential oracle for [Engine]'s cost text: the three-call
   composition it answered a [cost] request with before it costed a
   design once. The report, the form selection and the roofline each
   index the design afresh, and the latter two re-derive their Table-I
   inputs from it at the device's base clock, where the engine now reads
   them off the report. *)

open Tytra_cost

let inputs ~device ?calib ~nki d =
  Throughput.inputs_of_design ~device ?calib ~nki d

let recommend ~device ?calib ~nki d =
  Formsel.recommend ~device
    ~footprint:(Tytra_ir.Analysis.bytes_per_ndrange d)
    (inputs ~device ?calib ~nki d)

let roofline ~device ?calib ~form ~nki d =
  Roofline.of_inputs ~form (inputs ~device ?calib ~nki d)

(* What [tybec cost] prints for [d]. *)
let cost_text ~device ?calib ~form ~nki d =
  Format.asprintf "%a@.form selection:@.%a@.@.roofline: %a@." Report.pp
    (Report.evaluate ~device ?calib ~form ~nki d)
    Formsel.pp
    (recommend ~device ?calib ~nki d)
    Roofline.pp
    (roofline ~device ?calib ~form ~nki d)
