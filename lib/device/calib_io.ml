(** Persistence for bandwidth calibrations.

    The cost-model use case (paper Fig 2) is: run a one-time set of
    benchmark experiments for each FPGA target, keep the device-specific
    costing parameters, feed them to the cost model thereafter. This
    module is the "keep" step — a plain, diff-friendly text format:

    {v
    # tytra bandwidth calibration v1
    device adm-pcie-7v3.virtex-7-690t
    cont    40000      4.6875e+07
    strided 1000000    8.75e+05
    random  1000000    8.3e+05
    v}

    Columns: pattern, stream bytes, sustained bytes/s. *)

let magic = "# tytra bandwidth calibration v1"

module Log = (val Logs.src_log (Logs.Src.create "tytra.calib"))

(** [save path calib] — write [calib] to [path]. *)
let save (path : string) (c : Bandwidth.calib) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "device %s\n" c.Bandwidth.cal_device;
      let dump tag pts =
        List.iter
          (fun (p : Bandwidth.point) ->
            Printf.fprintf oc "%s %.17g %.17g\n" tag p.Bandwidth.cal_bytes
              p.Bandwidth.cal_bps)
          pts
      in
      dump "cont" c.Bandwidth.cont;
      dump "strided" c.Bandwidth.strided;
      dump "random" c.Bandwidth.random)

(** [parse ~path text] — a calibration from [text], the contents of
    file [path] (named in the warnings it logs). Returns [Error] with a
    line-numbered message on malformed input. *)
let parse ~(path : string) (text : string) : (Bandwidth.calib, string) result =
  (* the lines [input_line] would read: none in an empty text, and no
     empty line after a final newline *)
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> List.rev rest
    | all -> List.rev all
  in
  let device = ref "" in
  let cont = ref [] and strided = ref [] and random = ref [] in
  let line lineno l =
    let l = String.trim l in
    if l = "" || l.[0] = '#' then None
    else
      match String.split_on_char ' ' l |> List.filter (fun s -> s <> "") with
      | [ "device"; name ] ->
          device := name;
          None
      | [ tag; bytes; bps ] -> (
          match (float_of_string_opt bytes, float_of_string_opt bps) with
          | Some b, Some s -> (
              let pt = (b, s) in
              match tag with
              | "cont" -> cont := pt :: !cont; None
              | "strided" -> strided := pt :: !strided; None
              | "random" -> random := pt :: !random; None
              | _ ->
                  Some
                    (Printf.sprintf "line %d: unknown pattern %S" lineno tag))
          | _ -> Some (Printf.sprintf "line %d: malformed numbers" lineno))
      | _ -> Some (Printf.sprintf "line %d: malformed line" lineno)
  in
  let rec body lineno = function
    | [] -> None
    | l :: rest -> (
        match line lineno l with
        | Some e -> Some e
        | None -> body (lineno + 1) rest)
  in
  let err =
    match lines with
    | [] -> None
    | first :: rest ->
        if String.trim first <> magic then
          Some "not a tytra calibration file (bad header)"
        else body 2 rest
  in
  match err with
  | Some e ->
      Log.warn (fun m -> m "%s: %s" path e);
      Error e
  | None ->
      if !cont = [] then begin
        Log.warn (fun m -> m "%s: calibration has no contiguous points" path);
        Error "calibration has no contiguous points"
      end
      else
        Ok
          (Bandwidth.make ~device:!device ~cont:(List.rev !cont)
             ~strided:(List.rev !strided) ~random:(List.rev !random))

(** [load path] — read a calibration back: {!parse} on the file's
    contents, or [Error] with the message of a failed read. *)
let load (path : string) : (Bandwidth.calib, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> parse ~path text

let load_exn path =
  match load path with Ok c -> c | Error e -> invalid_arg ("Calib_io: " ^ e)
