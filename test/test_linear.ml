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

let parse_words_per_line v =
  let src = Pprint.design_to_string (Lower.lower (sor ()) v) in
  let lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 src
  in
  minor_words (fun () -> Parser.parse src) /. float_of_int lines

let test_parse_words_per_line () =
  check_ratio "Parser.parse, words per line"
    ~small:(parse_words_per_line Transform.Pipe)
    ~large:(parse_words_per_line (Transform.ParPipe 64))

(* An absolute bound as well as the ratio. Parsing the 676-line SOR
   ParPipe-64 design allocates 99.3 words a line with the on-demand
   lexer; the tokenize-then-index lexer it replaced allocated 222.5. *)
let parse_words_per_line_bound = 102.0

let test_parse_words_bound () =
  let w = parse_words_per_line (Transform.ParPipe 64) in
  Alcotest.(check bool)
    (Printf.sprintf "Parser.parse on SOR ParPipe-64: %.1f words per line <= %.1f"
       w parse_words_per_line_bound)
    true
    (w <= parse_words_per_line_bound)

(* An absolute bound on the full derive of SOR ParVecPipe (64, 8) from a
   template whose lanes are already interned, as they are for every
   variant of a sweep no wider than one derived before it: the path of
   the first variant of each PE count, which Lower.derive_sym always
   takes. Interning each lane's streams, ports, names and parameters in
   the template, validating the Manage-IR without a location string or
   option box per declaration, and dropping the index's unused
   per-function port groups took it from 460.9 to 154.0 words per PE. *)
let derive_words_per_pe_bound = 161.0

let test_derive_words_bound () =
  let tpl = Lower.template (sor ()) in
  let v = Transform.ParVecPipe (64, 8) in
  ignore (Lower.derive_sym tpl v);
  let w =
    minor_words (fun () -> Lower.derive_sym tpl v)
    /. float_of_int (Transform.pes v)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Lower.derive_sym on SOR %s: %.1f words per PE <= %.1f"
       (Transform.to_string v) w derive_words_per_pe_bound)
    true
    (w <= derive_words_per_pe_bound)

(* An absolute bound on the first derive of SOR ParVecPipe (64, 8)
   through Lower.derive, on a template whose lanes are already interned
   and certified: the design, wiring included, is checked against the
   certified lanes by position, and nothing is indexed. 72.4 words per
   PE, against 106.4 when the wiring was indexed and validated, and
   154.0 for the full check Lower.derive_sym makes. *)
let first_derive_words_per_pe_bound = 75.0

let test_first_derive_words_bound () =
  let tpl = Lower.template (sor ()) in
  let v = Transform.ParVecPipe (64, 8) in
  ignore (Lower.interned_lanes tpl (Transform.pes v));
  let w =
    minor_words (fun () -> Lower.derive tpl v)
    /. float_of_int (Transform.pes v)
  in
  Alcotest.(check bool)
    (Printf.sprintf "first Lower.derive on SOR %s: %.1f words per PE <= %.1f"
       (Transform.to_string v) w first_derive_words_per_pe_bound)
    true
    (w <= first_derive_words_per_pe_bound)

(* An absolute bound on a later derive of a PE count: SOR ParPipe 64
   after ParVecPipe (8, 8), whose shell it is built from. It builds only
   @f1's body and checks the design by position: 10.0 words per PE,
   against 51.0 when the wiring functions were indexed and validated,
   and 187.4 when every variant was built, indexed and validated in
   full. *)
let shell_derive_words_per_pe_bound = 11.0

let test_shell_derive_words_bound () =
  let tpl = Lower.template (sor ()) in
  ignore (Lower.derive tpl (Transform.ParVecPipe (8, 8)));
  let v = Transform.ParPipe 64 in
  let w =
    minor_words (fun () -> Lower.derive tpl v)
    /. float_of_int (Transform.pes v)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "Lower.derive on SOR %s after par8-vec8-pipe: %.1f words per PE <= %.1f"
       (Transform.to_string v) w shell_derive_words_per_pe_bound)
    true
    (w <= shell_derive_words_per_pe_bound)

(* Every word a call allocates, on the minor heap or directly on the
   major heap: a large table's bucket array is allocated on the major
   heap, so [minor_words] alone does not see it. The major counters are
   read after a minor collection, which brings them up to date. *)
let allocated_words f =
  let direct_major () =
    Gc.minor ();
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let m0 = direct_major () in
  let w = minor_words f in
  w +. direct_major () -. m0

(* Interning the 512 lanes of a fresh template's widest variant
   (ParVecPipe (64, 8)), ui18 at side 16: every word allocated while the
   lanes are made and certified, and every word the lanes keep, per
   lane. Each lane's call shares one list of the kernel's scalars, each
   lane builds its decimal suffix once and its port records in one pass,
   the certificate's name table is sized for the lanes before they are
   certified, and certifying a lane allocates only its names' table
   entries: SOR allocates 160.4 words a lane and keeps 134.3, against
   312.9 and 174.3 before; LavaMD 333.0 and 287.0, against 592.6 and
   331.9. *)
let lane_words_bounds =
  [ ("sor", sor, 163.0, 136.0);
    ("lavamd", (fun () -> Tytra_kernels.Lavamd.program ~boxes:16 ()), 338.0,
     290.0) ]

let test_lane_words () =
  List.iter
    (fun (name, program, allocated_bound, kept_bound) ->
      let tpl = Lower.template (program ()) in
      let per_lane w = w /. 512.0 in
      let allocated =
        per_lane (allocated_words (fun () -> Lower.template_lanes tpl 512))
      in
      let kept =
        per_lane
          (float_of_int
             (Obj.reachable_words
                (Obj.repr (Lower.interned_lanes tpl 512))))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words allocated a lane <= %.1f" name
           allocated allocated_bound)
        true
        (allocated <= allocated_bound);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words kept a lane <= %.1f" name kept
           kept_bound)
        true (kept <= kept_bound))
    lane_words_bounds

(* A design whose [n] ports each name a different function that does
   not exist, as a [.tirl] body sent to [tybec serve] may: validating
   it reports one error per port. *)
let unknown_function_ports n =
  let ty = Ty.UInt 32 in
  {
    Ast.d_name = "ports";
    d_mems =
      [ { Ast.mo_name = "m"; mo_space = Ast.Global; mo_ty = ty; mo_size = 16 } ];
    d_streams =
      [ { Ast.so_name = "s"; so_dir = Ast.IStream; so_mem = "m";
          so_pattern = Ast.Cont } ];
    d_ports =
      List.init n (fun i ->
          { Ast.pt_fun = "u" ^ Int.to_string i; pt_port = "p";
            pt_space = Ast.Global; pt_ty = ty; pt_dir = Ast.IStream;
            pt_pattern = Ast.Cont; pt_base_off = 0; pt_stream = "s" });
    d_globals = [];
    d_funcs =
      [ { Ast.fn_name = "main"; fn_params = []; fn_kind = Ast.Seq;
          fn_body = [] } ];
  }

let validate_words_per_port n =
  let d = unknown_function_ports n in
  allocated_words (fun () -> Validate.check d) /. float_of_int n

(* Validating 4096 ports on 4096 unknown functions allocates 398 words
   a port, nearly all of it the error each port reports. When every
   function's port-duplicate table was sized for all the design's
   ports, it allocated 4477 words a port, and the cost per port grew
   with the port count. *)
let validate_words_per_port_bound = 418.0

let test_validate_words_per_port () =
  let w = validate_words_per_port 4096 in
  check_ratio "Validate.check, ports on distinct unknown functions, words \
               per port"
    ~small:(validate_words_per_port 512) ~large:w;
  Alcotest.(check bool)
    (Printf.sprintf
       "Validate.check on 4096 ports of unknown functions: %.1f words per \
        port <= %.1f"
       w validate_words_per_port_bound)
    true
    (w <= validate_words_per_port_bound)

(* A [cost] request carrying SOR 16^3 ParPipe-8 inline, as a client of
   [tybec serve] sends it: about 5.8 KB, most of it one escaped string.
   The indexed decoder allocates 0.06 words a byte on it: the escaped
   source is built on the major heap, and what is left is the keys and
   the few short values. The peek-per-character decoder it replaced
   allocated 2.15 words a byte (an option per character read). *)
let decode_words_per_byte_bound = 0.5

let test_decode_words_per_byte () =
  let text = Pprint.design_to_string (Lower.lower (sor ()) (Transform.ParPipe 8)) in
  let body =
    Tytra_engine.Protocol.encode_request
      (Tytra_engine.Engine.Cost
         {
           source = Tytra_engine.Engine.Inline text;
           device = Tytra_device.Device.stratixv_gsd8;
           form = Tytra_cost.Throughput.FormB;
           nki = 100;
           optimize = false;
           calib = None;
         })
  in
  let w =
    minor_words (fun () -> Tytra_engine.Protocol.decode_request body)
    /. float_of_int (String.length body)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "Protocol.decode_request on a %d-byte inline cost request: %.2f \
        words per byte <= %.1f"
       (String.length body) w decode_words_per_byte_bound)
    true
    (w <= decode_words_per_byte_bound)

(* Reading a request costs words linear in its bytes. The serving loop
   reads a request's head into a buffer of the 16 KB head cap and its
   body into one buffer of exactly the Content-Length, which becomes the
   request's body: 0.125 words a byte for the body, and about 2,100
   words for the head besides. The words are counted minor and direct major alike,
   since a buffer over 256 words goes straight to the major heap. On a
   7.5 MiB request that is 0.1255 words a byte; the reader before it,
   which copied its growing buffer after every 4 KB read, allocated
   120.7. *)
let read_words_per_byte_bound = 0.15

let test_read_words_per_byte () =
  let body = String.make (15 * 512 * 1024) 'x' in
  let req =
    Printf.sprintf "POST /v1/submit HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let path = Filename.temp_file "tytra-request" ".http" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc req);
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let got = ref (Error 0) in
  let w =
    allocated_words (fun () -> got := Tytra_telemetry.Serve.read_request fd)
    /. float_of_int (String.length req)
  in
  (match !got with
  | Ok rq -> Alcotest.(check bool) "body read whole" true (rq.Tytra_telemetry.Serve.rq_body = body)
  | Error status -> Alcotest.failf "read_request: status %d" status);
  Alcotest.(check bool)
    (Printf.sprintf
       "Serve.read_request on a %d-byte request: %.4f words per byte <= %.2f"
       (String.length req) w read_words_per_byte_bound)
    true
    (w <= read_words_per_byte_bound)

let suite =
  [
    Alcotest.test_case "variant work linear in PEs" `Quick
      test_variant_words_per_pe;
    Alcotest.test_case "derive words per PE bounded" `Quick
      test_derive_words_bound;
    Alcotest.test_case "first derive words per PE bounded" `Quick
      test_first_derive_words_bound;
    Alcotest.test_case "shell derive words per PE bounded" `Quick
      test_shell_derive_words_bound;
    Alcotest.test_case "lane interning words per lane bounded" `Quick
      test_lane_words;
    Alcotest.test_case "validate work linear in ports" `Quick
      test_validate_words_per_port;
    Alcotest.test_case "parse work linear in lines" `Quick
      test_parse_words_per_line;
    Alcotest.test_case "parse words per line bounded" `Quick
      test_parse_words_bound;
    Alcotest.test_case "request decode words per byte bounded" `Quick
      test_decode_words_per_byte;
    Alcotest.test_case "request read words per byte bounded" `Quick
      test_read_words_per_byte;
  ]
