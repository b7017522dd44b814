(* The engine and its wire protocol: codec round-trips, totality on
   malformed bytes (the PR-5 fuzz corpus extended to the request codec),
   CLI byte-compatibility, warm-cache behavior, concurrent mixed-kernel
   clients, and the serve loop (routing, admission control, drain). *)

module Engine = Tytra_engine.Engine
module Protocol = Tytra_engine.Protocol
module Daemon = Tytra_engine.Daemon
module Serve = Tytra_telemetry.Serve

let dev = Tytra_device.Device.stratixv_gsd8

let sor_inline =
  let prog = Tytra_kernels.Sor.program ~im:8 ~jm:8 ~km:8 () in
  let d = Tytra_front.Lower.lower prog Tytra_front.Transform.Pipe in
  Format.asprintf "%a" Tytra_ir.Pprint.pp_design d

let hotspot_inline =
  let prog = Tytra_kernels.Hotspot.program ~rows:8 ~cols:8 () in
  let d = Tytra_front.Lower.lower prog Tytra_front.Transform.Pipe in
  Format.asprintf "%a" Tytra_ir.Pprint.pp_design d

let requests_under_test : (string * Engine.request) list =
  [
    ("check", Engine.Check { source = Engine.Inline sor_inline });
    ( "cost",
      Engine.Cost
        {
          source = Engine.File "x.tirl";
          device = dev;
          form = Tytra_cost.Throughput.FormA;
          nki = 10;
          optimize = true;
          calib = Some "c.json";
        } );
    ( "synth",
      Engine.Synth
        {
          source = Engine.Inline "design";
          device = dev;
          effort = `Fast;
          optimize = false;
        } );
    ( "sim",
      Engine.Sim
        {
          source = Engine.File "y.tirl";
          device = dev;
          form = Tytra_cost.Throughput.FormC;
          nki = 3;
          optimize = false;
        } );
    ( "explore",
      Engine.Explore
        {
          Engine.x_kernel = Engine.Hotspot;
          x_size = 8;
          x_max_lanes = 4;
          x_device = dev;
          x_form = Tytra_cost.Throughput.FormB;
          x_nki = 2;
          x_jobs = 2;
          x_prune = false;
          x_retries = 1;
          x_deadline_s = Some 2.5;
          x_best_effort = true;
          x_checkpoint = Some "/tmp/ck";
          x_checkpoint_every = 8;
          x_resume = None;
          x_place_mode = None;
        } );
  ]

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  List.iter
    (fun (name, req) ->
      let wire = Protocol.encode_request ~deadline_s:1.5 req in
      match Protocol.decode_request wire with
      | Error e ->
          Alcotest.failf "decode(%s) failed: %s" name (Engine.error_message e)
      | Ok d ->
          Alcotest.(check string)
            (name ^ " op survives") (Engine.op_name req)
            (Engine.op_name d.Protocol.dq_request);
          Alcotest.(check (option (float 1e-9)))
            (name ^ " deadline survives") (Some 1.5) d.Protocol.dq_deadline_s;
          (* re-encoding the decoded request reproduces the wire bytes:
             the codec loses nothing *)
          Alcotest.(check string)
            (name ^ " re-encode is stable") wire
            (Protocol.encode_request ~deadline_s:1.5 d.Protocol.dq_request))
    requests_under_test;
  (* place_mode is no longer a protocol member: old clients that still
     send it decode like any request with an unknown member, and the
     encoder never emits it *)
  List.iter
    (fun mode ->
      match
        Protocol.decode_request
          (Printf.sprintf
             {|{"v":1,"op":"explore","kernel":"sor","place_mode":%S}|} mode)
      with
      | Ok { Protocol.dq_request = Engine.Explore _; _ } -> ()
      | Ok _ -> Alcotest.failf "place_mode %s: expected an explore" mode
      | Error e ->
          Alcotest.failf "place_mode %s rejected: %s" mode
            (Engine.error_message e))
    [ "parallel"; "bogus" ];
  match List.assoc "explore" requests_under_test with
  | Engine.Explore x ->
      let wire =
        Protocol.encode_request
          (Engine.Explore { x with x_place_mode = Some () })
      in
      let n = String.length "place_mode" in
      let rec mentions i =
        i + n <= String.length wire
        && (String.sub wire i n = "place_mode" || mentions (i + 1))
      in
      Alcotest.(check bool) "place_mode not encoded" false (mentions 0)
  | _ -> assert false

let test_defaults_fill_in () =
  match
    Protocol.decode_request {|{"v":1,"op":"cost","source":{"inline":"x"}}|}
  with
  | Error e -> Alcotest.failf "decode failed: %s" (Engine.error_message e)
  | Ok d -> (
      Alcotest.(check (option (float 0.))) "no deadline" None
        d.Protocol.dq_deadline_s;
      match d.Protocol.dq_request with
      | Engine.Cost { device; form; nki; optimize; calib; _ } ->
          Alcotest.(check string) "default device"
            dev.Tytra_device.Device.dev_name
            device.Tytra_device.Device.dev_name;
          Alcotest.(check string) "default form" "B"
            (Protocol.form_to_string form);
          Alcotest.(check int) "default nki" 1 nki;
          Alcotest.(check bool) "default optimize" false optimize;
          Alcotest.(check (option string)) "default calib" None calib
      | _ -> Alcotest.fail "expected a cost request")

(* ["retries"] is an unknown member since protocol minor 6: a request
   that carries it decodes equal to the same request without it, for
   every op, with or without a deadline. *)
let test_retries_member_ignored () =
  List.iter
    (fun (name, req) ->
      List.iter
        (fun wire ->
          let with_retries =
            "{\"retries\":2," ^ String.sub wire 1 (String.length wire - 1)
          in
          match
            (Protocol.decode_request wire, Protocol.decode_request with_retries)
          with
          | Ok plain, Ok retried ->
              Alcotest.(check bool)
                (name ^ ": \"retries\" changes nothing")
                true (plain = retried)
          | Error e, _ | _, Error e ->
              Alcotest.failf "decode(%s) failed: %s" name
                (Engine.error_message e))
        [ Protocol.encode_request req;
          Protocol.encode_request ~deadline_ms:1000. req ])
    requests_under_test

let expect_bad_request what body =
  match Protocol.decode_request body with
  | Error (Engine.Bad_request _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Bad_request, got %s" what
        (Engine.error_kind e)
  | Ok _ -> Alcotest.failf "%s: decode accepted malformed input" what
  | exception e ->
      Alcotest.failf "%s: decode raised %s" what (Printexc.to_string e)

let malformed_bodies =
  [
    ("empty", "");
    ("not json", "hunter2");
    ("truncated", "{\"v\":1,");
    ("null", "null");
    ("array", "[1,2,3]");
    ("no version", {|{"op":"check","source":{"path":"x"}}|});
    ("future version", {|{"v":2,"op":"check","source":{"path":"x"}}|});
    (* a version is compared as the number it is, not truncated *)
    ("version 1.5", {|{"v":1.5,"op":"check","source":{"path":"x"}}|});
    ("version 1.999", {|{"v":1.999,"op":"check","source":{"path":"x"}}|});
    ("version 0.5", {|{"v":0.5,"op":"check","source":{"path":"x"}}|});
    ("no op", {|{"v":1}|});
    ("unknown op", {|{"v":1,"op":"transmogrify"}|});
    ("no source", {|{"v":1,"op":"check"}|});
    ("empty source", {|{"v":1,"op":"check","source":{}}|});
    ( "both sources",
      {|{"v":1,"op":"check","source":{"path":"x","inline":"y"}}|} );
    ("bad device", {|{"v":1,"op":"cost","source":{"path":"x"},"device":"pdp11"}|});
    ("bad form", {|{"v":1,"op":"cost","source":{"path":"x"},"form":"Z"}|});
    ("bad nki type", {|{"v":1,"op":"cost","source":{"path":"x"},"nki":"many"}|});
    ("fractional nki", {|{"v":1,"op":"cost","source":{"path":"x"},"nki":1.5}|});
    (* past 2^53 a double no longer holds every integer, and past
       [max_int] [int_of_float] wraps: -5e18 read as +4.2e18 *)
    ("nki -5e18", {|{"v":1,"op":"explore","nki":-5e18}|});
    ("size 1e19", {|{"v":1,"op":"explore","size":1e19}|});
    ("nki 2^53 + 2", {|{"v":1,"op":"cost","source":{"path":"x"},"nki":9007199254740994}|});
    ("bad kernel", {|{"v":1,"op":"explore","kernel":"mandelbrot"}|});
    ("bad effort", {|{"v":1,"op":"synth","source":{"path":"x"},"effort":"heroic"}|});
    ("binary", "\x00\x01\xff\xfe{\"v\":1}");
  ]

let test_malformed_requests () =
  List.iter (fun (what, body) -> expect_bad_request what body) malformed_bodies;
  (* a reply is held to the same version *)
  let reply v =
    Protocol.decode_reply
      (Printf.sprintf {|{"v":%s,"status":"ok","op":"check","text":""}|} v)
  in
  List.iter
    (fun v ->
      match reply v with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "decode_reply refused version %s: %s" v m)
    [ "1"; "1.0" ];
  List.iter
    (fun v ->
      match reply v with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decode_reply accepted version %s" v)
    [ "1.5"; "1.999"; "2" ]

(* PR-5 fuzz posture extended to the request codec: the .tirl fuzz
   corpus (nasty non-JSON bytes) plus deterministic random bytes must
   all come back as typed errors, never exceptions. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_codec_fuzz_corpus () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tirl")
  |> List.iter (fun f ->
         let bytes = read_file (Filename.concat corpus_dir f) in
         match Protocol.decode_request bytes with
         | Ok _ | Error _ -> ()
         | exception e ->
             Alcotest.failf "decode_request raised %s on corpus %s"
               (Printexc.to_string e) f)

let codec_total_qcheck =
  QCheck.Test.make ~count:500 ~name:"decode_request is total on random bytes"
    QCheck.(string_of_size (Gen.int_bound 200))
    (fun s ->
      match Protocol.decode_request s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* The indexed [Jsenc.parse] against the peek-per-character decoder it
   replaced ([Oracle_jsenc]): the same value, or the same error message
   at the same offset. *)
module J = Tytra_telemetry.Jsenc

let rec show_json = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num f -> Printf.sprintf "%h" f
  | J.Str s -> Printf.sprintf "%S" s
  | J.List l -> "[" ^ String.concat "," (List.map show_json l) ^ "]"
  | J.Obj fs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (show_json v)) fs)
      ^ "}"

let show_parse = function Ok v -> "ok " ^ show_json v | Error m -> "error " ^ m

let check_like_oracle what s =
  Alcotest.(check string) what (show_parse (Oracle_jsenc.parse s))
    (show_parse (J.parse s))

let test_json_decoder_oracle () =
  let corpus =
    Sys.readdir corpus_dir |> Array.to_list |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat corpus_dir f)))
  in
  let wire =
    List.map
      (fun (name, req) -> (name, Protocol.encode_request ~deadline_ms:20.0 req))
      (("hotspot", Engine.Check { source = Engine.Inline hotspot_inline })
      :: requests_under_test)
  in
  List.iter (fun (what, s) -> check_like_oracle what s)
    (corpus @ malformed_bodies @ wire);
  (* every truncation of a request whose inline source is all escapes
     and plain runs *)
  let s = List.assoc "check" wire in
  for k = 0 to String.length s - 1 do
    check_like_oracle (Printf.sprintf "check request cut at %d" k)
      (String.sub s 0 k)
  done

(* JSON text with escapes (valid and not), [\u], nesting, stray
   whitespace and bad literals, cut short one time in three. *)
let json_text_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (8, map (String.make 1) (char_range 'a' 'z'));
        ( 2,
          oneofl
            [ {|\n|}; {|\t|}; {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|};
              {|\r|}; {|\u0041|}; {|\u00e9|}; {|\u001F|}; {|\u1_2_|};
              {|\u_123|}; {|\uzz|}; {|\u00_1|}; {|\ud83d\ude00|};
              {|\uD834\uDD1E|}; {|\ud83d|}; {|\ude00|}; {|\x|}; {|\|};
              "\"" ] );
        (1, map (String.make 1) char);
      ]
  in
  let str =
    map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (list_size (int_bound 6) piece)
  in
  let atom =
    frequency
      [
        ( 2,
          oneofl
            [ "0"; "-1"; "3.25"; "1e3"; "-2.5E-2"; "1e"; "--1"; "+4"; ".5";
              "12345678901234567890"; "-"; "" ] );
        (3, str);
        (1, oneofl [ "true"; "false"; "null"; "tru"; "nul"; "fals" ]);
      ]
  in
  let ws = oneofl [ ""; ""; ""; " "; "\n\t "; "\r" ] in
  let spaced g = map3 (fun a v b -> a ^ v ^ b) ws g ws in
  let value =
    sized
    @@ fix (fun self n ->
           if n <= 1 then spaced atom
           else
             frequency
               [
                 (2, spaced atom);
                 ( 1,
                   map
                     (fun l -> "[" ^ String.concat "," l ^ "]")
                     (list_size (int_bound 4) (self (n / 3))) );
                 ( 1,
                   map
                     (fun kvs ->
                       "{"
                       ^ String.concat ","
                           (List.map (fun (k, v) -> k ^ ":" ^ v) kvs)
                       ^ "}")
                     (list_size (int_bound 4) (pair (spaced str) (self (n / 3)))) );
               ])
  in
  value >>= fun s ->
  frequency
    [
      (2, return s);
      (1, map (fun k -> String.sub s 0 k) (int_bound (String.length s)));
    ]

let json_decoder_oracle_qcheck =
  QCheck.Test.make ~count:2000 ~name:"JSON decoder agrees with its oracle"
    (QCheck.make ~print:(Printf.sprintf "%S") json_text_gen)
    (fun s -> show_parse (J.parse s) = show_parse (Oracle_jsenc.parse s))

(* [\u] escapes decode to UTF-8. Python's json.dumps escapes every
   non-ASCII character, so a client's path café.tirl arrives as
   caf\u00e9.tirl. A surrogate pair is one code point; a lone surrogate
   and a non-hex digit make a request a bad_request. *)
let test_json_unicode_escapes () =
  let decodes what s expected =
    Alcotest.(check string) what (show_parse (Ok (J.Str expected)))
      (show_parse (J.parse s))
  in
  decodes "\\u00e9 is é" {|"caf\u00e9.tirl"|} "caf\xc3\xa9.tirl";
  decodes "a surrogate pair is one code point" {|"\ud83d\ude00"|}
    "\xf0\x9f\x98\x80";
  let check_path path =
    Printf.sprintf {|{"v":1,"op":"check","source":{"path":%s}}|} path
  in
  let refused what s =
    (match J.parse s with
    | Ok v -> Alcotest.failf "%s decoded to %s" what (show_json v)
    | Error _ -> ());
    match Protocol.decode_request (check_path s) with
    | Error (Engine.Bad_request _) -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Engine.error_message e)
    | Ok _ -> Alcotest.failf "%s: decoded" what
  in
  refused "a lone high surrogate" {|"\ud83d.tirl"|};
  refused "a lone low surrogate" {|"\ude00"|};
  refused "a high surrogate before a non-surrogate" {|"\ud83d\u0041"|};
  refused "a non-hex digit" {|"\u00_1"|};
  (* a check on café.tirl whose path is escaped as json.dumps escapes it *)
  let json_chars s =
    let q = J.json_string s in
    String.sub q 1 (String.length q - 2)
  in
  let dir = Filename.get_temp_dir_name () in
  let suffix = Printf.sprintf "-%d.tirl" (Unix.getpid ()) in
  let path = Filename.concat dir "caf\xc3\xa9" ^ suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc sor_inline);
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let body =
    check_path
      (Printf.sprintf {|"%s\u00e9%s"|}
         (json_chars (Filename.concat dir "caf"))
         (json_chars suffix))
  in
  match Protocol.decode_request body with
  | Error e -> Alcotest.failf "decode: %s" (Engine.error_message e)
  | Ok dq -> (
      let eng = Engine.create Engine.default_config in
      match Engine.submit eng dq.Protocol.dq_request with
      | Ok r -> (
          match r.Engine.rs_payload with
          | Engine.Checked { ck_funcs; _ } ->
              Alcotest.(check int) "café.tirl checks: @f0 and @main" 2 ck_funcs
          | _ -> Alcotest.fail "check answered with another payload")
      | Error e -> Alcotest.failf "check café.tirl: %s" (Engine.error_message e))

let test_reply_roundtrip () =
  let resp =
    {
      Engine.rs_text = "line one\nline \"two\"\n";
      rs_payload = Engine.Costed { co_ekit = 123.5; co_valid = true };
    }
  in
  (match Protocol.decode_reply (Protocol.encode_response ~op:"cost" resp) with
  | Ok (Protocol.Reply_ok { rp_op; rp_text; _ }) ->
      Alcotest.(check string) "op" "cost" rp_op;
      Alcotest.(check string) "text" resp.Engine.rs_text rp_text
  | Ok _ -> Alcotest.fail "expected an ok reply"
  | Error m -> Alcotest.failf "decode_reply failed: %s" m);
  match
    Protocol.decode_reply
      (Protocol.encode_error (Engine.Validation_error "bad port"))
  with
  | Ok (Protocol.Reply_error { re_kind; re_exit_code; re_message }) ->
      Alcotest.(check string) "kind" "validation" re_kind;
      Alcotest.(check int) "exit code" 3 re_exit_code;
      Alcotest.(check string) "message" "bad port" re_message
  | Ok _ -> Alcotest.fail "expected an error reply"
  | Error m -> Alcotest.failf "decode_reply failed: %s" m

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)
(* ------------------------------------------------------------------ *)

let find_existing candidates = List.find_opt Sys.file_exists candidates

let example_tirl () =
  find_existing
    [ "../../../examples/ir/sor_c2.tirl"; "examples/ir/sor_c2.tirl" ]

let tybec_exe () =
  find_existing [ "../bin/tybec.exe"; "_build/default/bin/tybec.exe" ]

let command_stdout cmd =
  let ic = Unix.open_process_in cmd in
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  Buffer.contents b

(* The byte-compatibility contract: [rs_text] is exactly what the CLI
   prints for the same request (the CLI being a print-through adapter). *)
let test_text_matches_cli () =
  match (tybec_exe (), example_tirl ()) with
  | Some tybec, Some example ->
      let eng = Engine.create Engine.default_config in
      List.iter
        (fun (verb, req) ->
          let cli =
            command_stdout
              (Printf.sprintf "%s %s %s 2>/dev/null" (Filename.quote tybec)
                 verb (Filename.quote example))
          in
          match Engine.submit eng req with
          | Ok resp ->
              Alcotest.(check string)
                (verb ^ " text = CLI stdout") cli resp.Engine.rs_text
          | Error e ->
              Alcotest.failf "%s failed: %s" verb (Engine.error_message e))
        [
          ("check", Engine.Check { source = Engine.File example });
          ( "cost",
            Engine.Cost
              {
                source = Engine.File example;
                device = dev;
                form = Tytra_cost.Throughput.FormB;
                nki = 1;
                optimize = false;
                calib = None;
              } );
          ( "sim",
            Engine.Sim
              {
                source = Engine.File example;
                device = dev;
                form = Tytra_cost.Throughput.FormB;
                nki = 1;
                optimize = false;
              } );
        ]
  | _ -> Alcotest.skip ()

(* The CLI's side of the refusals of numbers that do not fit: an
   explore whose size gives an index space an int cannot count is a bad
   request (exit 2), an import whose loop bounds give one is an invalid
   kernel (exit 3), and an nki past [max_int] is a command-line error.
   Explores at these sizes used to exit 0 with a wrapped design or 1
   with an internal error, and the import wrote the wrapped design. *)
let test_cli_refuses_uncountable () =
  match
    ( tybec_exe (),
      find_existing [ "../../../examples/ir/sor.f90"; "examples/ir/sor.f90" ] )
  with
  | Some tybec, Some f90 ->
      let exit_of args =
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process tybec
            (Array.of_list (tybec :: args))
            Unix.stdin null null
        in
        Unix.close null;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED n -> n
        | _ -> -1
      in
      List.iter
        (fun (code, args) ->
          Alcotest.(check int) (String.concat " " args) code (exit_of args))
        [
          (2, [ "explore"; "--kernel"; "sor"; "--size"; "2700000" ]);
          (2, [ "explore"; "--kernel"; "sor"; "--size"; "2097152" ]);
          (124, [ "explore"; "--nki=-5000000000000000000" ]);
          (3, [ "import"; f90; "--sizes"; "im=2700000,jm=2700000,km=2700000" ]);
          (3, [ "import"; f90; "--sizes"; "im=-3,jm=4,km=4" ]);
        ]
  | _ -> Alcotest.skip ()

(* A [cost] request is costed once: one index, one classification, and
   the form selection and roofline read the report's Table-I inputs at
   the base clock. Its text is byte for byte what the three-call
   composition it replaced printed (test/oracle_cost.ml): 4 kernels at
   1, 2 and 4 lanes x 3 devices x 3 forms x nki {1, 100}. *)
let test_cost_text_matches_oracle () =
  let eng = Engine.create Engine.default_config in
  let programs =
    [ Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ();
      Tytra_kernels.Hotspot.program ~rows:16 ~cols:16 ();
      Tytra_kernels.Lavamd.program ~boxes:16 ();
      Tytra_kernels.Srad.program ~rows:16 ~cols:16 () ]
  in
  let variants =
    Tytra_front.Transform.[ Pipe; ParPipe 2; ParPipe 4 ]
  in
  let compared = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun v ->
          let text =
            Tytra_ir.Pprint.design_to_string (Tytra_front.Lower.lower p v)
          in
          let d = Tytra_ir.Parser.parse text in
          List.iter
            (fun device ->
              List.iter
                (fun form ->
                  List.iter
                    (fun nki ->
                      let want = Oracle_cost.cost_text ~device ~form ~nki d in
                      match
                        Engine.submit eng
                          (Engine.Cost
                             { source = Engine.Inline text; device; form; nki;
                               optimize = false; calib = None })
                      with
                      | Ok r ->
                          incr compared;
                          Alcotest.(check string)
                            (Printf.sprintf "%s on %s, form %s, nki %d"
                               d.Tytra_ir.Ast.d_name
                               device.Tytra_device.Device.dev_name
                               (Tytra_cost.Throughput.form_to_string form)
                               nki)
                            want r.Engine.rs_text
                      | Error e ->
                          Alcotest.failf "cost failed: %s"
                            (Engine.error_message e))
                    [ 1; 100 ])
                Tytra_cost.Throughput.[ FormA; FormB; FormC ])
            Tytra_device.Device.all)
        variants)
    programs;
  Alcotest.(check int) "texts compared" 216 !compared

let cost_of source =
  Engine.Cost
    {
      source;
      device = dev;
      form = Tytra_cost.Throughput.FormB;
      nki = 1;
      optimize = false;
      calib = None;
    }

let cost_inline src = cost_of (Engine.Inline src)

let test_parse_cache_warms () =
  let eng = Engine.create Engine.default_config in
  let first =
    match Engine.submit eng (cost_inline sor_inline) with
    | Ok r -> r.Engine.rs_text
    | Error e -> Alcotest.failf "first submit: %s" (Engine.error_message e)
  in
  let s0 = Engine.parse_cache_stats eng in
  let second =
    match Engine.submit eng (cost_inline sor_inline) with
    | Ok r -> r.Engine.rs_text
    | Error e -> Alcotest.failf "second submit: %s" (Engine.error_message e)
  in
  let s1 = Engine.parse_cache_stats eng in
  Alcotest.(check string) "warm response identical" first second;
  (* an identical repeat is absorbed by the response cache one layer up:
     the parse cache must not even be consulted *)
  Alcotest.(check int) "repeat request bypasses the parse cache"
    s0.Tytra_exec.Cache.st_hits s1.Tytra_exec.Cache.st_hits;
  Alcotest.(check int) "no extra miss" s0.Tytra_exec.Cache.st_misses
    s1.Tytra_exec.Cache.st_misses;
  (* a *different* request over the same source reuses the parsed design *)
  (match
     Engine.submit eng
       (Engine.Sim
          {
            source = Engine.Inline sor_inline;
            device = dev;
            form = Tytra_cost.Throughput.FormB;
            nki = 1;
            optimize = false;
          })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sim submit: %s" (Engine.error_message e));
  let s2 = Engine.parse_cache_stats eng in
  Alcotest.(check int) "new request over the same source hits"
    (s1.Tytra_exec.Cache.st_hits + 1)
    s2.Tytra_exec.Cache.st_hits

(* The bytes this process has read, [rchar] in /proc/self/io *)
let bytes_read () =
  In_channel.with_open_bin "/proc/self/io" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> Alcotest.fail "/proc/self/io has no rchar line"
        | Some l ->
            if String.starts_with ~prefix:"rchar: " l then
              int_of_string (String.sub l 7 (String.length l - 7))
            else find ()
      in
      find ())

(* A cost on a file source reads the file once: its response key, its
   parse-cache key and its answer come from the same bytes, so the bytes
   the process reads grow by one file length, not two. The design is
   padded with 256 KiB of comment lines so the file dominates. *)
let test_file_read_once () =
  if not (Sys.file_exists "/proc/self/io") then Alcotest.skip ();
  let path = Filename.temp_file "tytra-read-once" ".tirl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc sor_inline;
      for _ = 1 to 4096 do
        output_string oc (String.make 63 ';' ^ "\n")
      done);
  let length = (Unix.stat path).Unix.st_size in
  let eng = Engine.create Engine.default_config in
  let before = bytes_read () in
  (match Engine.submit eng (cost_of (Engine.File path)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cost: %s" (Engine.error_message e));
  let read = bytes_read () - before in
  Alcotest.(check bool)
    (Printf.sprintf "read %d bytes for a %d-byte file: once" read length)
    true
    (read >= length && read < length + (length / 2))

let test_response_cache () =
  let eng = Engine.create Engine.default_config in
  let submit req =
    match Engine.submit eng req with
    | Ok r -> r.Engine.rs_text
    | Error e -> Alcotest.failf "submit: %s" (Engine.error_message e)
  in
  let first = submit (cost_inline sor_inline) in
  let s0 = Engine.response_cache_stats eng in
  Alcotest.(check int) "first request misses" 1 s0.Tytra_exec.Cache.st_misses;
  Alcotest.(check int) "nothing hit yet" 0 s0.Tytra_exec.Cache.st_hits;
  let second = submit (cost_inline sor_inline) in
  let s1 = Engine.response_cache_stats eng in
  Alcotest.(check string) "replayed response byte-identical" first second;
  Alcotest.(check int) "repeat request hits" 1 s1.Tytra_exec.Cache.st_hits;
  Alcotest.(check int) "no extra miss" 1 s1.Tytra_exec.Cache.st_misses;
  (* a different request (same source, different nki) must not alias *)
  let other =
    Engine.Cost
      {
        source = Engine.Inline sor_inline;
        device = dev;
        form = Tytra_cost.Throughput.FormB;
        nki = 7;
        optimize = false;
        calib = None;
      }
  in
  ignore (submit other);
  let s2 = Engine.response_cache_stats eng in
  Alcotest.(check int) "changed parameter misses" 2
    s2.Tytra_exec.Cache.st_misses;
  (* errors are never cached: same bad request misses every time *)
  (match Engine.submit eng (cost_inline "not a design") with
  | Error (Engine.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected parse error");
  let s3 = Engine.response_cache_stats eng in
  Alcotest.(check int) "error response not inserted"
    s2.Tytra_exec.Cache.st_size s3.Tytra_exec.Cache.st_size

(* An explore's "jobs" is ignored, so two explores that differ only in
   it are one request: the second is answered from the first's entry. *)
let test_explore_jobs_share_entry () =
  let eng = Engine.create Engine.default_config in
  let explore jobs =
    Engine.Explore
      { Engine.x_kernel = Engine.Sor; x_size = 16; x_max_lanes = 64;
        x_device = dev; x_form = Tytra_cost.Throughput.FormB; x_nki = 100;
        x_jobs = jobs; x_prune = true; x_retries = 0; x_deadline_s = None;
        x_best_effort = false; x_checkpoint = None; x_checkpoint_every = 32;
        x_resume = None; x_place_mode = None }
  in
  let text jobs =
    match Engine.submit eng (explore jobs) with
    | Ok r -> r.Engine.rs_text
    | Error e -> Alcotest.failf "jobs %d: %s" jobs (Engine.error_message e)
  in
  let one = text 1 in
  Alcotest.(check string) "same answer" one (text 4);
  let s = Engine.response_cache_stats eng in
  Alcotest.(check (pair int int)) "1 miss, 1 hit" (1, 1)
    (s.Tytra_exec.Cache.st_misses, s.Tytra_exec.Cache.st_hits)

let test_typed_errors () =
  let eng = Engine.create Engine.default_config in
  (match Engine.submit eng (cost_inline "define void @f () wat { }") with
  | Error (Engine.Parse_error _ as e) ->
      Alcotest.(check int) "parse exit code" 2 (Engine.exit_code e)
  | Error e -> Alcotest.failf "expected parse error, got %s" (Engine.error_kind e)
  | Ok _ -> Alcotest.fail "garbage design was accepted");
  (let invalid =
     "%m = memobj global ui18 size 8\n\
      define void @main (ui18 %p) seq { }\n\
      @main.p = addrspace(1) ui18 !istream !cont !0 !nosuch\n"
   in
   match Engine.submit eng (cost_inline invalid) with
   | Error (Engine.Validation_error _ as e) ->
       Alcotest.(check int) "validation exit code" 3 (Engine.exit_code e)
   | Error e ->
       Alcotest.failf "expected validation error, got %s" (Engine.error_kind e)
   | Ok _ -> Alcotest.fail "invalid design was accepted");
  (* a file that cannot be read is a parse error naming the file *)
  (match
     Engine.submit eng
       (Engine.Check { source = Engine.File "/nonexistent/x.tirl" })
   with
  | Error (Engine.Parse_error m) ->
      Alcotest.(check bool) ("names the file: " ^ m) true
        (String.starts_with ~prefix:"/nonexistent/x.tirl: " m)
  | Error e -> Alcotest.failf "expected io error, got %s" (Engine.error_kind e)
  | Ok _ -> Alcotest.fail "nonexistent file was accepted");
  (* a file that parses but fails validation is a validation error *)
  (let path = Filename.temp_file "tytra_invalid" ".tirl" in
   Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
   Out_channel.with_open_bin path (fun oc ->
       output_string oc
         "define void @f (ui18 %x) pipe { %y = add ui18 %x, %nope }");
   match Engine.submit eng (Engine.Check { source = Engine.File path }) with
   | Error (Engine.Validation_error _ as e) ->
       Alcotest.(check int) "invalid file exit code" 3 (Engine.exit_code e)
   | Error e ->
       Alcotest.failf "expected validation error, got %s" (Engine.error_kind e)
   | Ok _ -> Alcotest.fail "invalid file was accepted");
  (* the retired sweep-resilience fields, and a size or an nki below 1,
     are refused, one at a time *)
  let x =
    {
      Engine.x_kernel = Engine.Sor;
      x_size = 8;
      x_max_lanes = 4;
      x_device = dev;
      x_form = Tytra_cost.Throughput.FormB;
      x_nki = 1;
      x_jobs = 1;
      x_prune = true;
      x_retries = 0;
      x_deadline_s = None;
      x_best_effort = false;
      x_checkpoint = None;
      x_checkpoint_every = 32;
      x_resume = None;
      x_place_mode = None;
    }
  in
  let cost nki =
    Engine.Cost
      { source = Engine.Inline sor_inline; device = dev;
        form = Tytra_cost.Throughput.FormB; nki; optimize = false;
        calib = None }
  in
  let sim nki =
    Engine.Sim
      { source = Engine.Inline sor_inline; device = dev;
        form = Tytra_cost.Throughput.FormB; nki; optimize = false }
  in
  List.iter
    (fun (name, req) ->
      match Engine.submit eng req with
      | Error e ->
          Alcotest.(check string) (name ^ " kind") "bad_request"
            (Engine.error_kind e);
          Alcotest.(check int) (name ^ " exit code") 2 (Engine.exit_code e);
          Alcotest.(check int) (name ^ " HTTP status") 400
            (Protocol.http_status e)
      | Ok _ -> Alcotest.failf "a request with %s was accepted" name)
    [
      ("x_retries", Engine.Explore { x with x_retries = 1 });
      ("x_deadline_s", Engine.Explore { x with x_deadline_s = Some 1.0 });
      ("x_best_effort", Engine.Explore { x with x_best_effort = true });
      ("x_checkpoint",
       Engine.Explore { x with x_checkpoint = Some "/tmp/tytra-ck" });
      ("x_resume", Engine.Explore { x with x_resume = Some "/tmp/tytra-ck" });
      ("x_size", Engine.Explore { x with x_size = 0 });
      (* sides whose cube an int cannot count: 2.7e6^3 wrapped to a
         1.2e18-point space, 2^21 cubed to 0 points *)
      ("x_size 2700000", Engine.Explore { x with x_size = 2_700_000 });
      ("x_size 2097152", Engine.Explore { x with x_size = 2_097_152 });
      ("x_nki 0", Engine.Explore { x with x_nki = 0 });
      ("x_nki -5", Engine.Explore { x with x_nki = -5 });
      ("cost nki 0", cost 0);
      ("cost nki -5", cost (-5));
      ("sim nki 0", sim 0);
      ("sim nki -3", sim (-3));
    ];
  List.iter
    (fun (req, message) ->
      match Engine.submit eng req with
      | Error e ->
          Alcotest.(check string) "the message names the field" message
            (Engine.error_message e)
      | Ok _ -> Alcotest.failf "a request was accepted: %s" message)
    [
      (Engine.Explore { x with x_size = -3 },
       "explore: \"size\" must be at least 1, got -3");
      (Engine.Explore { x with x_size = 2_097_152 },
       Printf.sprintf
         "explore: \"size\" 2097152: index space 2097152x2097152x2097152 \
          has more than %d points"
         max_int);
      (Engine.Explore { x with x_nki = -5 },
       "explore: \"nki\" must be at least 1, got -5");
      (cost 0, "cost: \"nki\" must be at least 1, got 0");
      (sim (-3), "sim: \"nki\" must be at least 1, got -3");
    ]

let test_request_deadline () =
  let eng = Engine.create Engine.default_config in
  match Engine.submit ~deadline_s:0.0 eng (cost_inline sor_inline) with
  | Error (Engine.Timeout_error _ as e) ->
      Alcotest.(check string) "kind" "timeout" (Engine.error_kind e);
      Alcotest.(check int) "exit code" 1 (Engine.exit_code e)
  | Error e ->
      Alcotest.failf "expected timeout, got %s" (Engine.error_kind e)
  | Ok _ -> Alcotest.fail "expired deadline still succeeded"

(* The corpus as inline design sources through the full engine: typed
   errors or success, never an exception. *)
let test_engine_fuzz_inline () =
  let eng = Engine.create Engine.default_config in
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tirl")
  |> List.iter (fun f ->
         let src = read_file (Filename.concat corpus_dir f) in
         match Engine.submit eng (cost_inline src) with
         | Ok _ | Error _ -> ()
         | exception e ->
             Alcotest.failf "submit raised %s on corpus %s"
               (Printexc.to_string e) f)

(* N client domains fire a mixed check/cost/explore workload at one
   warm engine; every response must be byte-identical to the
   single-threaded answer for the same request. *)
let test_concurrent_mixed_clients () =
  let eng = Engine.create Engine.default_config in
  let explore_req =
    Engine.Explore
      {
        Engine.x_kernel = Engine.Sor;
        x_size = 8;
        x_max_lanes = 4;
        x_device = dev;
        x_form = Tytra_cost.Throughput.FormB;
        x_nki = 1;
        x_jobs = 1;
        x_prune = false;
        x_retries = 0;
        x_deadline_s = None;
        x_best_effort = false;
        x_checkpoint = None;
        x_checkpoint_every = 32;
        x_resume = None;
        x_place_mode = None;
      }
  in
  let workload =
    [
      Engine.Check { source = Engine.Inline sor_inline };
      cost_inline sor_inline;
      cost_inline hotspot_inline;
      explore_req;
    ]
  in
  let expected =
    List.map
      (fun req ->
        match Engine.submit eng req with
        | Ok r -> r.Engine.rs_text
        | Error e -> Alcotest.failf "reference: %s" (Engine.error_message e))
      workload
  in
  let client () =
    List.map
      (fun req ->
        match Engine.submit eng req with
        | Ok r -> Ok r.Engine.rs_text
        | Error e -> Error (Engine.error_message e))
      workload
  in
  let domains = List.init 4 (fun _ -> Domain.spawn client) in
  List.iteri
    (fun ci d ->
      let got = Domain.join d in
      List.iteri
        (fun ri r ->
          match r with
          | Ok text ->
              Alcotest.(check string)
                (Printf.sprintf "client %d request %d deterministic" ci ri)
                (List.nth expected ri) text
          | Error m ->
              Alcotest.failf "client %d request %d failed: %s" ci ri m)
        got)
    domains

(* ------------------------------------------------------------------ *)
(* Serve loop                                                          *)
(* ------------------------------------------------------------------ *)

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let sockaddr_of sv =
  let addr = Serve.bound_addr sv in
  match String.rindex_opt addr ':' with
  | Some i ->
      let host = String.sub addr 0 i in
      let port = int_of_string (String.sub addr (i + 1) (String.length addr - i - 1)) in
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  | None -> Alcotest.failf "unparseable bound addr %s" addr

let http_request sockaddr meth path body =
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sockaddr;
      let req =
        Printf.sprintf "%s %s HTTP/1.0\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      read_all fd)

let body_of raw =
  let rec find i =
    if i + 3 >= String.length raw then String.length raw
    else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
            && raw.[i + 3] = '\n'
    then i + 4
    else find (i + 1)
  in
  let s = find 0 in
  String.sub raw s (String.length raw - s)

let status_of raw =
  match String.split_on_char ' ' raw with
  | _ :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "unparseable status line in %S" raw

let with_server ?(workers = 2) ?(queue_cap = 64) ?handler f =
  Tytra_telemetry.Control.set_enabled true;
  let handler =
    match handler with
    | Some h -> h
    | None -> Daemon.handler (Engine.create Engine.default_config)
  in
  let sv = Serve.start ~handler ~workers ~queue_cap ~addr:"127.0.0.1:0" () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop sv;
      Tytra_telemetry.Control.set_enabled false)
    (fun () -> f sv)

let test_serve_submit_roundtrip () =
  with_server @@ fun sv ->
  let sa = sockaddr_of sv in
  let eng = Engine.create Engine.default_config in
  let req = Engine.Check { source = Engine.Inline sor_inline } in
  let direct =
    match Engine.submit eng req with
    | Ok r -> r.Engine.rs_text
    | Error e -> Alcotest.failf "direct submit: %s" (Engine.error_message e)
  in
  let raw =
    http_request sa "POST" "/v1/submit" (Protocol.encode_request req)
  in
  Alcotest.(check int) "200" 200 (status_of raw);
  (match Protocol.decode_reply (body_of raw) with
  | Ok (Protocol.Reply_ok { rp_op; rp_text; _ }) ->
      Alcotest.(check string) "op" "check" rp_op;
      Alcotest.(check string) "served text = direct text" direct rp_text
  | Ok _ -> Alcotest.fail "expected ok reply"
  | Error m -> Alcotest.failf "reply decode: %s" m);
  (* observability rides the same port *)
  let health = http_request sa "GET" "/healthz" "" in
  Alcotest.(check int) "healthz" 200 (status_of health);
  let metrics = http_request sa "GET" "/metrics" "" in
  Alcotest.(check int) "metrics" 200 (status_of metrics)

(* [tybec serve] turns telemetry on for /metrics and, without --trace or
   --metrics, keeps no span: a request leaves nothing behind. Spans used
   to be kept for every request, in a process-wide buffer of up to a
   million events that no route reads. *)
let test_serve_keeps_no_spans () =
  let module Tel = Tytra_telemetry in
  Tel.Export.reset_all ();
  Fun.protect ~finally:(fun () ->
      Tel.Span.set_keep false;
      Tel.Export.reset_all ())
  @@ fun () ->
  with_server @@ fun sv ->
  let sa = sockaddr_of sv in
  (* 25 distinct requests, each sent twice: 25 response-cache misses *)
  let bodies =
    List.init 50 (fun i ->
        Protocol.encode_request
          (Engine.Cost
             {
               source = Engine.Inline sor_inline;
               device = dev;
               form = Tytra_cost.Throughput.FormB;
               nki = 1 + (i mod 25);
               optimize = false;
               calib = None;
             }))
  in
  let send_all () =
    List.iter
      (fun body ->
        Alcotest.(check int) "cost answered" 200
          (status_of (http_request sa "POST" "/v1/submit" body)))
      bodies
  in
  let requests () =
    Option.value ~default:0.0 (Tel.Metrics.counter_value "engine.requests")
  in
  send_all ();
  Alcotest.(check int) "no span kept" 0 (List.length (Tel.Span.events ()));
  Alcotest.(check int) "no span dropped" 0 (Tel.Span.dropped_events ());
  Alcotest.(check bool) "/metrics reports no dropped span" true
    (Test_observability.contains
       ~needle:"\ntytra_telemetry_dropped_spans 0\n"
       (body_of (http_request sa "GET" "/metrics" "")));
  Alcotest.(check (float 0.)) "every request counted" 50.0 (requests ());
  (* --trace keeps them *)
  Tel.Span.set_keep true;
  send_all ();
  let submits =
    List.filter
      (fun (e : Tel.Span.event) -> e.Tel.Span.ev_name = "engine.submit")
      (Tel.Span.events ())
  in
  Alcotest.(check int) "kept engine.submit spans" 50 (List.length submits);
  Alcotest.(check (float 0.)) "every request counted" 100.0 (requests ())

let test_serve_malformed_is_typed () =
  with_server @@ fun sv ->
  let sa = sockaddr_of sv in
  List.iter
    (fun body ->
      let raw = http_request sa "POST" "/v1/submit" body in
      Alcotest.(check int) ("400 for " ^ String.escaped body) 400
        (status_of raw);
      match Protocol.decode_reply (body_of raw) with
      | Ok (Protocol.Reply_error { re_kind; _ }) ->
          Alcotest.(check string) "typed kind" "bad_request" re_kind
      | Ok _ -> Alcotest.fail "expected error reply"
      | Error m -> Alcotest.failf "reply decode: %s" m)
    [ ""; "not json"; "{\"v\":9,\"op\":\"check\"}"; "{\"v\":1}";
      (* a retired explore field is refused, not silently ignored *)
      "{\"v\":1,\"op\":\"explore\",\"kernel\":\"sor\",\"size\":8,\
       \"max_lanes\":4,\"checkpoint\":\"/tmp/tytra-ck\"}";
      (* so is an explore with no grid to sweep *)
      "{\"v\":1,\"op\":\"explore\",\"kernel\":\"sor\",\"size\":0,\
       \"max_lanes\":4}";
      (* and numbers that do not fit: an nki past 2^53, and sizes whose
         cube an int cannot count *)
      "{\"v\":1,\"op\":\"explore\",\"kernel\":\"sor\",\"size\":8,\
       \"max_lanes\":4,\"nki\":-5e18}";
      "{\"v\":1,\"op\":\"explore\",\"kernel\":\"sor\",\"size\":2700000,\
       \"max_lanes\":4}";
      "{\"v\":1,\"op\":\"explore\",\"kernel\":\"sor\",\"size\":2097152,\
       \"max_lanes\":4}" ];
  (* a design that fails validation is a 422 with the library message *)
  let invalid =
    "%m = memobj global ui18 size 8\n\
     define void @main (ui18 %p) seq { }\n\
     @main.p = addrspace(1) ui18 !istream !cont !0 !nosuch\n"
  in
  let raw =
    http_request sa "POST" "/v1/submit"
      (Protocol.encode_request (cost_inline invalid))
  in
  Alcotest.(check int) "422" 422 (status_of raw);
  (match Protocol.decode_reply (body_of raw) with
  | Ok (Protocol.Reply_error { re_kind; re_exit_code; _ }) ->
      Alcotest.(check string) "kind" "validation" re_kind;
      Alcotest.(check int) "exit code" 3 re_exit_code
  | Ok _ -> Alcotest.fail "expected error reply"
  | Error m -> Alcotest.failf "reply decode: %s" m);
  (* a spent budget on a request this fresh server has never answered
     runs into the engine's deadline: a typed 504 timeout *)
  let raw =
    http_request sa "POST" "/v1/submit"
      (Protocol.encode_request ~deadline_ms:0.0 (cost_inline sor_inline))
  in
  Alcotest.(check int) "504" 504 (status_of raw);
  match Protocol.decode_reply (body_of raw) with
  | Ok (Protocol.Reply_error { re_kind; re_exit_code; _ }) ->
      Alcotest.(check string) "kind" "timeout" re_kind;
      Alcotest.(check int) "exit code" 1 re_exit_code
  | Ok _ -> Alcotest.fail "expected error reply"
  | Error m -> Alcotest.failf "reply decode: %s" m

(* Admission control: with one worker parked in a handler and a
   one-slot queue, a burst must shed deterministic 429s. *)
let test_serve_backpressure () =
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let open_ = ref false in
  let arrived = ref 0 in
  let gate_handler (_ : Serve.request) =
    Mutex.lock gate_m;
    incr arrived;
    Condition.broadcast gate_c;
    while not !open_ do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m;
    Some
      { Serve.rs_status = 200; rs_content_type = "text/plain";
        rs_body = "done\n" }
  in
  with_server ~workers:1 ~queue_cap:1 ~handler:gate_handler @@ fun sv ->
  let sa = sockaddr_of sv in
  let client () = http_request sa "GET" "/x" "" in
  (* first request occupies the worker *)
  let c1 = Domain.spawn client in
  Mutex.lock gate_m;
  while !arrived < 1 do
    Condition.wait gate_c gate_m
  done;
  Mutex.unlock gate_m;
  (* burst: with the worker busy and queue_cap 1, at least one of these
     must be answered 429 without ever reaching the handler *)
  let burst = List.init 4 (fun _ -> Domain.spawn client) in
  let rec wait_rejected tries =
    if Serve.requests_rejected sv >= 1 then ()
    else if tries = 0 then Alcotest.fail "no request was shed"
    else begin
      Unix.sleepf 0.02;
      wait_rejected (tries - 1)
    end
  in
  wait_rejected 250;
  Mutex.lock gate_m;
  open_ := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  let replies = List.map Domain.join (c1 :: burst) in
  let ok = List.length (List.filter (fun r -> status_of r = 200) replies) in
  let shed = List.length (List.filter (fun r -> status_of r = 429) replies) in
  Alcotest.(check int) "every client got an answer" 5 (ok + shed);
  Alcotest.(check bool) "some requests served" true (ok >= 2);
  Alcotest.(check bool) "some requests shed" true (shed >= 1)

(* Graceful drain: stop() while requests are parked inside handlers
   must answer all of them before returning. *)
let test_serve_drain_answers_inflight () =
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let open_ = ref false in
  let arrived = ref 0 in
  let gate_handler (_ : Serve.request) =
    Mutex.lock gate_m;
    incr arrived;
    Condition.broadcast gate_c;
    while not !open_ do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m;
    Some
      { Serve.rs_status = 200; rs_content_type = "text/plain";
        rs_body = "drained\n" }
  in
  Tytra_telemetry.Control.set_enabled true;
  let sv =
    Serve.start ~handler:gate_handler ~workers:3 ~queue_cap:8
      ~addr:"127.0.0.1:0" ()
  in
  let sa = sockaddr_of sv in
  let clients =
    List.init 3 (fun _ -> Domain.spawn (fun () -> http_request sa "GET" "/x" ""))
  in
  (* all three requests are inside handlers now *)
  Mutex.lock gate_m;
  while !arrived < 3 do
    Condition.wait gate_c gate_m
  done;
  Mutex.unlock gate_m;
  let stopper = Domain.spawn (fun () -> Serve.stop sv) in
  (* the drain must be blocked on the in-flight requests; release them *)
  Unix.sleepf 0.05;
  Mutex.lock gate_m;
  open_ := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Domain.join stopper;
  List.iter
    (fun c ->
      let raw = Domain.join c in
      Alcotest.(check int) "drained request answered 200" 200 (status_of raw);
      Alcotest.(check bool) "body delivered" true
        (body_of raw = "drained\n"))
    clients;
  Alcotest.(check int) "all three served" 3 (Serve.requests_served sv);
  Tytra_telemetry.Control.set_enabled false

(* The serving loop reads a body in time linear in its size: one buffer
   of the Content-Length, filled as the bytes arrive. A reader that
   copied its whole buffer after every 4 KB read took 4.7 s over a
   7.5 MiB body (1.2 s at 2 MiB). The body is a [check] of a design
   behind a 7.5 MiB comment, which fails validation: a typed 422. *)
let test_serve_large_body_is_linear () =
  with_server @@ fun sv ->
  let sa = sockaddr_of sv in
  let source =
    "; " ^ String.make (15 * 512 * 1024) 'x' ^ "\n"
    ^ "%m = memobj global ui18 size 8\n\
       define void @main (ui18 %p) seq { }\n\
       @main.p = addrspace(1) ui18 !istream !cont !0 !nosuch\n"
  in
  let body =
    Protocol.encode_request (Engine.Check { source = Engine.Inline source })
  in
  Alcotest.(check bool) "body under the cap" true
    (String.length body <= Serve.max_body_bytes);
  let t0 = Unix.gettimeofday () in
  let raw = http_request sa "POST" "/v1/submit" body in
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "422" 422 (status_of raw);
  (match Protocol.decode_reply (body_of raw) with
  | Ok (Protocol.Reply_error { re_kind; _ }) ->
      Alcotest.(check string) "kind" "validation" re_kind
  | Ok _ -> Alcotest.fail "expected error reply"
  | Error m -> Alcotest.failf "reply decode: %s" m);
  Alcotest.(check bool)
    (Printf.sprintf "a %d-byte body answered in %.2f s, under 1 s"
       (String.length body) took)
    true (took < 1.0)

(* A slow client holds a slot in the loop's select set, not a worker:
   with one worker, a client dribbling its head a byte every 20 ms (1.7
   s in all) does not hold up a request sent after it. A worker that
   read its own connection sat in the slow one's read until its head
   was complete. *)
let test_serve_slow_client_holds_no_worker () =
  with_server ~workers:1 @@ fun sv ->
  let sa = sockaddr_of sv in
  let head = "GET /healthz HTTP/1.0\r\nX-Pad: " ^ String.make 60 'a' ^ "\r\n\r\n" in
  let slow =
    Domain.spawn (fun () ->
        let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd sa;
            String.iter
              (fun c ->
                ignore (Unix.write_substring fd (String.make 1 c) 0 1);
                Unix.sleepf 0.02)
              head;
            read_all fd))
  in
  (* the slow client is accepted first *)
  Unix.sleepf 0.1;
  let t0 = Unix.gettimeofday () in
  let raw =
    http_request sa "POST" "/v1/submit"
      (Protocol.encode_request (Engine.Check { source = Engine.Inline sor_inline }))
  in
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "normal request answered" 200 (status_of raw);
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.2f s beside a slow client, under 1 s" took)
    true (took < 1.0);
  let slow_raw = Domain.join slow in
  Alcotest.(check int) "slow client answered too" 200 (status_of slow_raw);
  Alcotest.(check string) "slow client's body" "ok\n" (body_of slow_raw)

(* ------------------------------------------------------------------ *)
(* One reply per explore                                               *)
(* ------------------------------------------------------------------ *)

(* ["stream":true] is an unknown member since protocol minor 5: an
   explore that carries it gets the status and the bytes of the same
   request without it, and shares its response-cache entry. It used to
   be answered 200 with progress frames whatever the outcome, without
   touching the cache. *)
let test_serve_stream_member_ignored () =
  let eng = Engine.create Engine.default_config in
  with_server ~handler:(Daemon.handler eng) @@ fun sv ->
  let sa = sockaddr_of sv in
  let post body = http_request sa "POST" "/v1/submit" body in
  let streamed body =
    "{\"stream\":true," ^ String.sub body 1 (String.length body - 1)
  in
  let x =
    {
      Engine.x_kernel = Engine.Sor;
      x_size = 8;
      x_max_lanes = 4;
      x_device = dev;
      x_form = Tytra_cost.Throughput.FormB;
      x_nki = 1;
      x_jobs = 1;
      x_prune = false;
      x_retries = 0;
      x_deadline_s = None;
      x_best_effort = false;
      x_checkpoint = None;
      x_checkpoint_every = 32;
      x_resume = None;
      x_place_mode = None;
    }
  in
  let good = Protocol.encode_request (Engine.Explore x) in
  let first = post (streamed good) in
  let again = post (streamed good) in
  let st = Engine.response_cache_stats eng in
  Alcotest.(check (pair int int)) "a repeated streamed explore: 1 miss, then 1 hit"
    (1, 1) (st.Tytra_exec.Cache.st_misses, st.Tytra_exec.Cache.st_hits);
  Alcotest.(check string) "the hit replays the miss" first again;
  List.iter
    (fun (what, status, body) ->
      let plain = post body and streamed = post (streamed body) in
      Alcotest.(check int) (what ^ " status") status (status_of plain);
      Alcotest.(check string)
        (what ^ ": the same status line, headers and body with \"stream\"")
        plain streamed;
      Alcotest.(check bool) (what ^ ": no frame member") false
        (Test_observability.contains ~needle:"\"frame\"" streamed))
    [
      ("a good explore", 200, good);
      ("nki 0", 400, Protocol.encode_request (Engine.Explore { x with x_nki = 0 }));
      (* a size this server has not answered, so no cache hit beats the
         spent budget *)
      ( "deadline_ms 0",
        504,
        Protocol.encode_request ~deadline_ms:0.0
          (Engine.Explore { x with x_size = 10 }) );
    ]

(* Every status the protocol answers with goes out with its reason
   phrase (RFC 9110 §15); 422 and 504 used to read "Status". *)
let test_serve_reason_phrases () =
  with_server @@ fun sv ->
  let sa = sockaddr_of sv in
  let status_line raw =
    match String.index_opt raw '\r' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let invalid =
    "%m = memobj global ui18 size 8\n\
     define void @main (ui18 %p) seq { }\n\
     @main.p = addrspace(1) ui18 !istream !cont !0 !nosuch\n"
  in
  List.iter
    (fun (line, body) ->
      Alcotest.(check string) line line
        (status_line (http_request sa "POST" "/v1/submit" body)))
    [
      ("HTTP/1.0 422 Unprocessable Content",
       Protocol.encode_request (cost_inline invalid));
      ("HTTP/1.0 504 Gateway Timeout",
       Protocol.encode_request ~deadline_ms:0.0 (cost_inline sor_inline));
      ("HTTP/1.0 400 Bad Request", "{\"v\":1}");
    ]

(* ------------------------------------------------------------------ *)
(* Response cache under concurrency                                    *)
(* ------------------------------------------------------------------ *)

(* Deterministic LRU phase with capacity 2, then a 4-domain storm: the
   stats must stay exact — every cacheable submit is exactly one hit or
   one miss, never both, never neither. *)
let test_response_cache_concurrent () =
  let eng =
    Engine.create { Engine.default_config with response_cache_capacity = 2 }
  in
  let a = Engine.Check { source = Engine.Inline sor_inline } in
  let b = Engine.Check { source = Engine.Inline hotspot_inline } in
  let c = Engine.Check { source = Engine.Inline (sor_inline ^ "\n") } in
  let submit req =
    match Engine.submit eng req with
    | Ok r -> r.Engine.rs_text
    | Error e -> Alcotest.failf "submit: %s" (Engine.error_message e)
  in
  (* a,b fill the cache; c evicts a; b touches b; a evicts c *)
  let ta = submit a in
  let tb = submit b in
  ignore (submit c);
  ignore (submit b);
  ignore (submit a);
  let s = Engine.response_cache_stats eng in
  Alcotest.(check int) "hits after LRU phase" 1 s.Tytra_exec.Cache.st_hits;
  Alcotest.(check int) "misses after LRU phase" 4 s.Tytra_exec.Cache.st_misses;
  Alcotest.(check int) "evictions after LRU phase" 2
    s.Tytra_exec.Cache.st_evictions;
  Alcotest.(check int) "size capped" 2 s.Tytra_exec.Cache.st_size;
  (* storm: 4 domains × 8 submits over {a,b}; the cache may interleave
     arbitrarily but the accounting must balance exactly *)
  let storm () =
    List.init 8 (fun i ->
        let req, expect = if i mod 2 = 0 then (a, ta) else (b, tb) in
        (submit req, expect))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn storm) in
  List.iter
    (fun d ->
      List.iter
        (fun (got, expect) ->
          Alcotest.(check string) "storm answer byte-identical" expect got)
        (Domain.join d))
    domains;
  let s' = Engine.response_cache_stats eng in
  Alcotest.(check int) "every storm submit counted exactly once" 32
    (s'.Tytra_exec.Cache.st_hits + s'.Tytra_exec.Cache.st_misses
    - s.Tytra_exec.Cache.st_hits - s.Tytra_exec.Cache.st_misses);
  Alcotest.(check bool) "size still capped" true
    (s'.Tytra_exec.Cache.st_size <= 2)

(* ------------------------------------------------------------------ *)
(* Deadline propagation (protocol minor 2)                             *)
(* ------------------------------------------------------------------ *)

let test_deadline_ms_codec () =
  (* deadline_ms decodes to a unified budget in seconds *)
  (match
     Protocol.decode_request
       {|{"v":1,"op":"check","source":{"inline":"x"},"deadline_ms":1500}|}
   with
  | Ok d ->
      Alcotest.(check (option (float 1e-9)))
        "deadline_ms 1500 = 1.5s" (Some 1.5) d.Protocol.dq_deadline_s
  | Error e -> Alcotest.failf "decode failed: %s" (Engine.error_message e));
  (* deadline_ms wins over the legacy deadline_s when both are present *)
  (match
     Protocol.decode_request
       {|{"v":1,"op":"check","source":{"inline":"x"},"deadline_s":9,"deadline_ms":250}|}
   with
  | Ok d ->
      Alcotest.(check (option (float 1e-9)))
        "deadline_ms beats deadline_s" (Some 0.25) d.Protocol.dq_deadline_s
  | Error e -> Alcotest.failf "decode failed: %s" (Engine.error_message e));
  (* the encoder round-trips the new field *)
  let req = Engine.Check { source = Engine.Inline "x" } in
  (match Protocol.decode_request (Protocol.encode_request ~deadline_ms:320.0 req) with
  | Ok d ->
      Alcotest.(check (option (float 1e-9)))
        "encode ~deadline_ms round-trips" (Some 0.32) d.Protocol.dq_deadline_s
  | Error e -> Alcotest.failf "decode failed: %s" (Engine.error_message e));
  (* malformed budgets are typed errors, not crashes or silent drops *)
  expect_bad_request "string deadline_ms"
    {|{"v":1,"op":"check","source":{"inline":"x"},"deadline_ms":"soon"}|};
  (* minor-version backward compatibility: a frame with no deadline
     fields at all (an old minor-0 client) still decodes *)
  match
    Protocol.decode_request {|{"v":1,"op":"check","source":{"inline":"x"}}|}
  with
  | Ok d ->
      Alcotest.(check (option (float 0.)))
        "old client: no budget" None d.Protocol.dq_deadline_s;
      Alcotest.(check bool) "minor version advertises deadlines" true
        (Protocol.version_minor >= 2)
  | Error e -> Alcotest.failf "decode failed: %s" (Engine.error_message e)

(* Fuzz posture for the new fields: any combination of budget fields
   (valid numbers, junk, absent) must decode totally, and when both
   valid budgets are present the unified rule (ms preferred) holds. *)
let deadline_fuzz_qcheck =
  QCheck.Test.make ~count:300 ~name:"deadline fields decode totally"
    QCheck.(pair (option (float_bound_exclusive 1e6)) (option (float_bound_exclusive 1e6)))
    (fun (s, ms) ->
      (* the body carries each budget at 6 decimals, so the decoded
         budget is compared with the value actually sent *)
      let sent =
        Option.map (fun v -> float_of_string (Printf.sprintf "%.6f" v))
      in
      let s = sent s and ms = sent ms in
      let field name = function
        | None -> ""
        | Some v -> Printf.sprintf {|,"%s":%.6f|} name v
      in
      let body =
        Printf.sprintf
          {|{"v":1,"op":"check","source":{"inline":"x"}%s%s}|}
          (field "deadline_s" s) (field "deadline_ms" ms)
      in
      match Protocol.decode_request body with
      | Error _ -> false
      | Ok d -> (
          let expect =
            match (ms, s) with
            | Some m, _ -> Some (m /. 1000.0)
            | None, other -> other
          in
          match (d.Protocol.dq_deadline_s, expect) with
          | None, None -> true
          | Some a, Some b -> Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 b
          | _ -> false))

let test_timeout_oversize_kinds () =
  let cases =
    [
      (Engine.Timeout_error 0.25, "timeout", 1, 504);
      (Engine.Request_too_large 8_388_608, "request_too_large", 2, 413);
    ]
  in
  List.iter
    (fun (err, kind, exit_code, status) ->
      Alcotest.(check string) "kind" kind (Engine.error_kind err);
      Alcotest.(check int) "exit code" exit_code (Engine.exit_code err);
      Alcotest.(check int) "http status" status (Protocol.http_status err);
      match Protocol.decode_reply (Protocol.encode_error err) with
      | Ok (Protocol.Reply_error { re_kind; re_exit_code; _ }) ->
          Alcotest.(check string) "wire kind" kind re_kind;
          Alcotest.(check int) "wire exit code" exit_code re_exit_code
      | Ok _ -> Alcotest.fail "expected an error reply"
      | Error m -> Alcotest.failf "decode_reply failed: %s" m)
    cases

(* ------------------------------------------------------------------ *)
(* Crash-safe warm state: the response-cache journal                   *)
(* ------------------------------------------------------------------ *)

module Journal = Tytra_engine.Journal

let temp_journal () =
  Filename.temp_file "tytra-journal" ".jsonl"

let test_journal_roundtrip () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      (* payloads are opaque bytes: binary, newlines, quotes must all
         survive the hex framing *)
      let entries =
        [ ("k1", "plain"); ("k2", "line\nbreak \"quoted\""); ("k3", "\x00\xff\x01") ]
      in
      (match Journal.open_append path with
      | None -> Alcotest.fail "open_append refused a writable path"
      | Some j ->
          List.iter (fun (key, payload) -> Journal.append j ~key ~payload) entries;
          Alcotest.(check int) "appended counted" 3 (Journal.appended j);
          Alcotest.(check int) "no write errors" 0 (Journal.write_errors j);
          Journal.close j);
      let loaded, skipped = Journal.load path in
      Alcotest.(check int) "no skips" 0 skipped;
      Alcotest.(check (list (pair string string))) "entries survive" entries
        loaded;
      (* reopening appends after the existing entries *)
      (match Journal.open_append path with
      | None -> Alcotest.fail "reopen failed"
      | Some j ->
          Journal.append j ~key:"k4" ~payload:"late";
          Journal.close j);
      let loaded2, skipped2 = Journal.load path in
      Alcotest.(check int) "still no skips" 0 skipped2;
      Alcotest.(check int) "append extended" 4 (List.length loaded2))

let test_journal_tolerates_corruption () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      (match Journal.open_append path with
      | None -> Alcotest.fail "open_append refused a writable path"
      | Some j ->
          Journal.append j ~key:"good" ~payload:"payload";
          Journal.close j);
      (* a torn tail from a crash mid-write, then a digest mismatch *)
      let oc = open_out_gen [ Open_append ] 0o600 path in
      output_string oc "{\"v\":1,\"key\":\"torn";
      close_out oc;
      let loaded, skipped = Journal.load path in
      Alcotest.(check int) "torn tail skipped" 1 skipped;
      Alcotest.(check (list (pair string string))) "good entry survives"
        [ ("good", "payload") ] loaded;
      (* a file that is not a journal at all: nothing loads, everything
         is accounted as skipped, nothing raises *)
      let foreign = temp_journal () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove foreign with Sys_error _ -> ())
        (fun () ->
          let oc = open_out foreign in
          output_string oc "not a journal\nat all\n";
          close_out oc;
          let loaded, skipped = Journal.load foreign in
          Alcotest.(check int) "foreign file loads nothing" 0
            (List.length loaded);
          Alcotest.(check bool) "foreign lines accounted" true (skipped >= 1));
      (* a missing file is an empty journal, not an error *)
      let missing, missing_skipped = Journal.load "/nonexistent/journal" in
      Alcotest.(check int) "missing file: empty" 0 (List.length missing);
      Alcotest.(check int) "missing file: no skips" 0 missing_skipped)

(* The end-to-end warm-state contract: engine 2, created over engine
   1's journal, serves engine 1's request as a cache HIT with byte-
   identical text — the E10 warm path survives a process death. *)
let test_journal_replays_into_fresh_engine () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let config = { Engine.default_config with cache_journal = Some path } in
      let req = cost_inline hotspot_inline in
      let first =
        let eng1 = Engine.create config in
        match Engine.submit eng1 req with
        | Ok r -> r.Engine.rs_text
        | Error e -> Alcotest.failf "first submit: %s" (Engine.error_message e)
      in
      let eng2 = Engine.create config in
      let stats0 = Engine.response_cache_stats eng2 in
      Alcotest.(check bool) "journal pre-warmed the fresh cache" true
        (stats0.Tytra_exec.Cache.st_size >= 1);
      (match Engine.submit eng2 req with
      | Ok r ->
          Alcotest.(check string) "warm answer byte-identical" first
            r.Engine.rs_text
      | Error e -> Alcotest.failf "warm submit: %s" (Engine.error_message e));
      let stats1 = Engine.response_cache_stats eng2 in
      Alcotest.(check int) "served as a hit" 1
        (stats1.Tytra_exec.Cache.st_hits - stats0.Tytra_exec.Cache.st_hits);
      Alcotest.(check int) "not re-evaluated" 0
        (stats1.Tytra_exec.Cache.st_misses - stats0.Tytra_exec.Cache.st_misses))

(* Typed wire errors: statuses the server chooses before the protocol
   layer ever runs must still answer protocol JSON. *)
let test_wire_error_responder () =
  List.iter
    (fun (status, kind) ->
      match Daemon.wire_error status with
      | None -> Alcotest.failf "no wire response for %d" status
      | Some r -> (
          Alcotest.(check int) "status preserved" status r.Serve.rs_status;
          match Protocol.decode_reply r.Serve.rs_body with
          | Ok (Protocol.Reply_error { re_kind; _ }) ->
              Alcotest.(check string)
                (Printf.sprintf "kind for %d" status)
                kind re_kind
          | Ok _ -> Alcotest.fail "expected an error reply"
          | Error m -> Alcotest.failf "untyped body for %d: %s" status m))
    [
      (400, "bad_request");
      (408, "bad_request");
      (413, "request_too_large");
      (429, "overloaded");
    ];
  Alcotest.(check bool) "unknown statuses fall through" true
    (Daemon.wire_error 500 = None)

let suite =
  [
    Alcotest.test_case "request codec round-trips" `Quick
      test_request_roundtrip;
    Alcotest.test_case "decode fills CLI defaults" `Quick
      test_defaults_fill_in;
    Alcotest.test_case "malformed requests are typed errors" `Quick
      test_malformed_requests;
    Alcotest.test_case "request codec total on fuzz corpus" `Quick
      test_codec_fuzz_corpus;
    QCheck_alcotest.to_alcotest codec_total_qcheck;
    Alcotest.test_case "JSON decoder = oracle on the fuzz corpus" `Quick
      test_json_decoder_oracle;
    QCheck_alcotest.to_alcotest json_decoder_oracle_qcheck;
    Alcotest.test_case "reply codec round-trips" `Quick test_reply_roundtrip;
    Alcotest.test_case "engine text = CLI stdout" `Slow test_text_matches_cli;
    Alcotest.test_case "CLI refuses index spaces past max_int" `Quick
      test_cli_refuses_uncountable;
    Alcotest.test_case "cost text = three-call oracle" `Quick
      test_cost_text_matches_oracle;
    Alcotest.test_case "parse cache warms repeat requests" `Quick
      test_parse_cache_warms;
    Alcotest.test_case "response cache replays full requests" `Quick
      test_response_cache;
    Alcotest.test_case "explores differing only in jobs share an entry"
      `Quick test_explore_jobs_share_entry;
    Alcotest.test_case "a request reads its file once" `Quick
      test_file_read_once;
    Alcotest.test_case "JSON \\u escapes decode to UTF-8" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "typed errors carry CLI exit codes" `Quick
      test_typed_errors;
    Alcotest.test_case "request deadline is enforced" `Quick
      test_request_deadline;
    Alcotest.test_case "engine total on corpus as inline sources" `Quick
      test_engine_fuzz_inline;
    Alcotest.test_case "concurrent mixed clients are deterministic" `Slow
      test_concurrent_mixed_clients;
    Alcotest.test_case "serve: submit round-trip + observability" `Quick
      test_serve_submit_roundtrip;
    Alcotest.test_case "serve: a request keeps no span" `Quick
      test_serve_keeps_no_spans;
    Alcotest.test_case "serve: malformed bodies are typed 400s" `Quick
      test_serve_malformed_is_typed;
    Alcotest.test_case "serve: full queue sheds 429" `Quick
      test_serve_backpressure;
    Alcotest.test_case "serve: drain answers in-flight requests" `Quick
      test_serve_drain_answers_inflight;
    Alcotest.test_case "serve: a 7.5 MiB body is read in linear time" `Quick
      test_serve_large_body_is_linear;
    Alcotest.test_case "serve: a slow client holds no worker" `Quick
      test_serve_slow_client_holds_no_worker;
    Alcotest.test_case "serve: \"stream\" changes no reply" `Quick
      test_serve_stream_member_ignored;
    Alcotest.test_case "serve: 422 and 504 carry reason phrases" `Quick
      test_serve_reason_phrases;
    Alcotest.test_case "response cache: exact stats under a 4-domain storm"
      `Slow test_response_cache_concurrent;
    Alcotest.test_case "deadline_ms codec: precedence + back-compat" `Quick
      test_deadline_ms_codec;
    QCheck_alcotest.to_alcotest deadline_fuzz_qcheck;
    Alcotest.test_case "timeout/request_too_large are typed" `Quick
      test_timeout_oversize_kinds;
    Alcotest.test_case "journal: append/load round-trip" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal: torn tails and foreign files tolerated" `Quick
      test_journal_tolerates_corruption;
    Alcotest.test_case "journal: warm state survives engine restart" `Quick
      test_journal_replays_into_fresh_engine;
    Alcotest.test_case "serve: wire statuses answer typed protocol JSON" `Quick
      test_wire_error_responder;
    Alcotest.test_case "\"retries\" decodes as an unknown member" `Quick
      test_retries_member_ignored;
  ]
