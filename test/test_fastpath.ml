(* Differential tests of the production paths (DESIGN.md §10) against
   the slower twins they replaced, which live in this directory as
   oracles:

   - Lower.lower and derived variants (Lower.template / Lower.derive)
     pretty-print byte-identically to the Builder-based Oracle_lower,
     and validate clean; so do variants built from a PE count's shell,
     in any derivation order; every replicated derive is checked by
     position, and a broken wiring delta, or a lane the template's
     certificate does not cover, falls back to the full check;
   - the indexed one-pass validator agrees with the multi-pass
     Oracle_validate on valid and broken designs, reports errors in
     source order, and deduplicates identical (loc, msg) pairs;
   - the delta-wirelength annealer reproduces Oracle_place exactly;
   - DSE selections (best / pareto) equal those of lowering and costing
     every variant from scratch. *)

open Tytra_ir
open Tytra_front

let contains s substr =
  let n = String.length substr in
  let rec find i =
    i + n <= String.length s && (String.sub s i n = substr || find (i + 1))
  in
  find 0

let kernels () =
  [
    ("sor", Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 ());
    ("hotspot", Tytra_kernels.Hotspot.program ~rows:16 ~cols:16 ());
    ("lavamd", Tytra_kernels.Lavamd.program ~boxes:16 ());
    ("srad", Tytra_kernels.Srad.program ~rows:16 ~cols:16 ());
  ]

let variants p = Transform.enumerate ~max_lanes:8 ~max_vec:4 p

(* the widest space a DSE sweep builds: up to 512 PEs *)
let wide_variants p = Transform.enumerate ~max_lanes:64 ~max_vec:8 p

(* ---- lowering and derived-variant equivalence ---- *)

(* the kernels at each element type the DSE benchmark sweeps *)
let typed_kernels () =
  List.concat_map
    (fun ty ->
      List.map
        (fun (name, p) -> (name ^ " " ^ Ty.to_string ty, p))
        [
          ("sor", Tytra_kernels.Sor.program ~ty ~im:16 ~jm:16 ~km:16 ());
          ("hotspot", Tytra_kernels.Hotspot.program ~ty ~rows:16 ~cols:16 ());
          ("lavamd", Tytra_kernels.Lavamd.program ~ty ~boxes:16 ());
          ("srad", Tytra_kernels.Srad.program ~ty ~rows:16 ~cols:16 ());
        ])
    [ Ty.UInt 18; Ty.UInt 32; Ty.Float 32 ]

(* a seeded Fisher-Yates shuffle *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Derivation runs in a shuffled order, so a template's lanes grow out
   of order. *)
let test_derive_prints_identically () =
  List.iteri
    (fun seed (name, p) ->
      let tpl = Lower.template p in
      List.iter
        (fun v ->
          let oracle =
            Pprint.design_to_string (Oracle_lower.build_variant p v)
          in
          let check what d =
            Alcotest.(check string)
              (Printf.sprintf "%s %s %s == oracle" name (Transform.to_string v)
                 what)
              oracle (Pprint.design_to_string d)
          in
          check "lowered" (Lower.lower p v);
          check "derived" (Lower.derive tpl v))
        (shuffle seed (wide_variants p)))
    (typed_kernels ())

let test_derive_validates_clean () =
  List.iter
    (fun (name, p) ->
      let tpl = Lower.template p in
      List.iter
        (fun v ->
          let d = Lower.derive tpl v in
          Alcotest.(check int)
            (Printf.sprintf "%s %s derived validates clean" name
               (Transform.to_string v))
            0
            (List.length (Validate.check d)))
        (variants p))
    (kernels ())

let test_derive_rejects_bad_delta () =
  (* a broken wiring delta must still be caught even though the PE body
     is trusted: point one port at a missing stream *)
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let tpl = Lower.template p in
  let d = Lower.derive tpl (Transform.ParPipe 2) in
  let broken =
    {
      d with
      Ast.d_ports =
        (match d.Ast.d_ports with
        | p0 :: rest -> { p0 with Ast.pt_stream = "nosuch" } :: rest
        | [] -> []);
    }
  in
  Alcotest.(check bool)
    "delta validation catches broken wiring" true
    (List.exists
       (fun e -> contains (Validate.error_to_string e) "unknown stream")
       (Validate.check_delta ~trusted:[ "f0" ] broken))

(* ---- shells: equal-PE variants share one validated Manage-IR ---- *)

(* 24 programs of Gen.arb_program_variant's generator, from a fixed
   seed: random kernels at random integer types, 8 to 64 points *)
let generated_programs () =
  List.mapi
    (fun i (p, _) -> (Printf.sprintf "generated %d" i, p))
    (QCheck.Gen.generate ~rand:(Random.State.make [| 23 |]) ~n:24
       (QCheck.gen Gen.arb_program_variant))

(* Every variant of the four kernels up to 64 lanes x 8, and of the
   generated programs, derived on a fresh template in enumeration order,
   in reverse and shuffled, so the shell of each PE count comes from a
   different variant in each order. Every design must print as
   Lower.lower's does and validate in full. *)
let test_shell_derive_exact () =
  List.iteri
    (fun seed (name, p) ->
      let vs = wide_variants p in
      let lowered =
        List.map (fun v -> (v, Pprint.design_to_string (Lower.lower p v))) vs
      in
      List.iter
        (fun (order, vs) ->
          let tpl = Lower.template p in
          List.iter
            (fun v ->
              let d = Lower.derive tpl v in
              let what =
                Printf.sprintf "%s %s (%s order)" name (Transform.to_string v)
                  order
              in
              Alcotest.(check string)
                (what ^ " == lowered")
                (List.assoc v lowered) (Pprint.design_to_string d);
              Alcotest.(check (list string))
                (what ^ " validates in full")
                []
                (List.map Validate.error_to_string (Validate.check d)))
            vs)
        [ ("enumeration", vs); ("reverse", List.rev vs);
          ("shuffled", shuffle seed vs) ])
    (kernels () @ generated_programs ())

let fast_hits () =
  Option.value ~default:0.0
    (Tytra_telemetry.Metrics.counter_value "ir.validate.fast_hits")

(* Every replicated variant of the four kernels up to 64 lanes x 8, and
   of the generated programs, derived on a fresh template in enumeration
   order and in reverse, is checked by position: none makes a delta
   check. A position check that rejected valid designs would still
   give every verdict right, since it falls back to the full check, so
   only the checks it makes, and the speed, show it. *)
let test_replicated_derives_by_position () =
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  List.iter
    (fun (name, p) ->
      let vs = List.filter (fun v -> Transform.pes v > 1) (wide_variants p) in
      List.iter
        (fun (order, vs) ->
          let tpl = Lower.template p in
          let h0 = fast_hits () in
          List.iter (fun v -> ignore (Lower.derive tpl v)) vs;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s (%s order): no delta check" name order)
            0.0
            (fast_hits () -. h0))
        [ ("enumeration", vs); ("reverse", List.rev vs) ])
    (kernels () @ generated_programs ())

(* A later derive of a PE count shares the first one's memory objects,
   streams, ports, globals and @main, and builds only its @f1 body and
   @flane; both derives are checked by position and make no delta
   check. A design the position check rejects falls back to the full
   check, which reports exactly its errors. The wiring is broken here by
   a template whose @f0 is declared par, so every call to it has the
   wrong kind. *)
let test_shell_shared_and_fallback () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let tpl = Lower.template p in
  let first = Lower.derive tpl (Transform.ParPipe 8) in
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  let h0 = fast_hits () in
  let later = Lower.derive tpl (Transform.ParVecPipe (4, 2)) in
  Alcotest.(check (float 0.0)) "later derive makes no delta check" 0.0
    (fast_hits () -. h0);
  let shared what f =
    Alcotest.(check bool) (what ^ " shared") true (f first == f later)
  in
  shared "memory objects" (fun d -> d.Ast.d_mems);
  shared "streams" (fun d -> d.Ast.d_streams);
  shared "ports" (fun d -> d.Ast.d_ports);
  shared "globals" (fun d -> d.Ast.d_globals);
  shared "@main" (fun d -> Ast.find_func_exn d "main");
  shared "@f1 parameters" (fun d -> (Ast.find_func_exn d "f1").Ast.fn_params);
  let par_f0 tpl =
    { tpl with Lower.tpl_f0 = { tpl.Lower.tpl_f0 with Ast.fn_kind = Ast.Par } }
  in
  let error tpl =
    match Lower.derive tpl (Transform.ParVecPipe (2, 4)) with
    | _ -> Alcotest.fail "a par @f0 must not validate"
    | exception Invalid_argument m -> m
  in
  let h1 = fast_hits () in
  let via_shell = error (par_f0 tpl) in
  let h2 = fast_hits () in
  let full = error (par_f0 (Lower.template p)) in
  let h3 = fast_hits () in
  Alcotest.(check string) "fallback reports the full check's errors" full
    via_shell;
  Alcotest.(check bool) ("the error is the call-site kind: " ^ full) true
    (contains full "call-site kind pipe does not match @f0's declared kind par");
  Alcotest.(check (float 0.0)) "the full check alone" 1.0 (h2 -. h1);
  Alcotest.(check (float 0.0)) "no shell: the full check alone" 1.0
    (h3 -. h2)

(* A template whose interned lanes were tampered with after they were
   made: lanes 0 .. 7 of [p]'s template, uncertified, with [tamper]
   applied to a copy of the array. *)
let tampered_template p tamper =
  let lanes = Array.copy (Lower.interned_lanes (Lower.template p) 8) in
  tamper lanes;
  { (Lower.template p) with
    Lower.tpl_lanes = { Lower.no_lanes with Lower.ls_lanes = lanes } }

(* The first derive of a PE count trusts a lane only once the template
   has certified it, and the design only where it is made of certified
   lanes by position. Each tampered lane below makes the design invalid
   (three in its Manage-IR, three in its wiring), so the derive must
   fall back to the full check and raise exactly its error text. A lane
   the certificate does not cover, but whose design is valid, falls
   back too, and the derive returns the design the full check passed. *)
let test_tampered_lanes_full_check () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let k = p.Expr.p_kernel in
  let v = Transform.ParPipe 4 in
  let first_port (ln : Lower.lane) = List.hd ln.Lower.ln_ports in
  let first_stream (ln : Lower.lane) = List.hd ln.Lower.ln_streams in
  let with_port ln pt =
    { ln with Lower.ln_ports = pt :: List.tl ln.Lower.ln_ports }
  in
  (* [ln] whose call to @f0 has kind [kind] and passes [args] of the
     arguments it passed *)
  let with_call (ln : Lower.lane) kind args =
    match ln.Lower.ln_call with
    | Ast.Call c ->
        { ln with Lower.ln_call = Ast.Call { c with kind; args = args c.args } }
    | _ -> Alcotest.fail "a lane's call is a call"
  in
  let cases =
    [
      ( "a port naming another lane's stream",
        "port references unknown stream object",
        fun (a : Lower.lane array) ->
          a.(1) <-
            with_port a.(1)
              { (first_port a.(1)) with
                Ast.pt_stream = (first_stream a.(7)).Ast.so_name } );
      ( "a flipped direction",
        "conflicts with stream",
        fun a ->
          let pt = first_port a.(2) in
          a.(2) <-
            with_port a.(2)
              { pt with
                Ast.pt_dir =
                  (match pt.Ast.pt_dir with
                  | Ast.IStream -> Ast.OStream
                  | Ast.OStream -> Ast.IStream) } );
      ( "a memory-object name a later lane reuses",
        "duplicate memory object",
        fun a ->
          let so = first_stream a.(3) in
          a.(3) <-
            { (a.(3)) with
              Lower.ln_streams =
                { so with Ast.so_mem = (first_stream a.(1)).Ast.so_mem }
                :: List.tl a.(3).Lower.ln_streams } );
      ( "a lane whose call has kind par",
        "call-site kind par does not match @f0's declared kind pipe",
        fun a -> a.(1) <- with_call a.(1) Ast.Par Fun.id );
      ( "a lane port renamed to a scalar's name",
        "@f1: duplicate parameter \"omega\"",
        fun a ->
          (* lane 2, its first input's port, stream and memory object
             named after the scalar omega, consistently: made unsuffixed
             from a kernel whose first input is omega, so its other
             ports are still new *)
          a.(2) <-
            Lower.make_lane
              (Lower.stems ~pattern:Ast.Cont
                 { k with Expr.k_inputs = "omega" :: List.tl k.Expr.k_inputs })
              "" );
      ( "a lane argument naming a local that is not a parameter",
        "use of undefined local %nosuch",
        fun a ->
          let ln = a.(3) in
          let args = Ast.Var "nosuch" :: List.tl ln.Lower.ln_args in
          let n = List.length args in
          a.(3) <-
            with_call { ln with Lower.ln_args = args } Ast.Pipe (fun passed ->
                args @ List.filteri (fun i _ -> i >= n) passed) );
    ]
  in
  List.iter
    (fun (what, expected, tamper) ->
      let error derive =
        match derive (tampered_template p tamper) v with
        | _ -> Alcotest.failf "%s: the tampered derive must not validate" what
        | exception Invalid_argument m -> m
      in
      let derived = error Lower.derive in
      let full = error (fun tpl v -> Symtab.design (Lower.derive_sym tpl v)) in
      Alcotest.(check bool) (what ^ ": " ^ full) true (contains full expected);
      Alcotest.(check string) (what ^ ": the full check's error text") full
        derived)
    cases;
  (* lane 1 calls @f0 on lane 0's inputs: valid, but not lane 1's wiring *)
  let tpl =
    tampered_template p (fun a ->
        a.(1) <- { (a.(1)) with Lower.ln_call = a.(0).Lower.ln_call })
  in
  let v = Transform.ParPipe 2 in
  let full = Pprint.design_to_string (Symtab.design (Lower.derive_sym tpl v)) in
  Tytra_telemetry.Control.with_enabled true @@ fun () ->
  let h0 = fast_hits () in
  let derived = Pprint.design_to_string (Lower.derive tpl v) in
  Alcotest.(check (float 0.0)) "lane 1 on lane 0's inputs: the full check"
    1.0
    (fast_hits () -. h0);
  Alcotest.(check string) "lane 1 on lane 0's inputs: the full check's design"
    full derived

(* ---- indexed validator vs the multi-pass oracle ---- *)

let err_set errs =
  List.sort_uniq compare (List.map Validate.error_to_string errs)

let check_agree name d =
  Alcotest.(check (list string))
    (name ^ ": indexed and reference validators agree")
    (err_set (Oracle_validate.check d))
    (err_set (Validate.check d))

let test_validator_agrees_on_valid () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun v -> check_agree name (Lower.lower p v))
        (variants p))
    (kernels ())

let test_validator_agrees_on_broken () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let d = Lower.lower p (Transform.ParPipe 4) in
  let break label f = (label, f d) in
  List.iter
    (fun (label, broken) -> check_agree label broken)
    [
      break "no main"
        (fun d ->
          {
            d with
            Ast.d_funcs =
              List.filter (fun f -> f.Ast.fn_name <> "main") d.Ast.d_funcs;
          });
      break "dangling stream"
        (fun d ->
          {
            d with
            Ast.d_ports =
              List.map
                (fun pt -> { pt with Ast.pt_stream = "nosuch" })
                d.Ast.d_ports;
          });
      break "duplicate function"
        (fun d -> { d with Ast.d_funcs = d.Ast.d_funcs @ d.Ast.d_funcs });
      break "dangling mem"
        (fun d ->
          {
            d with
            Ast.d_streams =
              List.map
                (fun s -> { s with Ast.so_mem = "nosuch" })
                d.Ast.d_streams;
          });
    ];
  (* edge cases of the per-function SSA table: the ordered error list is
     pinned as well as the oracle's set *)
  let ui18 = Ty.UInt 18 in
  let on_f0 g d =
    {
      d with
      Ast.d_funcs =
        List.map
          (fun f -> if f.Ast.fn_name = "f0" then g f else f)
          d.Ast.d_funcs;
    }
  in
  List.iter
    (fun (label, broken, expected) ->
      check_agree label broken;
      Alcotest.(check (list string))
        (label ^ ": ordered errors")
        expected
        (List.map Validate.error_to_string (Validate.check broken)))
    [
      (* the later declaration's type wins for the body's uses *)
      ( "duplicate parameter",
        on_f0
          (fun f ->
            {
              f with
              Ast.fn_params = f.Ast.fn_params @ [ ("rhs", Ty.UInt 32) ];
            })
          d,
        [ "@f0: duplicate parameter \"rhs\"";
          "@f0: operand %rhs has type ui32, expected ui18";
          "@f1: call to @f0 with 10 arguments, expected 11" ] );
      (* a parameter stays an offset source after a local reassigns it;
         the operand takes the local's type *)
      ( "local reassigns a stream parameter",
        on_f0
          (fun f ->
            {
              f with
              Ast.fn_body =
                Ast.Assign
                  { dst = Ast.Dlocal "p"; ty = ui18; op = Ast.CmpLt;
                    args = [ Ast.Var "p"; Ast.Imm 1L ] }
                :: Ast.Offset
                     { dst = "pp"; ty = ui18; src = Ast.Var "p"; off = 2 }
                :: f.Ast.fn_body;
            })
          d,
        [ "@f0: local %p reassigned (SSA)";
          "@f0: operand %p has type bool, expected ui18" ] );
      (* the port pass keeps one duplicate table per function, also
         when the ports of two functions interleave; a port on a
         missing function is reported once per (loc, msg) *)
      ( "duplicate ports across functions",
        (let p0 = List.hd d.Ast.d_ports in
         {
           d with
           Ast.d_ports =
             d.Ast.d_ports
             @ [ { p0 with Ast.pt_fun = "f1" }; p0;
                 { p0 with Ast.pt_fun = "nosuch" };
                 { p0 with Ast.pt_fun = "nosuch" } ];
         }),
        [ "manage: duplicate port \"main.p0\"";
          "@nosuch.p0: port on unknown function @nosuch";
          "manage: duplicate port \"nosuch.p0\"" ] );
      (* parameters are per function, not per function name *)
      ( "two functions named f0",
        {
          d with
          Ast.d_funcs =
            d.Ast.d_funcs
            @ [
                {
                  Ast.fn_name = "f0";
                  fn_params = [ ("q", ui18) ];
                  fn_kind = Ast.Pipe;
                  fn_body =
                    [
                      Ast.Offset
                        { dst = "q1"; ty = ui18; src = Ast.Var "q"; off = 1 };
                      Ast.Offset
                        { dst = "p1"; ty = ui18; src = Ast.Var "p"; off = 1 };
                      Ast.Assign
                        { dst = Ast.Dlocal "out_q"; ty = ui18; op = Ast.Mov;
                          args = [ Ast.Var "q1" ] };
                    ];
                };
              ];
        },
        [ "design: duplicate function \"f0\"";
          "@f0: offset source %p must be a stream parameter";
          "@f0: use of undefined local %p" ] );
    ]

let test_errors_in_source_order () =
  (* a Manage-IR defect must be reported before a Compute-IR defect,
     regardless of discovery strategy *)
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let d = Lower.lower p Transform.Pipe in
  let broken =
    {
      d with
      Ast.d_mems =
        List.map (fun m -> { m with Ast.mo_size = -1 }) d.Ast.d_mems;
      Ast.d_funcs =
        List.filter (fun f -> f.Ast.fn_name <> "f0") d.Ast.d_funcs;
    }
  in
  match Validate.check broken with
  | first :: _ ->
      Alcotest.(check bool)
        "first error is the memory-object one" true
        (contains (Validate.error_to_string first) "size must be positive")
  | [] -> Alcotest.fail "expected errors"

let test_errors_deduplicated () =
  (* the same (loc, msg) pair produced many times — e.g. every lane's
     port referencing one missing stream family — appears once *)
  let open Ast in
  let d =
    {
      d_name = "dup_errs";
      d_mems = [];
      d_streams = [];
      d_ports = [];
      d_globals = [];
      d_funcs =
        [
          {
            fn_name = "main";
            fn_params = [];
            fn_kind = Seq;
            fn_body =
              [
                Assign
                  {
                    dst = Dlocal "a";
                    ty = Ty.UInt 32;
                    op = Add;
                    args = [ Var "x"; Var "x" ];
                  };
                Assign
                  {
                    dst = Dlocal "b";
                    ty = Ty.UInt 32;
                    op = Add;
                    args = [ Var "x"; Var "x" ];
                  };
              ];
          };
        ];
    }
  in
  let errs = Validate.check d in
  let undefined_x =
    List.filter
      (fun e -> contains (Validate.error_to_string e) "undefined local %x")
      errs
  in
  Alcotest.(check int) "four uses of %x report once" 1
    (List.length undefined_x)

(* ---- annealer equivalence ---- *)

let test_annealer_bit_identical () =
  (* delta-wirelength annealing must reproduce the reference placement
     exactly: same PRNG draws, same accept decisions, same final
     wirelength — across kernels and lane counts *)
  List.iter
    (fun (name, p) ->
      List.iter
        (fun v ->
          let d = Lower.lower p v in
          let summary = Config_tree.classify d in
          let pes =
            List.filter_map (Ast.find_func d)
              summary.Config_tree.cs_pes
          in
          let nl = Tytra_sim.Techmap.build_netlist d pes in
          let run place =
            let rng = Tytra_sim.Prng.of_string ("anneal:" ^ name) in
            place ~rng ~effort:4 nl
          in
          let f = run Tytra_sim.Techmap.place and s = run Oracle_place.place in
          let open Tytra_sim.Techmap in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s %s pl_avg_wire identical" name
               (Transform.to_string v))
            s.pl_avg_wire f.pl_avg_wire;
          Alcotest.(check int)
            (Printf.sprintf "%s %s accepted swaps identical" name
               (Transform.to_string v))
            s.pl_accepted f.pl_accepted)
        [ Transform.Pipe; Transform.ParPipe 4 ])
    (kernels ())

let test_annealer_no_drift () =
  (* the periodic full recompute must agree with the running delta total:
     wirelength is integer arithmetic, so drift is exactly zero *)
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let d = Lower.lower p (Transform.ParPipe 4) in
  let summary = Config_tree.classify d in
  let pes =
    List.filter_map (Ast.find_func d) summary.Config_tree.cs_pes
  in
  let nl = Tytra_sim.Techmap.build_netlist d pes in
  Tytra_telemetry.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Tytra_telemetry.Control.set_enabled false)
  @@ fun () ->
  let rng = Tytra_sim.Prng.of_string "anneal:drift" in
  (* enough moves to cross several drift-check intervals *)
  ignore (Tytra_sim.Techmap.place ~rng ~effort:40 nl);
  match Tytra_telemetry.Metrics.gauge_value "sim.techmap.anneal.drift" with
  | Some drift ->
      Alcotest.(check (float 1e-6)) "drift is zero" 0.0 drift
  | None -> Alcotest.fail "drift gauge not published"

(* ---- DSE selections equal a from-scratch lowering of every variant ---- *)

(* the printed report carries Fmax, utilization, walls and balance, so
   a sweep that costs each point on the index its derivation built must
   match Report.evaluate on the from-scratch design field for field *)
let signature pts =
  List.map
    (fun p ->
      ( Transform.to_string p.Tytra_dse.Dse.dp_variant,
        Tytra_dse.Dse.ekit p,
        Tytra_dse.Dse.area p,
        Pprint.design_to_string p.Tytra_dse.Dse.dp_design,
        Tytra_cost.Report.to_string p.Tytra_dse.Dse.dp_report ))
    pts

let test_dse_selections_identical () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let config =
    { Tytra_dse.Dse.default_config with
      max_lanes = 8; max_vec = 4; prune = false }
  in
  let swept = Tytra_dse.Dse.explore ~config p in
  let lowered =
    List.map
      (fun v ->
        let d = Lower.lower p v in
        {
          Tytra_dse.Dse.dp_variant = v;
          dp_design = d;
          dp_report =
            Tytra_cost.Report.evaluate ~device:config.device ~form:config.form
              ~nki:config.nki d;
        })
      (Transform.enumerate ~max_lanes:config.max_lanes
         ~max_vec:config.max_vec p)
  in
  let selections pts =
    ( Option.map (fun b -> signature [ b ]) (Tytra_dse.Dse.best pts),
      signature (Tytra_dse.Dse.pareto pts) )
  in
  Alcotest.(check bool) "vectorised variants swept" true
    (List.exists
       (fun p ->
         match p.Tytra_dse.Dse.dp_variant with
         | Transform.ParVecPipe _ -> true
         | _ -> false)
       swept);
  Alcotest.(check bool) "every point identical" true
    (signature swept = signature lowered);
  let best_swept, pareto_swept = selections swept in
  let best_lowered, pareto_lowered = selections lowered in
  Alcotest.(check bool) "best identical" true (best_swept = best_lowered);
  Alcotest.(check bool) "pareto identical" true
    (pareto_swept = pareto_lowered)

let test_derive_counts () =
  let p = Tytra_kernels.Sor.program ~im:16 ~jm:16 ~km:16 () in
  let config =
    { Tytra_dse.Dse.default_config with max_lanes = 8 }
  in
  Tytra_telemetry.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Tytra_telemetry.Control.set_enabled false)
  @@ fun () ->
  let before =
    Option.value ~default:0.0
      (Tytra_telemetry.Metrics.counter_value "dse.points_derived")
  in
  ignore (Tytra_dse.Dse.explore ~config p);
  let after =
    Option.value ~default:0.0
      (Tytra_telemetry.Metrics.counter_value "dse.points_derived")
  in
  Alcotest.(check bool) "derived points counted" true (after > before)

let suite =
  [
    Alcotest.test_case "derived variants pretty-print identically" `Quick
      test_derive_prints_identically;
    Alcotest.test_case "derived variants validate clean" `Quick
      test_derive_validates_clean;
    Alcotest.test_case "delta validation catches broken wiring" `Quick
      test_derive_rejects_bad_delta;
    Alcotest.test_case "shell derives print and validate as lowered" `Quick
      test_shell_derive_exact;
    Alcotest.test_case "replicated derives checked by position" `Quick
      test_replicated_derives_by_position;
    Alcotest.test_case "shells shared, fallback to the full check" `Quick
      test_shell_shared_and_fallback;
    Alcotest.test_case "tampered lanes derive with the full check's errors"
      `Quick test_tampered_lanes_full_check;
    Alcotest.test_case "validators agree on valid designs" `Quick
      test_validator_agrees_on_valid;
    Alcotest.test_case "validators agree on broken designs" `Quick
      test_validator_agrees_on_broken;
    Alcotest.test_case "errors in source order" `Quick
      test_errors_in_source_order;
    Alcotest.test_case "identical errors deduplicated" `Quick
      test_errors_deduplicated;
    Alcotest.test_case "annealer bit-identical to reference" `Quick
      test_annealer_bit_identical;
    Alcotest.test_case "annealer delta total never drifts" `Quick
      test_annealer_no_drift;
    Alcotest.test_case "DSE selections identical fast vs slow" `Quick
      test_dse_selections_identical;
    Alcotest.test_case "derived points counted" `Quick test_derive_counts;
  ]
