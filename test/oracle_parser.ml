(* Differential oracle for [Parser]: the recursive-descent parser it
   replaced, which keeps local closures and refs per instruction,
   argument list and port, and compares tokens with polymorphic
   equality. It reads tokens through the shipped [Lexer] and type names
   through the shipped [Ty.of_string]. test_lexer checks that
   [Parser.parse_result] returns what [parse_result] here returns, the
   same design or the same [Error.t], on every input it lexes. *)

open Tytra_ir

exception Parse_error of string * int

let err lx msg = raise (Parse_error (msg, Lexer.line lx))

let expect lx tok =
  let t = Lexer.next lx in
  if t <> tok then
    err lx
      (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string t))

let expect_ident lx =
  match Lexer.next lx with
  | Lexer.TIdent s -> s
  | t -> err lx ("expected identifier, found " ^ Lexer.token_to_string t)

let expect_keyword lx kw =
  let s = expect_ident lx in
  if s <> kw then err lx (Printf.sprintf "expected %S, found %S" kw s)

let expect_local lx =
  match Lexer.next lx with
  | Lexer.TLocal s -> s
  | t -> err lx ("expected %name, found " ^ Lexer.token_to_string t)

let expect_global lx =
  match Lexer.next lx with
  | Lexer.TGlobal s -> s
  | t -> err lx ("expected @name, found " ^ Lexer.token_to_string t)

let expect_int lx =
  match Lexer.next lx with
  | Lexer.TInt i -> i
  | t -> err lx ("expected integer, found " ^ Lexer.token_to_string t)

let parse_ty lx =
  let s = expect_ident lx in
  match Ty.of_string s with Ok t -> t | Error e -> err lx e

let parse_kind lx =
  match expect_ident lx with
  | "pipe" -> Ast.Pipe
  | "par" -> Ast.Par
  | "seq" -> Ast.Seq
  | "comb" -> Ast.Comb
  | s -> err lx (Printf.sprintf "expected parallelism kind, found %S" s)

let parse_space lx =
  match expect_ident lx with
  | "private" -> Ast.Private
  | "global" -> Ast.Global
  | "local" -> Ast.Local
  | "constant" -> Ast.Constant
  | s -> err lx (Printf.sprintf "expected address space, found %S" s)

let parse_dir_of_string lx = function
  | "istream" -> Ast.IStream
  | "ostream" -> Ast.OStream
  | s -> err lx (Printf.sprintf "expected istream/ostream, found %S" s)

let parse_pattern lx =
  match expect_ident lx with
  | "cont" -> Ast.Cont
  | "random" -> Ast.Random
  | "strided" -> Ast.Strided (expect_int lx)
  | s -> err lx (Printf.sprintf "expected access pattern, found %S" s)

let parse_operand lx : Ast.operand =
  match Lexer.next lx with
  | Lexer.TLocal s -> Ast.Var s
  | Lexer.TGlobal s -> Ast.Glob s
  | Lexer.TInt i -> Ast.Imm (Int64.of_int i)
  | Lexer.TFloat f -> Ast.ImmF f
  | t -> err lx ("expected operand, found " ^ Lexer.token_to_string t)

(* memdecl, after "%name =" and keyword [memobj] consumed *)
let parse_memdecl lx name : Ast.mem_obj =
  let space = parse_space lx in
  let ty = parse_ty lx in
  expect_keyword lx "size";
  let size = expect_int lx in
  if size <= 0 then err lx "memory object size must be positive";
  { mo_name = name; mo_space = space; mo_ty = ty; mo_size = size }

(* streamdecl, after "%name =" and keyword [stream] consumed *)
let parse_streamdecl lx name : Ast.stream_obj =
  let dir = parse_dir_of_string lx (expect_ident lx) in
  let mem = expect_local lx in
  expect_keyword lx "pattern";
  let pat = parse_pattern lx in
  { so_name = name; so_dir = dir; so_mem = mem; so_pattern = pat }

(* Port metadata: a sequence of !-items, commas optional. *)
let parse_port lx qualified : Ast.port =
  let fn, port =
    match String.index_opt qualified '.' with
    | Some i ->
        ( String.sub qualified 0 i,
          String.sub qualified (i + 1) (String.length qualified - i - 1) )
    | None -> err lx (Printf.sprintf "port name %S must be @fn.port" qualified)
  in
  expect_keyword lx "addrspace";
  expect lx Lexer.TLparen;
  let lvl = expect_int lx in
  let space =
    match Ast.space_of_level lvl with
    | Some s -> s
    | None -> err lx (Printf.sprintf "invalid address-space level %d" lvl)
  in
  expect lx Lexer.TRparen;
  let ty = parse_ty lx in
  let dir = ref None and pat = ref None and off = ref None and str = ref None in
  let set r v what =
    match !r with
    | None -> r := Some v
    | Some _ -> err lx ("duplicate " ^ what ^ " metadata on port")
  in
  let rec meta () =
    match Lexer.peek lx with
    | Lexer.TComma -> ignore (Lexer.next lx); meta ()
    | Lexer.TBang ->
        ignore (Lexer.next lx);
        (match Lexer.next lx with
        | Lexer.TInt i -> set off i "base-offset"
        | Lexer.TString s | Lexer.TIdent s -> (
            match String.lowercase_ascii s with
            | "istream" -> set dir Ast.IStream "direction"
            | "ostream" -> set dir Ast.OStream "direction"
            | "cont" -> set pat Ast.Cont "pattern"
            | "random" -> set pat Ast.Random "pattern"
            | "strided" ->
                (* stride follows as !INT or INT *)
                let s =
                  match Lexer.peek lx with
                  | Lexer.TBang ->
                      ignore (Lexer.next lx);
                      expect_int lx
                  | Lexer.TInt _ -> expect_int lx
                  | _ -> err lx "strided pattern needs a stride"
                in
                set pat (Ast.Strided s) "pattern"
            | _ -> set str s "stream")
        | t -> err lx ("bad port metadata " ^ Lexer.token_to_string t));
        meta ()
    | _ -> ()
  in
  meta ();
  let req what = function Some v -> v | None -> err lx ("port missing " ^ what) in
  {
    pt_fun = fn;
    pt_port = port;
    pt_space = space;
    pt_ty = ty;
    pt_dir = req "direction (!istream/!ostream)" !dir;
    pt_pattern = (match !pat with Some p -> p | None -> Ast.Cont);
    pt_base_off = (match !off with Some o -> o | None -> 0);
    pt_stream = req "stream object name" !str;
  }

(* globaldecl, after "@name =" and keyword [global] consumed *)
let parse_globaldecl lx name : Ast.global =
  let ty = parse_ty lx in
  expect_keyword lx "init";
  let init = expect_int lx in
  { g_name = name; g_ty = ty; g_init = Int64.of_int init }

let parse_params lx =
  expect lx Lexer.TLparen;
  if Lexer.peek lx = Lexer.TRparen then (ignore (Lexer.next lx); [])
  else begin
    let rec go acc =
      let ty = parse_ty lx in
      let name = expect_local lx in
      match Lexer.next lx with
      | Lexer.TComma -> go ((name, ty) :: acc)
      | Lexer.TRparen -> List.rev ((name, ty) :: acc)
      | t -> err lx ("expected , or ) in parameter list, found "
                     ^ Lexer.token_to_string t)
    in
    go []
  end

let parse_call ?(rets = []) lx : Ast.instr =
  let callee = expect_global lx in
  expect lx Lexer.TLparen;
  let args =
    if Lexer.peek lx = Lexer.TRparen then (ignore (Lexer.next lx); [])
    else begin
      let rec go acc =
        let a = parse_operand lx in
        match Lexer.next lx with
        | Lexer.TComma -> go (a :: acc)
        | Lexer.TRparen -> List.rev (a :: acc)
        | t -> err lx ("expected , or ) in call arguments, found "
                       ^ Lexer.token_to_string t)
      in
      go []
    end
  in
  let kind = parse_kind lx in
  Ast.Call { callee; args; kind; rets }

let parse_assign lx (dst : Ast.dest) : Ast.instr =
  let opname = expect_ident lx in
  if opname = "offset" then begin
    let ty = parse_ty lx in
    let src = parse_operand lx in
    expect lx Lexer.TComma;
    let off = expect_int lx in
    match dst with
    | Ast.Dlocal d -> Ast.Offset { dst = d; ty; src; off }
    | Ast.Dglobal _ -> err lx "offset destination must be a local"
  end
  else
    match Ast.op_of_string opname with
    | None -> err lx (Printf.sprintf "unknown operation %S" opname)
    | Some op ->
        let ty = parse_ty lx in
        let rec operands acc =
          let a = parse_operand lx in
          if Lexer.peek lx = Lexer.TComma then begin
            ignore (Lexer.next lx);
            operands (a :: acc)
          end
          else List.rev (a :: acc)
        in
        let args = operands [] in
        if List.length args <> Ast.arity op then
          err lx
            (Printf.sprintf "%s expects %d operands, got %d" opname
               (Ast.arity op) (List.length args));
        Ast.Assign { dst; ty; op; args }

let parse_instr lx : Ast.instr =
  match Lexer.next lx with
  | Lexer.TIdent "call" -> parse_call lx
  | Lexer.TLocal d -> (
      (* one or more comma-separated locals: single destination for an
         SSA assignment, a destination list for a returning call
         ([%s1 = call @pipeA (...) pipe], coarse-pipeline plumbing) *)
      let rec dsts acc =
        match Lexer.peek lx with
        | Lexer.TComma -> (
            ignore (Lexer.next lx);
            match Lexer.next lx with
            | Lexer.TLocal d' -> dsts (d' :: acc)
            | t ->
                err lx
                  ("expected %name in destination list, found "
                  ^ Lexer.token_to_string t))
        | _ -> List.rev acc
      in
      let ds = dsts [ d ] in
      expect lx Lexer.TEq;
      match (Lexer.peek lx, ds) with
      | Lexer.TIdent "call", _ ->
          ignore (Lexer.next lx);
          parse_call ~rets:ds lx
      | _, [ d ] -> parse_assign lx (Ast.Dlocal d)
      | _ -> err lx "multiple destinations are only allowed for call")
  | Lexer.TGlobal d ->
      expect lx Lexer.TEq;
      parse_assign lx (Ast.Dglobal d)
  | t -> err lx ("expected instruction, found " ^ Lexer.token_to_string t)

let parse_fundef lx : Ast.func =
  expect_keyword lx "void";
  let name = expect_global lx in
  let params = parse_params lx in
  let kind = parse_kind lx in
  expect lx Lexer.TLbrace;
  let rec body acc =
    if Lexer.peek lx = Lexer.TRbrace then (ignore (Lexer.next lx); List.rev acc)
    else body (parse_instr lx :: acc)
  in
  let body = body [] in
  { fn_name = name; fn_params = params; fn_kind = kind; fn_body = body }

(** [parse ~name src] parses a complete design from [src]. Raises
    {!Parse_error} (and {!Lexer.Lex_error}) on malformed input; when the
    input has a lexical error, the first one is raised, whatever else is
    wrong with it. *)
let parse ?(name = "design") (src : string) : Ast.design =
  let lx = Lexer.of_string src in
  (* one reversed list per declaration kind, put in order once at EOF *)
  let mems = ref [] and streams = ref [] and ports = ref [] in
  let globals = ref [] and funcs = ref [] in
  let add l x = l := x :: !l in
  let rec go () =
    match Lexer.next lx with
    | Lexer.TEOF -> ()
    | Lexer.TIdent "define" ->
        add funcs (parse_fundef lx);
        go ()
    | Lexer.TLocal n ->
        expect lx Lexer.TEq;
        (match expect_ident lx with
        | "memobj" -> add mems (parse_memdecl lx n)
        | "stream" -> add streams (parse_streamdecl lx n)
        | s -> err lx (Printf.sprintf "expected memobj/stream, found %S" s));
        go ()
    | Lexer.TGlobal n ->
        expect lx Lexer.TEq;
        if String.contains n '.' then add ports (parse_port lx n)
        else begin
          expect_keyword lx "global";
          add globals (parse_globaldecl lx n)
        end;
        go ()
    | t -> err lx ("expected declaration, found " ^ Lexer.token_to_string t)
  in
  (* Tokens are lexed on demand, so a grammar failure can precede a
     lexical error further on. The first lexical error in the input
     wins: lex the rest, and re-raise the grammar's exception only if
     the rest is clean. *)
  (try go () with
  | e when (match e with Lexer.Lex_error _ -> false | _ -> true) ->
      let bt = Printexc.get_raw_backtrace () in
      let rec drain () =
        match Lexer.next lx with Lexer.TEOF -> () | _ -> drain ()
      in
      drain ();
      Printexc.raise_with_backtrace e bt);
  {
    Ast.d_name = name;
    d_mems = List.rev !mems;
    d_streams = List.rev !streams;
    d_ports = List.rev !ports;
    d_globals = List.rev !globals;
    d_funcs = List.rev !funcs;
  }

(** [parse_result ?name ?file src] is {!parse} with failures reported as
    a typed {!Error.t} instead of an exception — the entry point library
    consumers should use. [file] only labels diagnostics. *)
let parse_result ?name ?file src : (Ast.design, Error.t) result =
  match parse ?name src with
  | d -> Ok d
  | exception Parse_error (m, l) -> Result.error (Error.parse ?file m l)
  | exception Lexer.Lex_error (m, l) -> Result.error (Error.lex ?file m l)
  | exception Stack_overflow ->
      (* Deeply nested input blows the recursive-descent stack long
         before it means anything; still the caller's data, not a bug. *)
      Result.error (Error.parse ?file "input nests too deeply" 0)
  | exception e ->
      (* Crash-free contract on arbitrary bytes (the fuzz suite pins
         it): anything the cases above miss is a parser bug, but it must
         surface as a diagnostic, not a crash of the enclosing sweep. *)
      Result.error
        (Error.parse ?file
           ("internal parser failure: " ^ Printexc.to_string e)
           0)
