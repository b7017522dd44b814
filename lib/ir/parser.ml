(** Recursive-descent parser for the textual TyTra-IR ([.tirl]).

    Grammar (EBNF; [;]-comments handled by the lexer):
    {v
    design     ::= decl*
    decl       ::= memdecl | streamdecl | portdecl | globaldecl | fundef
    memdecl    ::= LOCAL '=' 'memobj' space ty 'size' INT
    space      ::= 'private' | 'global' | 'local' | 'constant'
    streamdecl ::= LOCAL '=' 'stream' dir LOCAL 'pattern' pattern
    dir        ::= 'istream' | 'ostream'
    pattern    ::= 'cont' | 'random' | 'strided' INT
    portdecl   ::= GLOBAL(fn.port) '=' 'addrspace' '(' INT ')' ty
                     meta* ( ',' meta* )*
      -- metadata: !istream/!ostream, !cont/!random/!strided INT,
         !INT (base offset), !streamobj-name; quoted forms !"CONT" accepted
    globaldecl ::= GLOBAL '=' 'global' ty 'init' INT
    fundef     ::= 'define' 'void' GLOBAL '(' params? ')' kind
                     '{' instr* '}'
    params     ::= ty LOCAL ( ',' ty LOCAL )*
    kind       ::= 'pipe' | 'par' | 'seq' | 'comb'
    instr      ::= LOCAL '=' 'offset' ty operand ',' INT
                 | dest '=' OP ty operand ( ',' operand )*
                 | rets? 'call' GLOBAL '(' operands? ')' kind
    rets       ::= LOCAL ( ',' LOCAL )* '='
      -- returning calls bind the callee's out_* streams positionally:
         the peer-to-peer plumbing of coarse-grained pipelines (Fig 7)
    dest       ::= LOCAL | GLOBAL
    operand    ::= LOCAL | GLOBAL | INT | FLOAT
    v} *)

exception Parse_error of string * int

let err lx msg = raise (Parse_error (msg, Lexer.line lx))

(* Punctuation is a constant constructor, so [==] and [!=] compare
   tokens with it exactly. *)
let expect lx tok =
  let t = Lexer.next lx in
  if t != tok then
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

let duplicate lx what = err lx ("duplicate " ^ what ^ " metadata on port")

(* The stride after [!strided]: [!INT] or [INT]. *)
let parse_stride lx =
  match Lexer.peek lx with
  | Lexer.TBang ->
      ignore (Lexer.next lx);
      expect_int lx
  | Lexer.TInt _ -> expect_int lx
  | _ -> err lx "strided pattern needs a stride"

(* A port's metadata, after its type: a sequence of !-items, commas
   optional, each setting one of [dir], [pat], [off] and [str] at most
   once. [pt] holds the port's other fields. At the first token that
   starts no item, the port is complete. *)
let rec port_meta lx (pt : Ast.port) dir pat off str : Ast.port =
  match Lexer.peek lx with
  | Lexer.TComma ->
      ignore (Lexer.next lx);
      port_meta lx pt dir pat off str
  | Lexer.TBang -> (
      ignore (Lexer.next lx);
      match Lexer.next lx with
      | Lexer.TInt i ->
          if Option.is_some off then duplicate lx "base-offset";
          port_meta lx pt dir pat (Some i) str
      | Lexer.TString s | Lexer.TIdent s -> (
          match String.lowercase_ascii s with
          | "istream" -> port_dir lx pt Ast.IStream dir pat off str
          | "ostream" -> port_dir lx pt Ast.OStream dir pat off str
          | "cont" -> port_pattern lx pt Ast.Cont dir pat off str
          | "random" -> port_pattern lx pt Ast.Random dir pat off str
          | "strided" ->
              let stride = parse_stride lx in
              port_pattern lx pt (Ast.Strided stride) dir pat off str
          | _ ->
              if Option.is_some str then duplicate lx "stream";
              port_meta lx pt dir pat off (Some s))
      | t -> err lx ("bad port metadata " ^ Lexer.token_to_string t))
  | _ ->
      let stream =
        match str with
        | Some s -> s
        | None -> err lx "port missing stream object name"
      in
      let dir =
        match dir with
        | Some d -> d
        | None -> err lx "port missing direction (!istream/!ostream)"
      in
      {
        pt with
        pt_dir = dir;
        pt_pattern = (match pat with Some p -> p | None -> Ast.Cont);
        pt_base_off = (match off with Some o -> o | None -> 0);
        pt_stream = stream;
      }

and port_dir lx pt d dir pat off str =
  if Option.is_some dir then duplicate lx "direction";
  port_meta lx pt (Some d) pat off str

and port_pattern lx pt p dir pat off str =
  if Option.is_some pat then duplicate lx "pattern";
  port_meta lx pt dir (Some p) off str

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
  port_meta lx
    { pt_fun = fn; pt_port = port; pt_space = space; pt_ty = ty;
      pt_dir = Ast.IStream; pt_pattern = Ast.Cont; pt_base_off = 0;
      pt_stream = "" }
    None None None None

(* globaldecl, after "@name =" and keyword [global] consumed *)
let parse_globaldecl lx name : Ast.global =
  let ty = parse_ty lx in
  expect_keyword lx "init";
  let init = expect_int lx in
  { g_name = name; g_ty = ty; g_init = Int64.of_int init }

(* the parameters after the first, reversed onto [acc] *)
let rec params lx acc =
  let ty = parse_ty lx in
  let name = expect_local lx in
  match Lexer.next lx with
  | Lexer.TComma -> params lx ((name, ty) :: acc)
  | Lexer.TRparen -> List.rev ((name, ty) :: acc)
  | t ->
      err lx
        ("expected , or ) in parameter list, found " ^ Lexer.token_to_string t)

let parse_params lx =
  expect lx Lexer.TLparen;
  if Lexer.peek lx == Lexer.TRparen then (ignore (Lexer.next lx); [])
  else params lx []

let rec call_args lx acc =
  let a = parse_operand lx in
  match Lexer.next lx with
  | Lexer.TComma -> call_args lx (a :: acc)
  | Lexer.TRparen -> List.rev (a :: acc)
  | t ->
      err lx
        ("expected , or ) in call arguments, found " ^ Lexer.token_to_string t)

let parse_call lx rets : Ast.instr =
  let callee = expect_global lx in
  expect lx Lexer.TLparen;
  let args =
    if Lexer.peek lx == Lexer.TRparen then (ignore (Lexer.next lx); [])
    else call_args lx []
  in
  let kind = parse_kind lx in
  Ast.Call { callee; args; kind; rets }

(* The comma-separated operands of [op], reversed onto [acc], [n] of
   them so far. Their number must be [op]'s arity. *)
let rec operands lx opname op acc n =
  let a = parse_operand lx in
  if Lexer.peek lx == Lexer.TComma then begin
    ignore (Lexer.next lx);
    operands lx opname op (a :: acc) (n + 1)
  end
  else if n + 1 <> Ast.arity op then
    err lx
      (Printf.sprintf "%s expects %d operands, got %d" opname (Ast.arity op)
         (n + 1))
  else List.rev (a :: acc)

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
        let args = operands lx opname op [] 0 in
        Ast.Assign { dst; ty; op; args }

(* the destinations after the first, reversed onto [acc]: one local for
   an SSA assignment, a list for a returning call
   ([%s1 = call @pipeA (...) pipe], coarse-pipeline plumbing) *)
let rec dests lx acc =
  if Lexer.peek lx == Lexer.TComma then begin
    ignore (Lexer.next lx);
    match Lexer.next lx with
    | Lexer.TLocal d -> dests lx (d :: acc)
    | t ->
        err lx
          ("expected %name in destination list, found "
          ^ Lexer.token_to_string t)
  end
  else List.rev acc

let parse_instr lx : Ast.instr =
  match Lexer.next lx with
  | Lexer.TIdent "call" -> parse_call lx []
  | Lexer.TLocal d -> (
      let ds = dests lx [ d ] in
      expect lx Lexer.TEq;
      match (Lexer.peek lx, ds) with
      | Lexer.TIdent "call", _ ->
          ignore (Lexer.next lx);
          parse_call lx ds
      | _, [ d ] -> parse_assign lx (Ast.Dlocal d)
      | _ -> err lx "multiple destinations are only allowed for call")
  | Lexer.TGlobal d ->
      expect lx Lexer.TEq;
      parse_assign lx (Ast.Dglobal d)
  | t -> err lx ("expected instruction, found " ^ Lexer.token_to_string t)

(* the instructions up to the closing brace, reversed onto [acc] *)
let rec body lx acc =
  if Lexer.peek lx == Lexer.TRbrace then (ignore (Lexer.next lx); List.rev acc)
  else body lx (parse_instr lx :: acc)

let parse_fundef lx : Ast.func =
  expect_keyword lx "void";
  let name = expect_global lx in
  let params = parse_params lx in
  let kind = parse_kind lx in
  expect lx Lexer.TLbrace;
  let body = body lx [] in
  { fn_name = name; fn_params = params; fn_kind = kind; fn_body = body }

(* The declarations up to EOF, one reversed list per kind, put in order
   once at the end. *)
let rec decls lx name mems streams ports globals funcs : Ast.design =
  match Lexer.next lx with
  | Lexer.TEOF ->
      {
        Ast.d_name = name;
        d_mems = List.rev mems;
        d_streams = List.rev streams;
        d_ports = List.rev ports;
        d_globals = List.rev globals;
        d_funcs = List.rev funcs;
      }
  | Lexer.TIdent "define" ->
      let f = parse_fundef lx in
      decls lx name mems streams ports globals (f :: funcs)
  | Lexer.TLocal n -> (
      expect lx Lexer.TEq;
      match expect_ident lx with
      | "memobj" ->
          let m = parse_memdecl lx n in
          decls lx name (m :: mems) streams ports globals funcs
      | "stream" ->
          let s = parse_streamdecl lx n in
          decls lx name mems (s :: streams) ports globals funcs
      | s -> err lx (Printf.sprintf "expected memobj/stream, found %S" s))
  | Lexer.TGlobal n ->
      expect lx Lexer.TEq;
      if String.contains n '.' then
        let p = parse_port lx n in
        decls lx name mems streams (p :: ports) globals funcs
      else begin
        expect_keyword lx "global";
        let g = parse_globaldecl lx n in
        decls lx name mems streams ports (g :: globals) funcs
      end
  | t -> err lx ("expected declaration, found " ^ Lexer.token_to_string t)

(* Lex the rest of the input, so that a lexical error in it is raised. *)
let rec drain lx = if Lexer.next lx != Lexer.TEOF then drain lx

(** [parse ~name src] parses a complete design from [src]. Raises
    {!Parse_error} (and {!Lexer.Lex_error}) on malformed input; when the
    input has a lexical error, the first one is raised, whatever else is
    wrong with it. *)
let parse ?(name = "design") (src : string) : Ast.design =
  Tytra_telemetry.Span.with_ ~name:"ir.parse"
    ~attrs:
      [ ("design", Tytra_telemetry.Span.Str name);
        ("bytes", Tytra_telemetry.Span.Int (String.length src)) ]
  @@ fun () ->
  let lx = Lexer.of_string src in
  (* Tokens are lexed on demand, so a grammar failure can precede a
     lexical error further on. The first lexical error in the input
     wins: lex the rest, and re-raise the grammar's exception only if
     the rest is clean. *)
  try decls lx name [] [] [] [] []
  with e when (match e with Lexer.Lex_error _ -> false | _ -> true) ->
    let bt = Printexc.get_raw_backtrace () in
    drain lx;
    Printexc.raise_with_backtrace e bt

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
