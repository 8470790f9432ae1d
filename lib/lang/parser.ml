type error = { line : int; column : int; message : string }

let error_to_string e = Printf.sprintf "line %d, column %d: %s" e.line e.column e.message

type token =
  | Tint of int
  | Tident of string
  | Tdef
  | Tlet
  | Tin
  | Tif
  | Tthen
  | Telse
  | Ttrue
  | Tfalse
  | Tnil
  | Tnot
  | Tlparen
  | Trparen
  | Tlbracket
  | Trbracket
  | Tcomma
  | Tsemi
  | Tassign
  | Teqeq
  | Tne
  | Tlt
  | Tle
  | Tgt
  | Tge
  | Tplus
  | Tminus
  | Tstar
  | Tslash
  | Tpercent
  | Tconscons
  | Tandand
  | Toror
  | Teof

let token_label = function
  | Tint n -> string_of_int n
  | Tident s -> s
  | Tdef -> "def"
  | Tlet -> "let"
  | Tin -> "in"
  | Tif -> "if"
  | Tthen -> "then"
  | Telse -> "else"
  | Ttrue -> "true"
  | Tfalse -> "false"
  | Tnil -> "nil"
  | Tnot -> "not"
  | Tlparen -> "("
  | Trparen -> ")"
  | Tlbracket -> "["
  | Trbracket -> "]"
  | Tcomma -> ","
  | Tsemi -> ";"
  | Tassign -> "="
  | Teqeq -> "=="
  | Tne -> "!="
  | Tlt -> "<"
  | Tle -> "<="
  | Tgt -> ">"
  | Tge -> ">="
  | Tplus -> "+"
  | Tminus -> "-"
  | Tstar -> "*"
  | Tslash -> "/"
  | Tpercent -> "%"
  | Tconscons -> "::"
  | Tandand -> "&&"
  | Toror -> "||"
  | Teof -> "<eof>"

exception Parse_error of error

let fail line column fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; column; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexing                                                              *)
(* ------------------------------------------------------------------ *)

type located = { tok : token; tline : int; tcol : int }

let keyword = function
  | "def" -> Some Tdef
  | "let" -> Some Tlet
  | "in" -> Some Tin
  | "if" -> Some Tif
  | "then" -> Some Tthen
  | "else" -> Some Telse
  | "true" -> Some Ttrue
  | "false" -> Some Tfalse
  | "nil" -> Some Tnil
  | "not" -> Some Tnot
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let out = ref [] in
  let emit tok tline tcol = out := { tok; tline; tcol } :: !out in
  let i = ref 0 in
  let advance () =
    (if src.[!i] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr i
  in
  while !i < n do
    let c = src.[!i] in
    let tline = !line and tcol = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        advance ()
      done;
      let text = String.sub src start (!i - start) in
      match int_of_string_opt text with
      | Some v -> emit (Tint v) tline tcol
      | None -> fail tline tcol "integer literal out of range: %s" text
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let text = String.sub src start (!i - start) in
      match keyword text with
      | Some tok -> emit tok tline tcol
      | None -> emit (Tident text) tline tcol
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      let emit2 tok =
        emit tok tline tcol;
        advance ();
        advance ()
      in
      match two with
      | Some "==" -> emit2 Teqeq
      | Some "!=" -> emit2 Tne
      | Some "<=" -> emit2 Tle
      | Some ">=" -> emit2 Tge
      | Some "::" -> emit2 Tconscons
      | Some "&&" -> emit2 Tandand
      | Some "||" -> emit2 Toror
      | _ -> (
        let emit1 tok =
          emit tok tline tcol;
          advance ()
        in
        match c with
        | '(' -> emit1 Tlparen
        | ')' -> emit1 Trparen
        | '[' -> emit1 Tlbracket
        | ']' -> emit1 Trbracket
        | ',' -> emit1 Tcomma
        | ';' -> emit1 Tsemi
        | '=' -> emit1 Tassign
        | '<' -> emit1 Tlt
        | '>' -> emit1 Tgt
        | '+' -> emit1 Tplus
        | '-' -> emit1 Tminus
        | '*' -> emit1 Tstar
        | '/' -> emit1 Tslash
        | '%' -> emit1 Tpercent
        | _ -> fail tline tcol "unexpected character %C" c)
    end
  done;
  emit Teof !line !col;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type span = { sline : int; scol : int }

type def_spans = { def_name : string; def_span : span; call_spans : (string * span) list }

type state = {
  toks : located array;
  mutable pos : int;
  (* User-call identifier positions in textual order.  Because the grammar
     is parsed left-to-right, this order equals a left-to-right pre-order
     walk of the resulting AST's [Call] nodes — the static analyser relies
     on that to re-attach spans without storing them in the AST. *)
  mutable user_calls : (string * span) list;  (* reversed *)
}

let peek st = st.toks.(st.pos)

let next st =
  let t = st.toks.(st.pos) in
  if t.tok <> Teof then st.pos <- st.pos + 1;
  t

let expect st tok =
  let t = next st in
  if t.tok <> tok then
    fail t.tline t.tcol "expected %s but found %s" (token_label tok) (token_label t.tok)

let expect_ident st =
  let t = next st in
  match t.tok with
  | Tident name -> name
  | other -> fail t.tline t.tcol "expected an identifier but found %s" (token_label other)

(* Primitive functions callable by name: name(args). *)
let prim_by_name = function
  | "head" -> Some Ast.Head
  | "tail" -> Some Ast.Tail
  | "isnil" -> Some Ast.Is_nil
  | "min" -> Some Ast.Min
  | "max" -> Some Ast.Max
  | _ -> None

let rec parse_expr_st st =
  let t = peek st in
  match t.tok with
  | Tlet ->
    ignore (next st);
    let name = expect_ident st in
    expect st Tassign;
    let bound = parse_expr_st st in
    expect st Tin;
    let body = parse_expr_st st in
    Ast.Let (name, bound, body)
  | Tif ->
    ignore (next st);
    let cond = parse_expr_st st in
    expect st Tthen;
    let th = parse_expr_st st in
    expect st Telse;
    let el = parse_expr_st st in
    Ast.If (cond, th, el)
  | _ -> parse_or st

and parse_or st =
  let lhs = parse_and st in
  if (peek st).tok = Toror then begin
    ignore (next st);
    let rhs = parse_or st in
    Ast.Or (lhs, rhs)
  end
  else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if (peek st).tok = Tandand then begin
    ignore (next st);
    let rhs = parse_and st in
    Ast.And (lhs, rhs)
  end
  else lhs

and parse_cmp st =
  let lhs = parse_cons st in
  let op =
    match (peek st).tok with
    | Teqeq -> Some Ast.Eq
    | Tne -> Some Ast.Ne
    | Tlt -> Some Ast.Lt
    | Tle -> Some Ast.Le
    | Tgt -> Some Ast.Gt
    | Tge -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    ignore (next st);
    let rhs = parse_cons st in
    Ast.Prim (op, [ lhs; rhs ])

and parse_cons st =
  (* Gather the ::-separated operands iteratively (a deep cons chain must
     not recurse), then fold them into the right-nested AST. *)
  let rec collect acc =
    let e = parse_add st in
    if (peek st).tok = Tconscons then begin
      ignore (next st);
      collect (e :: acc)
    end
    else (e, acc)
  in
  let last, rev_init = collect [] in
  List.fold_left (fun acc e -> Ast.Prim (Ast.Cons, [ e; acc ])) last rev_init

and parse_add st =
  let rec loop lhs =
    match (peek st).tok with
    | Tplus ->
      ignore (next st);
      loop (Ast.Prim (Ast.Add, [ lhs; parse_mul st ]))
    | Tminus ->
      ignore (next st);
      loop (Ast.Prim (Ast.Sub, [ lhs; parse_mul st ]))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match (peek st).tok with
    | Tstar ->
      ignore (next st);
      loop (Ast.Prim (Ast.Mul, [ lhs; parse_unary st ]))
    | Tslash ->
      ignore (next st);
      loop (Ast.Prim (Ast.Div, [ lhs; parse_unary st ]))
    | Tpercent ->
      ignore (next st);
      loop (Ast.Prim (Ast.Mod, [ lhs; parse_unary st ]))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match (peek st).tok with
  | Tnot ->
    ignore (next st);
    Ast.Prim (Ast.Not, [ parse_unary st ])
  | Tminus ->
    ignore (next st);
    Ast.Prim (Ast.Neg, [ parse_unary st ])
  | _ -> parse_atom st

and parse_atom st =
  let t = next st in
  match t.tok with
  | Tint n -> Ast.Int n
  | Ttrue -> Ast.Bool true
  | Tfalse -> Ast.Bool false
  | Tnil -> Ast.Nil
  | Tlparen ->
    let e = parse_expr_st st in
    expect st Trparen;
    e
  | Tlbracket ->
    if (peek st).tok = Trbracket then begin
      ignore (next st);
      Ast.Nil
    end
    else begin
      (* Iterative for the same reason as [parse_cons]: a 100k-element
         literal desugars to a cons chain that deep. *)
      let rec elements acc =
        let e = parse_expr_st st in
        match (peek st).tok with
        | Tsemi | Tcomma ->
          ignore (next st);
          elements (e :: acc)
        | _ -> e :: acc
      in
      let rev_elts = elements [] in
      expect st Trbracket;
      List.fold_left (fun acc e -> Ast.Prim (Ast.Cons, [ e; acc ])) Ast.Nil rev_elts
    end
  | Tident name ->
    if (peek st).tok = Tlparen then begin
      ignore (next st);
      if prim_by_name name = None then
        st.user_calls <- (name, { sline = t.tline; scol = t.tcol }) :: st.user_calls;
      let args =
        if (peek st).tok = Trparen then []
        else begin
          let rec loop () =
            let e = parse_expr_st st in
            if (peek st).tok = Tcomma then begin
              ignore (next st);
              e :: loop ()
            end
            else [ e ]
          in
          loop ()
        end
      in
      expect st Trparen;
      match prim_by_name name with
      | Some prim ->
        if List.length args <> Ast.prim_arity prim then
          fail t.tline t.tcol "primitive %s expects %d arguments, got %d" name
            (Ast.prim_arity prim) (List.length args);
        Ast.Prim (prim, args)
      | None -> Ast.Call (name, args)
    end
    else Ast.Var name
  | other -> fail t.tline t.tcol "unexpected %s" (token_label other)

let parse_def st =
  expect st Tdef;
  let name_tok = next st in
  let name =
    match name_tok.tok with
    | Tident name -> name
    | other ->
      fail name_tok.tline name_tok.tcol "expected an identifier but found %s" (token_label other)
  in
  st.user_calls <- [];
  expect st Tlparen;
  let params =
    if (peek st).tok = Trparen then []
    else begin
      let rec loop () =
        let p = expect_ident st in
        if (peek st).tok = Tcomma then begin
          ignore (next st);
          p :: loop ()
        end
        else [ p ]
      in
      loop ()
    end
  in
  expect st Trparen;
  expect st Tassign;
  let body = parse_expr_st st in
  let spans =
    {
      def_name = name;
      def_span = { sline = name_tok.tline; scol = name_tok.tcol };
      call_spans = List.rev st.user_calls;
    }
  in
  ({ Ast.name; params; body }, spans)

let with_state src k =
  try
    let st = { toks = tokenize src; pos = 0; user_calls = [] } in
    let result = k st in
    let t = peek st in
    if t.tok <> Teof then fail t.tline t.tcol "trailing input: %s" (token_label t.tok);
    Ok result
  with Parse_error e -> Error e

let parse_expr src = with_state src parse_expr_st

let parse_defs_spanned src =
  with_state src (fun st ->
      let rec loop acc =
        if (peek st).tok = Teof then List.rev acc else loop (parse_def st :: acc)
      in
      List.split (loop []))

let parse_defs src = Result.map fst (parse_defs_spanned src)

let parse_program_spanned src =
  match parse_defs_spanned src with
  | Error e -> Error (error_to_string e)
  | Ok (defs, spans) -> (
    match Program.of_defs defs with
    | Ok p -> Ok (p, spans)
    | Error e -> Error (Program.error_to_string e))

let parse_program src = Result.map fst (parse_program_spanned src)

let parse_program_exn src =
  match parse_program src with
  | Ok p -> p
  | Error msg -> invalid_arg ("Parser.parse_program_exn: " ^ msg)
