(* JSON subset checker for lynx_sim's --json artifacts.

   usage:  compare.exe --check FILE [SCHEMA]

   Parses FILE and, when SCHEMA is given, asserts that its top-level
   "schema" field matches; exits 0 on success, 1 on a schema mismatch
   and 2 on an unreadable or malformed file or a bad command line, each
   with one line on stderr.  CI runs it over every artifact the CLI
   writes.

   The parser covers exactly the JSON subset the artifacts use
   (objects, strings, numbers) so the repo needs no JSON dependency. *)

type json = Num of float | Str of string | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> pos := !pos + 4 (* dropped: control characters only *)
        | c -> Buffer.add_char buf c);
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '"' -> Str (string_lit ())
    | Some ('-' | '0' .. '9') -> Num (number ())
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws ();
        let k = string_lit () in
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          fields ((k, v) :: acc)
        | Some '}' ->
          incr pos;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}'"
      in
      Obj (fields [])
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let read_json path =
  let fail reason =
    Printf.eprintf "%s: %s\n" path reason;
    exit 2
  in
  let s =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      (* [msg] usually already starts with the path. *)
      let prefix = path ^ ": " in
      fail
        (if String.starts_with ~prefix msg then
           String.sub msg (String.length prefix)
             (String.length msg - String.length prefix)
         else msg)
  in
  try parse s with Parse_error msg -> fail msg

(* Asserts FILE is well-formed and, when SCHEMA is given, that its
   top-level "schema" field matches.  lynx_sim's --json output stays
   inside this parser's subset by construction; CI pins that with
   `--check repro.json lynx-run/1`. *)
let check path schema =
  match (read_json path, schema) with
  | _, None -> Printf.printf "%s: parses\n" path
  | Obj fields, Some want -> (
    match List.assoc_opt "schema" fields with
    | Some (Str got) when got = want ->
      Printf.printf "%s: parses, schema %s\n" path got
    | Some (Str got) ->
      Printf.eprintf "%s: schema %S, wanted %S\n" path got want;
      exit 1
    | _ ->
      Printf.eprintf "%s: no schema field\n" path;
      exit 1)
  | _, Some _ ->
    Printf.eprintf "%s: top level is not an object\n" path;
    exit 1

let () =
  match Sys.argv with
  | [| _; "--check"; f |] -> check f None
  | [| _; "--check"; f; schema |] -> check f (Some schema)
  | _ ->
    prerr_endline "usage: compare.exe --check FILE [SCHEMA]";
    exit 2
