type t = Num of string | Str of string | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec add buf indent = function
  | Num n -> Buffer.add_string buf n
  | Str s -> Printf.bprintf buf "\"%s\"" (escape s)
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    let inner = indent ^ "  " in
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        Printf.bprintf buf "%s\n%s\"%s\": " (if i > 0 then "," else "") inner
          (escape k);
        add buf inner v)
      fields;
    Printf.bprintf buf "\n%s}" indent

let int n = Num (string_of_int n)

let indexed render items =
  Obj (List.mapi (fun i x -> (string_of_int i, Str (render x))) items)

let document fields = Obj (("schema", Str "lynx-run/1") :: fields)

let to_string v =
  let buf = Buffer.create 4096 in
  add buf "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf
