(* The "every export has a reader" check.  A name is read when it
   appears as a whole word in a source file once its comments (nested,
   with the strings inside them) and its string literals are blanked.
   Three rules:
   1. every [val] of a [lib/*/*.mli] is read outside its own module (its
      [.ml] and [.mli]) in lib, bin, bench, perfbench or examples;
   2. every top-level [let]/[and] of a [lib/*/*.ml] with no [.mli] is
      read there somewhere other than its own definition; its own
      module counts;
   3. a name inside a [For_tests] submodule of module [M] is exempt
      from both: test must read it, and no file of lib, bin, bench,
      perfbench or examples outside [M] may name [M.For_tests] and it.
   Matching bare words, the check can miss a name that another module
   also uses; it never flags a name that has a reader. *)

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* [s] with its comments, string literals and character literals
   blanked; newlines stay, so columns still hold. *)
let strip s =
  let n = String.length s and b = Bytes.of_string s in
  let blank i j =
    for k = i to min j n - 1 do
      if s.[k] <> '\n' then Bytes.set b k ' '
    done
  in
  let rec string_end i =
    if i >= n then n
    else match s.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  (* [{id|...|id}], when the brace at [i] opens one. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do incr j done;
    if !j >= n || s.[!j] <> '|' then None
    else
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then n else if String.sub s k m = close then k + m else find (k + 1)
      in
      Some (find (!j + 1))
  in
  let char_end i =
    if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && s.[i + 1] = '\\' then
      let rec find k =
        if k >= min n (i + 6) then None else if s.[k] = '\'' then Some (k + 1) else find (k + 1)
      in
      find (i + 3)
    else None
  in
  let rec comment_end i depth =
    if i + 1 >= n then n
    else if s.[i] = '(' && s.[i + 1] = '*' then comment_end (i + 2) (depth + 1)
    else if s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if s.[i] = '"' then comment_end (string_end (i + 1)) depth
    else if s.[i] = '\'' then comment_end (Option.value (char_end i) ~default:(i + 1)) depth
    else comment_end (i + 1) depth
  in
  let rec go i =
    if i < n then
      let skip j = blank i j; go j in
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> skip (comment_end (i + 2) 1)
      | '"' -> skip (string_end (i + 1))
      | '{' -> (match quoted_end i with Some j -> skip j | None -> go (i + 1))
      | '\'' when i = 0 || not (is_ident s.[i - 1]) -> (
        match char_end i with Some j -> skip j | None -> go (i + 1))
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string b

(* The words of a stripped text, each with its offset and column. *)
let words t =
  let n = String.length t in
  let rec go i col acc =
    if i >= n then List.rev acc
    else if t.[i] = '\n' then go (i + 1) 0 acc
    else if is_ident t.[i] then begin
      let j = ref i in
      while !j < n && is_ident t.[!j] do incr j done;
      go !j (col + !j - i) ((String.sub t i (!j - i), i, col) :: acc)
    end
    else go (i + 1) (col + 1) acc
  in
  go 0 0 []

let lowercase_name w =
  w <> "" && w <> "_" && match w.[0] with 'a' .. 'z' | '_' -> true | _ -> false

(* The name a [val], [let] or [and] at [i] defines: the next word,
   past attributes and [rec]; [None] for an operator or a pattern. *)
let defined_name t i =
  let n = String.length t in
  let rec skip i =
    if i < n && (t.[i] = ' ' || t.[i] = '\n') then skip (i + 1)
    else if i < n && t.[i] = '[' then skip (try String.index_from t i ']' + 1 with Not_found -> n)
    else i
  in
  let word i =
    let j = ref i in
    while !j < n && is_ident t.[!j] do incr j done;
    (String.sub t i (!j - i), !j)
  in
  let w, j = word (skip i) in
  let w = if w = "rec" then fst (word (skip j)) else w in
  if lowercase_name w then Some w else None

(* The definitions of one stripped file, each with whether it sits in a
   [For_tests] submodule: every [val] of an interface, or every
   top-level [let]/[and] of an implementation (column 0, or one indent
   inside a top-level [For_tests]). *)
let definitions ~interface t =
  let rec go ws stack pending last acc =
    match ws with
    | [] -> List.rev acc
    | (w, i, col) :: rest -> (
      let in_tests = match stack with ft :: _ -> ft | [] -> false in
      let here = col = 2 * List.length stack in
      (* The keyword of the definition an [and] continues. *)
      let next = if here && w <> "and" then w else last in
      match w with
      | "sig" | "struct" | "begin" | "object" ->
        go rest ((pending || in_tests) :: stack) false next acc
      | "end" -> go rest (match stack with _ :: s -> s | [] -> []) false next acc
      | "For_tests" -> go rest stack true next acc
      | "val" when interface -> add rest stack next acc i in_tests
      | ("let" | "and")
        when (not interface) && here && (stack = [] || in_tests) && next = "let" ->
        add rest stack next acc i in_tests
      | _ -> go rest stack false next acc)
  and add rest stack last acc i in_tests =
    let acc = match defined_name t (i + 3) with Some w -> (w, in_tests) :: acc | None -> acc in
    go rest stack false last acc
  in
  go (words t) [] false "" []

type file = { path : string; owner : string; text : string; count : string -> int }

let read_file root path =
  let text = strip (In_channel.with_open_bin (Filename.concat root path) In_channel.input_all) in
  let tbl = Hashtbl.create 256 in
  let count w = Option.value (Hashtbl.find_opt tbl w) ~default:0 in
  List.iter (fun (w, _, _) -> Hashtbl.replace tbl w (count w + 1)) (words text);
  { path; owner = Filename.remove_extension path; text; count }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Every [.ml]/[.mli] under [root/dir], as paths relative to [root]. *)
let rec sources root dir =
  match Sys.readdir (Filename.concat root dir) with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries |> List.sort String.compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if e.[0] = '.' || e = "_build" then []
           else if Sys.is_directory (Filename.concat root p) then sources root p
           else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then [ p ]
           else [])

(* The offenders under [root], one ["path name"] each, sorted. *)
let offenders root =
  let load dirs = List.map (read_file root) (List.concat_map (sources root) dirs) in
  let prod = load [ "lib"; "bin"; "bench"; "perfbench"; "examples" ] in
  let tests = load [ "test" ] in
  let read_by files w = List.exists (fun f -> f.count w > 0) files in
  let has_mli f = Sys.file_exists (Filename.concat root (f.owner ^ ".mli")) in
  List.concat_map
    (fun f ->
      let interface = Filename.check_suffix f.path ".mli" in
      if not (String.starts_with ~prefix:"lib/" f.path && (interface || not (has_mli f))) then []
      else
        let others = List.filter (fun g -> g.owner <> f.owner) prod in
        let hooks = String.capitalize_ascii (Filename.basename f.owner) ^ ".For_tests" in
        definitions ~interface f.text
        |> List.filter (fun (w, in_tests) ->
               if in_tests then
                 (not (read_by tests w))
                 || List.exists (fun g -> contains g.text hooks && g.count w > 0) others
               else if interface then not (read_by others w)
               else f.count w + List.fold_left (fun a g -> a + g.count w) 0 others <= 1)
        |> List.map (fun (w, _) -> f.path ^ " " ^ w))
    prod
  |> List.sort_uniq String.compare
