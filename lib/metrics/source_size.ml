(** Source-size accounting for the code-size comparison (paper §3.3 vs
    §5.3: 4000 lines of C for the Charlotte run-time package against
    3600 for Chrysalis, with ~45% of the former devoted to communication
    special cases).

    We measure our own backend libraries the same way the paper measures
    its run-time packages: lines of implementation per backend.  The
    absolute numbers differ from 1986 C, but the paper's claim is
    relative, and the relative shape is what the bench checks. *)

type count = {
  files : int;
  total_lines : int;
  code_lines : int;  (** non-blank, non-comment-only lines *)
  comment_lines : int;
}

let zero = { files = 0; total_lines = 0; code_lines = 0; comment_lines = 0 }

let add a b =
  {
    files = a.files + b.files;
    total_lines = a.total_lines + b.total_lines;
    code_lines = a.code_lines + b.code_lines;
    comment_lines = a.comment_lines + b.comment_lines;
  }

(* Line classification is approximate (OCaml comments can nest and span
   lines); we track comment depth with a small scanner. *)
let count_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let total = ref 0 and code = ref 0 and comment = ref 0 in
      let depth = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr total;
           let trimmed = String.trim line in
           if String.length trimmed = 0 then ()
           else begin
             let started_in_comment = !depth > 0 in
             let has_code = ref false in
             let i = ref 0 in
             let n = String.length trimmed in
             while !i < n do
               if
                 !i + 1 < n
                 && trimmed.[!i] = '('
                 && trimmed.[!i + 1] = '*'
               then begin
                 incr depth;
                 i := !i + 2
               end
               else if
                 !i + 1 < n && trimmed.[!i] = '*' && trimmed.[!i + 1] = ')'
               then begin
                 if !depth > 0 then decr depth;
                 i := !i + 2
               end
               else begin
                 if !depth = 0 then has_code := true;
                 incr i
               end
             done;
             if !has_code && not (started_in_comment && !depth > 0 && not !has_code)
             then incr code
             else incr comment
           end
         done
       with End_of_file -> ());
      { files = 1; total_lines = !total; code_lines = !code; comment_lines = !comment })

let rec count_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> zero
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then add acc (count_dir path)
        else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
        then add acc (count_file path)
        else acc)
      zero entries

(** Walks upward from the current directory to the repository root
    (identified by [dune-project]). *)
let find_repo_root () =
  let rec up dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

(** Lines of each backend library, relative to the repo root.  [None]
    when the sources are not accessible (e.g. an installed binary). *)
let backend_sizes () =
  match find_repo_root () with
  | None -> None
  | Some root ->
    let dir name_ = Filename.concat (Filename.concat root "lib") name_ in
    Some
      (List.map
         (fun name_ -> (name_, count_dir (dir name_)))
         [ "lynx_charlotte"; "lynx_soda"; "lynx_chrysalis"; "lynx" ])

(** Our own lines per layer: each [lib/*] library, then [bin], [bench]
    and [test].  [None] when the sources are not accessible. *)
let layer_sizes () =
  match find_repo_root () with
  | None -> None
  | Some root ->
    let lib = Filename.concat root "lib" in
    let libs =
      match Sys.readdir lib with
      | exception Sys_error _ -> []
      | entries ->
        Array.to_list entries
        |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
        |> List.sort String.compare
        |> List.map (fun d -> ("lib/" ^ d, count_dir (Filename.concat lib d)))
    in
    Some
      (libs
      @ List.map
          (fun d -> (d, count_dir (Filename.concat root d)))
          [ "bin"; "bench"; "test" ])

module For_tests = struct
  let count_dir = count_dir
  let find_repo_root = find_repo_root
end
