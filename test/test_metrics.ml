(* Tests for the metrics library: source-size accounting and report
   helpers. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let with_temp_dir f =
  let dir = Filename.temp_file "metrics_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

let write_file dir name contents =
  let oc = open_out (Filename.concat dir name) in
  output_string oc contents;
  close_out oc

let source_tests =
  [
    Alcotest.test_case "counts code and comment lines" `Quick (fun () ->
        with_temp_dir (fun dir ->
            write_file dir "a.ml"
              "(* a comment *)\nlet x = 1\n\nlet y = 2 (* trailing *)\n";
            let c = Metrics.Source_size.count_dir dir in
            checki "files" 1 c.Metrics.Source_size.files;
            checki "total" 4 c.Metrics.Source_size.total_lines;
            (* Two code lines; the blank line counts as neither. *)
            checki "code" 2 c.Metrics.Source_size.code_lines));
    Alcotest.test_case "multi-line comments counted as comments" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            write_file dir "b.ml" "(* line one\n   line two\n   line three *)\nlet z = 3\n";
            let c = Metrics.Source_size.count_dir dir in
            checki "code" 1 c.Metrics.Source_size.code_lines;
            checki "comments" 3 c.Metrics.Source_size.comment_lines));
    Alcotest.test_case "non-OCaml files ignored" `Quick (fun () ->
        with_temp_dir (fun dir ->
            write_file dir "c.ml" "let a = 1\n";
            write_file dir "README.md" "lots\nof\nlines\n";
            let c = Metrics.Source_size.count_dir dir in
            checki "files" 1 c.Metrics.Source_size.files));
    Alcotest.test_case "recurses into subdirectories" `Quick (fun () ->
        with_temp_dir (fun dir ->
            Unix.mkdir (Filename.concat dir "sub") 0o755;
            write_file dir "top.ml" "let a = 1\n";
            write_file (Filename.concat dir "sub") "deep.ml" "let b = 2\n";
            let c = Metrics.Source_size.count_dir dir in
            checki "files" 2 c.Metrics.Source_size.files));
    Alcotest.test_case "missing directory is zero" `Quick (fun () ->
        let c = Metrics.Source_size.count_dir "/nonexistent/path/xyz" in
        checki "files" 0 c.Metrics.Source_size.files);
    Alcotest.test_case "backend_sizes finds this repository" `Quick (fun () ->
        match Metrics.Source_size.backend_sizes () with
        | None -> Alcotest.fail "repo root not found"
        | Some sizes ->
          checki "four libraries" 4 (List.length sizes);
          List.iter
            (fun (name, c) ->
              checkb
                (Printf.sprintf "%s has code" name)
                true
                (c.Metrics.Source_size.code_lines > 50))
            sizes;
          (* The paper's relative claim: the Charlotte runtime is the
             largest of the three backends. *)
          let get n = (List.assoc n sizes).Metrics.Source_size.code_lines in
          checkb "charlotte is biggest backend" true
            (get "lynx_charlotte" > get "lynx_soda"
            && get "lynx_charlotte" > get "lynx_chrysalis"));
    Alcotest.test_case "layer_sizes partitions lib" `Quick (fun () ->
        match
          (Metrics.Source_size.layer_sizes (), Metrics.Source_size.find_repo_root ())
        with
        | Some layers, Some root ->
          let module SS = Metrics.Source_size in
          let libs =
            List.filter
              (fun (name, _) -> String.length name > 4 && String.sub name 0 4 = "lib/")
              layers
          in
          checkb "has the sim layer" true (List.mem_assoc "lib/sim" libs);
          checkb "ends with bin, bench, test" true
            (List.map fst (List.filter (fun l -> not (List.memq l libs)) layers)
            = [ "bin"; "bench"; "test" ]);
          let sum = List.fold_left (fun a (_, c) -> SS.add a c) SS.zero libs in
          checkb "lib layers sum to count_dir lib" true
            (sum = SS.count_dir (Filename.concat root "lib"))
        | _ -> Alcotest.fail "repo root not found");
  ]

let report_tests =
  [
    Alcotest.test_case "within tolerance" `Quick (fun () ->
        checkb "inside" true (Metrics.Report.within ~pct:10. ~paper:100. ~measured:105.);
        checkb "outside" false
          (Metrics.Report.within ~pct:10. ~paper:100. ~measured:120.);
        checkb "zero paper zero measured" true
          (Metrics.Report.within ~pct:10. ~paper:0. ~measured:0.));
    Alcotest.test_case "vs_paper formats deviation" `Quick (fun () ->
        let s = Metrics.Report.vs_paper ~paper:50. ~measured:55. in
        checkb "has +10%" true
          (String.length s > 0
          &&
          let rec contains i =
            i + 3 <= String.length s
            && (String.sub s i 3 = "+10" || contains (i + 1))
          in
          contains 0));
    Alcotest.test_case "ms and ratio format" `Quick (fun () ->
        Alcotest.check Alcotest.string "ms" "57.24 ms" (Metrics.Report.ms 57.239);
        Alcotest.check Alcotest.string "ratio" "3.02x" (Metrics.Report.ratio 3.021));
  ]

let () =
  Alcotest.run "metrics"
    [ ("source_size", source_tests); ("report", report_tests) ]
