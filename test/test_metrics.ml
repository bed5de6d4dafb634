(* Tests for the metrics library: source-size accounting, report
   helpers, and the paper-claims registry and the documents that quote
   its output. *)

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
    Alcotest.test_case "ms and ratio format" `Quick (fun () ->
        Alcotest.check Alcotest.string "ms" "57.24 ms" (Metrics.Report.ms 57.239);
        Alcotest.check Alcotest.string "ratio" "3.02x" (Metrics.Report.ratio 3.021));
  ]

module C = Metrics.Claims

(* The registry rendered once; both documents are compared with it. *)
let rendered = lazy (C.markdown (List.map C.check C.all))

(* The text between a document's claims markers: `lynx_sim claims`'
   output, pasted verbatim. *)
let claims_block file =
  match Metrics.Source_size.find_repo_root () with
  | None -> Alcotest.fail "repo root not found"
  | Some root ->
    let s = In_channel.with_open_bin (Filename.concat root file) In_channel.input_all in
    let first = "<!-- claims:begin -->\n" in
    let start = Str.search_forward (Str.regexp_string first) s 0 + String.length first in
    String.sub s start (Str.search_forward (Str.regexp_string "<!-- claims:end -->") s start - start)

let claims_tests =
  [
    Alcotest.test_case "the registry holds the paper's 13 claims" `Quick (fun () ->
        Alcotest.(check (list string))
          "ids"
          [
            "E1.lynx-0B"; "E1.lynx-1000B"; "E1.raw-0B"; "E1.raw-1000B";
            "E3.soda-speedup"; "E3.crossover";
            "E4.lynx-0B"; "E4.lynx-1000B"; "E4.vs-charlotte";
            "A1.ack-traffic"; "A4.tuning"; "A5.budget"; "A5.naive-starves";
          ]
          C.ids);
    Alcotest.test_case "a band holds within its tolerance" `Quick (fun () ->
        checkb "inside" true (C.holds (C.Within (100., 10.)) (C.Value 105.));
        checkb "outside" false (C.holds (C.Within (100., 10.)) (C.Value 120.));
        checkb "zero paper zero measured" true (C.holds (C.Within (0., 10.)) (C.Value 0.)));
    Alcotest.test_case "claim ids are unique" `Quick (fun () ->
        checki "distinct ids" (List.length C.ids)
          (List.length (List.sort_uniq String.compare C.ids)));
    Alcotest.test_case "a band claim's row shows its deviation" `Quick (fun () ->
        let c =
          { (List.hd C.all) with expect = C.Within (50., 10.); measure = (fun () -> C.Value 54.) }
        in
        Alcotest.(check (list string)) "cells"
          [ c.id; "3.3"; c.what; "50 ms +/-10%"; "54.00 ms (+8.0%)"; "ok" ]
          (C.cells (C.check c)));
  ]
  @ List.map
      (fun file ->
        Alcotest.test_case (file ^ " claims block is the registry's output") `Quick
          (fun () ->
            Alcotest.(check string)
              (file ^ " (regenerate with: dune exec bin/lynx_sim.exe -- claims)")
              (Lazy.force rendered) (claims_block file)))
      [ "EXPERIMENTS.md"; "README.md" ]

let () =
  Alcotest.run "metrics"
    [ ("source_size", source_tests); ("report", report_tests); ("claims", claims_tests) ]
