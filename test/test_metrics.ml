(* Tests for the metrics library: source-size accounting, report
   helpers, the paper-claims registry and the allocation ladder
   (test/budgets.ml), and the documents that quote their output. *)

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
            let c = Metrics.Source_size.For_tests.count_dir dir in
            checki "files" 1 c.Metrics.Source_size.files;
            checki "total" 4 c.Metrics.Source_size.total_lines;
            (* Two code lines; the blank line counts as neither. *)
            checki "code" 2 c.Metrics.Source_size.code_lines));
    Alcotest.test_case "multi-line comments counted as comments" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            write_file dir "b.ml" "(* line one\n   line two\n   line three *)\nlet z = 3\n";
            let c = Metrics.Source_size.For_tests.count_dir dir in
            checki "code" 1 c.Metrics.Source_size.code_lines;
            checki "comments" 3 c.Metrics.Source_size.comment_lines));
    Alcotest.test_case "non-OCaml files ignored" `Quick (fun () ->
        with_temp_dir (fun dir ->
            write_file dir "c.ml" "let a = 1\n";
            write_file dir "README.md" "lots\nof\nlines\n";
            let c = Metrics.Source_size.For_tests.count_dir dir in
            checki "files" 1 c.Metrics.Source_size.files));
    Alcotest.test_case "recurses into subdirectories" `Quick (fun () ->
        with_temp_dir (fun dir ->
            Unix.mkdir (Filename.concat dir "sub") 0o755;
            write_file dir "top.ml" "let a = 1\n";
            write_file (Filename.concat dir "sub") "deep.ml" "let b = 2\n";
            let c = Metrics.Source_size.For_tests.count_dir dir in
            checki "files" 2 c.Metrics.Source_size.files));
    Alcotest.test_case "missing directory is zero" `Quick (fun () ->
        let c = Metrics.Source_size.For_tests.count_dir "/nonexistent/path/xyz" in
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
          (Metrics.Source_size.layer_sizes (), Metrics.Source_size.For_tests.find_repo_root ())
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
            (sum = SS.For_tests.count_dir (Filename.concat root "lib"))
        | _ -> Alcotest.fail "repo root not found");
  ]

(* A planted tree: lib/a has an interface with every kind of offender
   and one good export; lib/b has no interface and one dead top-level.
   Only the planted offenders may be reported. *)
let plant root =
  let dir path = Unix.mkdir (Filename.concat root path) 0o755 in
  List.iter dir [ "lib"; "lib/a"; "lib/b"; "bin"; "test" ];
  write_file root "lib/a/a.mli"
    "val unread : int\nval own_only : int\nval in_comment : int\nval in_string : int\n\
     val used : int\n\
     module For_tests : sig\n  val hook : int\n  val unhooked : int\n  val leaked : int\nend\n";
  write_file root "lib/a/a.ml" "let own_only = 1\nlet x = own_only\n";
  write_file root "lib/b/b.ml"
    "let dead = 1\nlet live = 2\nlet user = live\n\
     type t = A\nand u = B\n\
     module For_tests = struct\n  let probe = 3\nend\n";
  write_file root "bin/main.ml"
    "(* in_comment (* nested *) *)\nlet s = \"in_string\" ^ {|used|}\n\
     let () = ignore (A.used, B.user, A.For_tests.leaked)\n";
  write_file root "test/t.ml"
    "let () = ignore (A.For_tests.hook, A.For_tests.leaked, B.For_tests.probe)\n"

let reader_tests =
  [
    Alcotest.test_case "every export has a reader" `Quick (fun () ->
        match Metrics.Source_size.For_tests.find_repo_root () with
        | None -> Alcotest.fail "repo root not found"
        | Some root -> (
          match Readers.offenders root with
          | [] -> ()
          | names ->
            Alcotest.failf "%d exports have no reader:\n%s" (List.length names)
              (String.concat "\n" names)));
    Alcotest.test_case "the reader check reports exactly the planted offenders" `Quick
      (fun () ->
        with_temp_dir (fun root ->
            plant root;
            Alcotest.(check (list string))
              "offenders"
              [
                "lib/a/a.mli in_comment";
                "lib/a/a.mli in_string";
                "lib/a/a.mli leaked";
                "lib/a/a.mli own_only";
                "lib/a/a.mli unhooked";
                "lib/a/a.mli unread";
                "lib/b/b.ml dead";
              ]
              (Readers.offenders root)));
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

let read file =
  match Metrics.Source_size.For_tests.find_repo_root () with
  | None -> Alcotest.fail "repo root not found"
  | Some root -> In_channel.with_open_bin (Filename.concat root file) In_channel.input_all

let contains s sub =
  try ignore (Str.search_forward (Str.regexp_string sub) s 0); true with Not_found -> false

(* The text between a document's [name] markers: a registry's output,
   pasted verbatim. *)
let block name file =
  let s = read file and first = "<!-- " ^ name ^ ":begin -->\n" in
  let start = Str.search_forward (Str.regexp_string first) s 0 + String.length first in
  let stop = Str.search_forward (Str.regexp_string ("<!-- " ^ name ^ ":end -->")) s start in
  String.sub s start (stop - start)

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
        let holds paper v =
          let c = { (List.hd C.all) with expect = C.Within (paper, 10.); measure = (fun () -> C.Value v) } in
          (C.check c).C.ok
        in
        checkb "inside" true (holds 100. 105.);
        checkb "outside" false (holds 100. 120.);
        checkb "zero paper zero measured" true (holds 0. 0.));
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
              (Lazy.force rendered) (block "claims" file)))
      [ "EXPERIMENTS.md"; "README.md" ]

module B = Budgets

let fails f = match f () with () -> false | exception _ -> true

let rung_tests =
  [
    Alcotest.test_case "rung ids are unique and each is read by its suite" `Quick (fun () ->
        let ids = List.map (fun r -> r.B.id) B.rungs in
        checki "distinct ids" (List.length ids) (List.length (List.sort_uniq String.compare ids));
        List.iter
          (fun (r : B.rung) ->
            checkb (r.suite ^ " reads " ^ r.id) true
              (contains (read ("test/" ^ r.suite ^ ".ml")) ("\"" ^ r.id ^ "\"")))
          B.rungs);
    Alcotest.test_case "a rung applies its own gate" `Quick (fun () ->
        B.check "analysers.finish.n4k" ~base:100. 102.;
        checkb "past the slack" true (fails (fun () -> B.check "analysers.finish.n4k" ~base:100. 102.1));
        checkb "exact" true (fails (fun () -> B.check "engine.emit" 1.));
        checkb "unknown id" true (fails (fun () -> B.check "no.such.rung" 0.)));
    Alcotest.test_case "EXPERIMENTS.md rungs block is the registry's table" `Quick
      (fun () ->
        let table = B.markdown ~ceilings:(read "bench/perf_ceilings.tsv") in
        if block "rungs" "EXPERIMENTS.md" <> table then
          Alcotest.failf
            "EXPERIMENTS.md's rungs block differs from test/budgets.ml and \
             bench/perf_ceilings.tsv; paste this between its markers:\n%s"
            table);
  ]

let () =
  Alcotest.run "metrics"
    [ ("source_size", source_tests); ("readers", reader_tests); ("report", report_tests);
      ("claims", claims_tests);
      ("rungs", rung_tests) ]
