(* The benchmark's own arithmetic: percentiles under the
   ten-samples-beyond rule, failure share, per-op division, the median
   over worker processes and the host-speed normalisation. *)

open Perfbench

let feq = Alcotest.float 1e-12
let upto n = Stat.sorted (List.init n (fun i -> float_of_int (i + 1)))

let percentiles () =
  let a = upto 1000 in
  Alcotest.check feq "p50 of 1..1000" 500. (Stat.percentile a 0.5);
  Alcotest.check feq "p99 of 1..1000" 990. (Stat.percentile a 0.99);
  Alcotest.check feq "p100 is the max" 1000. (Stat.percentile a 1.);
  Alcotest.check feq "p1 of 1..1000" 10. (Stat.percentile a 0.01);
  Alcotest.check feq "p50 of one sample" 7. (Stat.percentile [| 7. |] 0.5);
  Alcotest.check feq "unsorted input is sorted" 2. (Stat.percentile (Stat.sorted [ 3.; 1.; 2. ]) 0.5);
  Alcotest.check_raises "p outside (0, 1]" (Invalid_argument "Stat.rank: p outside (0, 1]")
    (fun () -> ignore (Stat.percentile a 0.))

let ten_beyond () =
  let ok = Alcotest.(check bool) in
  Alcotest.(check int) "990 of 1000 leaves 10 beyond p99" 10 (Stat.beyond ~n:1000 0.99);
  ok "p99 needs 1000 samples" true (Stat.reportable ~n:1000 0.99);
  ok "999 samples are too few for p99" false (Stat.reportable ~n:999 0.99);
  ok "p50 needs 20 samples" true (Stat.reportable ~n:20 0.5);
  ok "19 samples are too few for p50" false (Stat.reportable ~n:19 0.5);
  ok "p999 needs 10000 samples" true (Stat.reportable ~n:10_000 0.999);
  ok "9999 samples are too few for p999" false (Stat.reportable ~n:9_999 0.999);
  ok "no samples" false (Stat.reportable ~n:0 0.5)

let medians () =
  Alcotest.check feq "odd count" 2. (Stat.median (Stat.sorted [ 3.; 1.; 2. ]));
  Alcotest.check feq "even count averages the middle pair" 2.5
    (Stat.median (Stat.sorted [ 4.; 1.; 3.; 2. ]))

let failure_share () =
  Alcotest.check feq "none failed" 0. (Stat.failure_share ~attempted:100_000 ~failed:0);
  Alcotest.check feq "a quarter failed" 0.25 (Stat.failure_share ~attempted:8 ~failed:2);
  Alcotest.check feq "all failed" 1. (Stat.failure_share ~attempted:3 ~failed:3);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stat.failure_share: nothing attempted") (fun () ->
      ignore (Stat.failure_share ~attempted:0 ~failed:0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Stat.failure_share: failed outside [0, attempted]") (fun () ->
      ignore (Stat.failure_share ~attempted:2 ~failed:3))

let per_op () =
  Alcotest.check feq "words per op" 1177.05 (Stat.per_op 117_705_000. ~ops:100_000);
  Alcotest.check_raises "zero ops" (Invalid_argument "Stat.per_op: no operations") (fun () ->
      ignore (Stat.per_op 1. ~ops:0));
  Alcotest.check feq "ratio" 0.5 (Stat.ratio 1 ~base:2);
  Alcotest.check feq "ratio over an empty base" 0. (Stat.ratio 5 ~base:0)

(* An untraced run reports the median over its worker processes. *)
let worker_medians () =
  let f = Alcotest.float 1e-9 in
  let rates =
    List.map (fun (ops, s) -> Stat.rate ~ops ~seconds:s) [ (210, 0.012); (210, 0.0105); (210, 0.011); (210, 0.0125) ]
  in
  Alcotest.check f "median of four worker rates" (((210. /. 0.012) +. (210. /. 0.011)) /. 2.)
    (Stat.median (Stat.sorted rates));
  Alcotest.check_raises "no time measured" (Invalid_argument "Stat.rate: no time measured") (fun () ->
      ignore (Stat.rate ~ops:1 ~seconds:0.));
  Alcotest.check f "paper error" 0.4736842105 (Stat.err_pct ~paper:57. 57.27)

let normalisation () =
  let f = Alcotest.float 1e-9 in
  let at = Stat.at_reference ~ref_s:0.5 in
  Alcotest.check f "reference-speed host" 2. (at ~exponent:1. ~work_s:2. ~probe_s:0.5);
  (* A host running everything 1.3x slower stretches work and probe
     alike: the normalised time does not move. *)
  Alcotest.check f "slow host cancels" 2. (at ~exponent:1. ~work_s:2.6 ~probe_s:0.65);
  Alcotest.check f "faster code on the same host shows" 1.
    (at ~exponent:1. ~work_s:1.3 ~probe_s:0.65);
  (* With exponent 1.5 a host 1.21x slower for the probe is 1.331x
     slower for the work. *)
  Alcotest.check f "exponent 1.5 cancels" 2. (at ~exponent:1.5 ~work_s:2.662 ~probe_s:0.605);
  Alcotest.check f "exponent 1.5 at reference speed" 2. (at ~exponent:1.5 ~work_s:2. ~probe_s:0.5);
  Alcotest.check_raises "no probe ticks"
    (Invalid_argument "Stat.at_reference: probe times must be positive") (fun () ->
      ignore (at ~exponent:1.5 ~work_s:1. ~probe_s:0.))

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond;
          Alcotest.test_case "medians" `Quick medians;
          Alcotest.test_case "failure share" `Quick failure_share;
          Alcotest.test_case "per-op division" `Quick per_op;
          Alcotest.test_case "worker medians" `Quick worker_medians;
          Alcotest.test_case "host-speed normalisation" `Quick normalisation;
        ] );
    ]
