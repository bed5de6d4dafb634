(* The population workload layer (lib/harness/workload) and the
   bounded histogram behind its latency summaries (Stats.Histogram).

   The histogram is differentially tested against Stats.Series — the
   exact keep-everything oracle sharing the same nearest-rank formula —
   under QCheck-driven observation sets: any quantile it reports must
   sit at or above the exact answer by at most one part in 64 (the
   log-linear bucket width), merge must be a partition-invariant
   commutative monoid, and min/max/count/mean stay exact.  The
   workloads themselves are pinned for determinism across shard counts
   and job counts, and the [Run.check] pre-flight is exercised on every
   mis-parameterisation the CLI promises to reject with one line. *)

open Sim
module H = Stats.Histogram
module Spec = Run.Spec

let time = Alcotest.testable Time.pp (fun a b -> Time.equal a b)

(* ---- histogram vs exact-series differential --------------------------- *)

(* Histogram quantiles report the bucket's upper bound (clamped to the
   exact max), so they never under-report; the bucket is at most 1/64
   relative-wide, so they over-report by at most [exact/64] (and never
   past the exact max). *)
let check_quantile ~what exact_ns reported_ns =
  let slack = Stdlib.max 1 (exact_ns asr 6) in
  if reported_ns < exact_ns || reported_ns - exact_ns > slack then
    Alcotest.failf "%s: exact %dns, histogram %dns (slack %dns)" what
      exact_ns reported_ns slack

let check_against_series values =
  let series = Stats.Series.create () in
  let h = H.create () in
  List.iter
    (fun v ->
      Stats.Series.add series (Time.ns v);
      H.add h (Time.ns v))
    values;
  Alcotest.(check int) "count" (Stats.Series.count series) (H.count h);
  if values <> [] then begin
    Alcotest.check time "min exact" (Stats.Series.min series) (H.min h);
    Alcotest.check time "max exact" (Stats.Series.max series) (H.max h);
    Alcotest.check time "mean exact" (Stats.Series.mean series) (H.mean h);
    let s = Option.get (H.summary h) in
    List.iter
      (fun (p, reported) ->
        check_quantile
          ~what:(Printf.sprintf "p%g over %d obs" (p *. 100.) (List.length values))
          (Time.to_ns (Stats.Series.percentile series p))
          (Time.to_ns reported))
      [ (0.5, s.H.h_p50); (0.99, s.H.h_p99); (0.999, s.H.h_p999) ]
  end

let obs_gen =
  (* Mixed magnitudes: sub-bucket exact values, µs/ms/s-scale, and the
     octave boundaries where bucket rounding is sharpest. *)
  QCheck2.Gen.(
    list_size (int_bound 400)
      (oneof
         [
           int_bound 63;
           int_bound 100_000;
           map (fun n -> 1_000_000 + n) (int_bound 100_000_000);
           map (fun k -> (1 lsl (6 + (k mod 40))) - 1) nat;
           map (fun k -> 1 lsl (6 + (k mod 40))) nat;
         ]))

let test_histogram_vs_series =
  QCheck2.Test.make ~count:300 ~name:"histogram quantiles track the series"
    obs_gen
    (fun values ->
      check_against_series values;
      true)
  |> QCheck_alcotest.to_alcotest

let test_histogram_empty () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (option reject)) "empty summary" None (H.summary h);
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Stats.Histogram: empty histogram") (fun () ->
      ignore (H.mean h));
  Alcotest.check_raises "negative observation"
    (Invalid_argument "Stats.Histogram: negative observation") (fun () ->
      H.add h (Time.ns (-1)))

let test_histogram_singleton () =
  let h = H.create () in
  H.add h (Time.us 123);
  match H.summary h with
  | None -> Alcotest.fail "singleton summary missing"
  | Some s ->
    Alcotest.(check int) "count" 1 s.H.h_count;
    Alcotest.check time "min" (Time.us 123) s.H.h_min;
    Alcotest.check time "max" (Time.us 123) s.H.h_max;
    Alcotest.check time "mean" (Time.us 123) s.H.h_mean;
    (* Every quantile of a singleton is clamped to the exact max. *)
    Alcotest.check time "p50" (Time.us 123) s.H.h_p50;
    Alcotest.check time "p999" (Time.us 123) s.H.h_p999

(* Merge must be partition-invariant: however a value stream is split
   across shards, the merged histogram is structurally equal to the
   single-shard one (this is what makes the latency summary identical
   at every --shards and -j). *)
let test_histogram_merge =
  QCheck2.Test.make ~count:300 ~name:"merge is partition-invariant"
    QCheck2.Gen.(pair obs_gen (int_range 1 5))
    (fun (values, k) ->
      let whole = H.create () in
      let parts = Array.init k (fun _ -> H.create ()) in
      List.iteri
        (fun i v ->
          H.add whole (Time.ns v);
          H.add parts.(i mod k) (Time.ns v))
        values;
      let merged = Array.fold_left H.merge (H.create ()) parts in
      let backwards =
        Array.fold_left (fun acc h -> H.merge h acc) (H.create ()) parts
      in
      Alcotest.(check bool)
        "merged summary = whole summary" true
        (H.summary merged = H.summary whole);
      Alcotest.(check bool)
        "merge order irrelevant" true
        (H.summary backwards = H.summary whole);
      true)
  |> QCheck_alcotest.to_alcotest

(* ---- spec round-trip with the population axis ------------------------- *)

let test_population_strings () =
  List.iter
    (fun (n, s) ->
      Alcotest.(check string)
        (Printf.sprintf "to_string %d" n)
        s
        (Spec.population_to_string n);
      Alcotest.(check (option int))
        (Printf.sprintf "of_string %s" s)
        (Some n)
        (Spec.population_of_string s))
    [
      (1, "1"); (24, "24"); (999, "999"); (1000, "1K"); (96_000, "96K");
      (100_000, "100K"); (1_500_000, "1500K"); (1_000_000, "1M");
      (2_000_000, "2M");
    ];
  List.iter
    (fun s ->
      Alcotest.(check (option int))
        (Printf.sprintf "reject %S" s)
        None
        (Spec.population_of_string s))
    [ ""; "0"; "-3"; "5X"; "K"; "x1K" ]

let test_spec_roundtrip_population () =
  List.iter
    (fun str ->
      match Spec.of_string str with
      | Error e -> Alcotest.failf "%s did not parse: %s" str e
      | Ok spec ->
        Alcotest.(check string) "canonical" str (Spec.to_string spec))
    [
      "wl-farm/chrysalis/1/fifo~n100K";
      "wl-farm-open/soda/2/fifo~n1M~s4";
      "wl-tree/charlotte/3/random~n24";
      "wl-ring/chrysalis/4/fifo@mix~n96K~s2";
    ];
  (* The retired [~trace] suffix no longer parses. *)
  match Spec.of_string "wl-tree/charlotte/3/random~n24~trace" with
  | Ok _ -> Alcotest.fail "~trace must be rejected"
  | Error _ -> ()

(* ---- Run.check: one-line rejection of mis-parameterised specs --------- *)

let test_check_errors () =
  let contains msg frag =
    let n = String.length msg and m = String.length frag in
    let rec go i = i + m <= n && (String.sub msg i m = frag || go (i + 1)) in
    go 0
  in
  let reject spec frag =
    match Run.check spec with
    | Ok () -> Alcotest.failf "%s unexpectedly passed" (Spec.to_string spec)
    | Error msg ->
      if not (contains msg frag) then
        Alcotest.failf "%s: %S does not mention %S" (Spec.to_string spec)
          msg frag
  in
  reject
    (Spec.v ~population:100 ~scenario:"move" ~backend:"soda" 1)
    "not parameterised";
  reject (Spec.v ~scenario:"no-such" ~backend:"soda" 1) "unknown scenario";
  reject (Spec.v ~scenario:"wl-farm" ~backend:"no-such" 1) "unknown backend";
  reject
    (Spec.v ~scenario:"hint-repair" ~backend:"charlotte" 1)
    "does not apply";
  (* Populations past the arithmetic bound: one that overflows while
     being multiplied out fails to parse, and one that fits in an int
     but not in the workload's cell arithmetic fails the check. *)
  let reject_str str frag =
    match Spec.of_string str with
    | Error msg ->
      if not (contains msg frag) then
        Alcotest.failf "%s: %S does not mention %S" str msg frag
    | Ok spec -> reject spec frag
  in
  reject_str "wl-farm/soda/1/fifo~n9999999999999M" "bad population";
  reject_str "wl-farm/soda/1/fifo~n4611686018427387903" "exceeds the maximum";
  reject_str "wl-farm/soda/1/fifo~n1001M" "exceeds the maximum";
  Alcotest.(check (result unit string))
    "population at the bound passes" (Ok ())
    (Run.check
       (Spec.v ~population:Harness.Workload.max_population ~scenario:"wl-farm"
          ~backend:"soda" 1));
  Alcotest.(check (result unit string))
    "parameterised spec passes" (Ok ())
    (Run.check (Spec.v ~population:48 ~scenario:"wl-farm" ~backend:"soda" 1));
  Alcotest.(check (result unit string))
    "population-less workload passes" (Ok ())
    (Run.check (Spec.v ~scenario:"wl-tree" ~backend:"chrysalis" 1));
  Alcotest.check_raises "run_outcome raises on misuse"
    (Invalid_argument "scenario move is not parameterised (population 100)")
    (fun () ->
      ignore
        (Run.run_outcome
           (Spec.v ~population:100 ~scenario:"move" ~backend:"soda" 1)))

(* ---- workload determinism across shards and jobs ---------------------- *)

let wl_spec ?(backend = "chrysalis") ?(shards = 1) scenario =
  Spec.v ~population:96 ~shards ~scenario ~backend 7

let artifact spec = Option.get (Run.execute ~log_capacity:1024 spec)

let test_shard_invariance () =
  List.iter
    (fun scenario ->
      let base = artifact (wl_spec scenario) in
      List.iter
        (fun shards ->
          (* Relabel with the base spec, exactly like `repro --shards`:
             everything else in the artifact must be byte-identical. *)
          let a = artifact (wl_spec ~shards scenario) in
          let a = { a with Run.Artifact.spec = base.Run.Artifact.spec } in
          Alcotest.(check string)
            (Printf.sprintf "%s identical at %d shards" scenario shards)
            (Run.Artifact.to_json base) (Run.Artifact.to_json a))
        [ 2; 4 ])
    [ "wl-farm"; "wl-farm-open"; "wl-ring"; "wl-tree" ]

let test_jobs_invariance () =
  let specs =
    List.map (fun sc -> wl_spec sc)
      [ "wl-farm"; "wl-farm-open"; "wl-ring"; "wl-tree" ]
  in
  let render jobs =
    Run.Artifact.list_to_json
      (List.filter_map Fun.id (Run.execute_many ~jobs ~log_capacity:1024 specs))
  in
  Alcotest.(check string) "-j1 = -j4" (render 1) (render 4)

(* ---- per-scenario smoke: reply counts and latency summaries ----------- *)

let test_workload_outcomes () =
  List.iter
    (fun (scenario, expect_replies) ->
      List.iter
        (fun backend ->
          let a = artifact (wl_spec ~backend scenario) in
          let name = Printf.sprintf "%s/%s" scenario backend in
          Alcotest.(check bool) (name ^ " ok") true a.Run.Artifact.ok;
          Alcotest.(check (list string)) (name ^ " race-free") []
            (List.map
               (fun (f : Analysis.Races.finding) -> f.Analysis.Races.r_detail)
               a.Run.Artifact.races);
          match a.Run.Artifact.latency with
          | None -> Alcotest.failf "%s: no latency summary" name
          | Some s ->
            Alcotest.(check int)
              (name ^ " reply count") expect_replies s.H.h_count;
            Alcotest.(check bool)
              (name ^ " percentiles ordered") true
              Time.(s.H.h_min <= s.H.h_p50 && s.H.h_p50 <= s.H.h_p99
                    && s.H.h_p99 <= s.H.h_p999 && s.H.h_p999 <= s.H.h_max))
        [ "charlotte"; "soda"; "chrysalis" ])
    (* Closed-loop workloads reply once per round per client; open-loop
       once per client. *)
    [ ("wl-farm", 96 * 2); ("wl-farm-open", 96); ("wl-ring", 96 * 2);
      ("wl-tree", 96 * 2) ]

(* The open-loop population draws arrivals from the node-id-keyed Rng
   streams, so the latency summary is a function of (seed, population)
   alone — pin one to catch accidental reseeding. *)
let test_open_loop_deterministic () =
  let summary () =
    (artifact (wl_spec "wl-farm-open")).Run.Artifact.latency
  in
  match (summary (), summary ()) with
  | Some a, Some b ->
    Alcotest.(check bool) "repeat runs agree" true (a = b);
    Alcotest.(check int) "count" 96 a.H.h_count
  | _ -> Alcotest.fail "open-loop run produced no latency summary"

(* ---- object lifetimes: the promise each Final send makes -------------- *)

(* A consumer that checks, over the whole stream, the promise a [Final]
   send makes: its object takes no later send, and every message on it
   has been received by the end of the run.  It keeps every object, so
   it guards the marks where the race detector has already dropped an
   object's state and could no longer see a broken promise. *)
let promise_checker () =
  let sends = Hashtbl.create 1024 and recvs = Hashtbl.create 1024 in
  let finals = Hashtbl.create 1024 in
  let broken = ref [] in
  let bump tbl obj =
    Hashtbl.replace tbl obj (1 + Option.value ~default:0 (Hashtbl.find_opt tbl obj))
  in
  let consume _ _ _ kind =
    match kind with
    | Event.Send { obj; op; mode } ->
      if Hashtbl.mem finals obj then
        broken := Printf.sprintf "send %s to %s after its final send" op obj :: !broken;
      bump sends obj;
      if mode = Event.Final then Hashtbl.replace finals obj ()
    | Event.Receive { obj; _ } -> bump recvs obj
    | _ -> ()
  in
  let verdict () =
    let count tbl obj = Option.value ~default:0 (Hashtbl.find_opt tbl obj) in
    let undrained =
      Hashtbl.fold
        (fun obj () acc ->
          if count recvs obj < count sends obj then
            Printf.sprintf "%s still holds %d message(s) at the end" obj
              (count sends obj - count recvs obj)
            :: acc
          else acc)
        finals []
    in
    (Hashtbl.length finals, List.rev !broken @ List.sort compare undrained)
  in
  (consume, verdict)

(* Runs [f] with a promise checker on every engine it creates (the shard
   coordinator's sink carries it), and checks the verdict: no broken
   promise, and [finals] objects with a final send. *)
let check_promises name ~finals f =
  let consume, verdict = promise_checker () in
  ignore
    (Engine.with_observer ~log_capacity:0
       ~attach:(fun e -> Engine.add_consumer e consume)
       f);
  let n, broken = verdict () in
  Alcotest.(check (list string)) (name ^ " keeps its promises") [] broken;
  Alcotest.(check int) (name ^ " final sends") finals n

let test_registered_promises () =
  let population = 1_000 in
  List.iter
    (fun (scenario, finals) ->
      List.iter
        (fun backend ->
          check_promises
            (Printf.sprintf "%s/%s~n1K" scenario backend)
            ~finals
            (fun () ->
              Run.run_outcome (Spec.v ~population ~scenario ~backend 3)))
        [ "charlotte"; "soda"; "chrysalis" ])
    (* Under closed load a client's last-round request is final; under
       open load its one request and the reply to it are. *)
    [ ("wl-farm", population); ("wl-farm-open", 2 * population);
      ("wl-ring", population); ("wl-tree", population) ]

let test_open_promises () =
  let population = 1_000 in
  List.iter
    (fun (name, topology) ->
      List.iter
        (fun (backend : Harness.Backend_world.backend) ->
          check_promises
            (Printf.sprintf "%s/open/%s" name backend.Harness.Backend_world.name)
            ~finals:(2 * population)
            (fun () ->
              Harness.Workload.run ~seed:5 ~topology
                ~load:(Harness.Workload.Open { window = Time.ms 20 })
                ~population backend))
        Harness.Backend_world.all)
    [ ("ring", Harness.Workload.Ring); ("tree", Harness.Workload.Tree) ]

let () =
  Alcotest.run "workload"
    [
      ( "histogram",
        [
          test_histogram_vs_series;
          Alcotest.test_case "empty and negative" `Quick test_histogram_empty;
          Alcotest.test_case "singleton" `Quick test_histogram_singleton;
          test_histogram_merge;
        ] );
      ( "spec",
        [
          Alcotest.test_case "population strings" `Quick
            test_population_strings;
          Alcotest.test_case "round-trip with population axis" `Quick
            test_spec_roundtrip_population;
          Alcotest.test_case "check rejects mis-parameterisation" `Quick
            test_check_errors;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shards 1/2/4 identical" `Quick
            test_shard_invariance;
          Alcotest.test_case "-j1/-j4 identical" `Quick test_jobs_invariance;
          Alcotest.test_case "open loop deterministic" `Quick
            test_open_loop_deterministic;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "all topologies on all backends" `Quick
            test_workload_outcomes;
        ] );
      ( "lifetimes",
        [
          Alcotest.test_case "registered workloads keep their final sends"
            `Quick test_registered_promises;
          Alcotest.test_case "open ring and tree keep their final sends"
            `Quick test_open_promises;
        ] );
    ]
