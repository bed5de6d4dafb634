(* Calibration tests: every latency number the paper reports must come
   out of the simulation within a tolerance band.  These are the same
   measurements the bench harness prints; here they gate the test suite
   so a regression in any cost model or protocol path fails loudly. *)

let checkb = Alcotest.check Alcotest.bool

let within ~pct ~paper measured =
  Float.abs ((measured -. paper) /. paper) *. 100. <= pct

let check_band name ~pct ~paper measured =
  checkb
    (Printf.sprintf "%s: measured %.2f vs paper %.1f (±%.0f%%)" name measured
       paper pct)
    true
    (within ~pct ~paper measured)

let lynx_mean (module W : Harness.Backend_world.WORLD) payload =
  Harness.Rpc_bench.mean_ms (Harness.Rpc_bench.run (module W) ~payload ())

let tests =
  [
    Alcotest.test_case "§3.3 charlotte LYNX: 57 ms at 0 bytes" `Slow (fun () ->
        check_band "charlotte lynx 0B" ~pct:5. ~paper:57.
          (lynx_mean Harness.Backend_world.charlotte 0));
    Alcotest.test_case "§3.3 charlotte LYNX: 65 ms at 1000 bytes" `Slow
      (fun () ->
        check_band "charlotte lynx 1000B" ~pct:5. ~paper:65.
          (lynx_mean Harness.Backend_world.charlotte 1000));
    Alcotest.test_case "§3.3 charlotte raw kernel: 55 ms at 0 bytes" `Slow
      (fun () ->
        check_band "charlotte raw 0B" ~pct:5. ~paper:55.
          (Sim.Time.to_ms (Harness.Rpc_bench.raw_charlotte ~payload:0 ())));
    Alcotest.test_case "§3.3 charlotte raw kernel: 60 ms at 1000 bytes" `Slow
      (fun () ->
        check_band "charlotte raw 1000B" ~pct:5. ~paper:60.
          (Sim.Time.to_ms (Harness.Rpc_bench.raw_charlotte ~payload:1000 ())));
    Alcotest.test_case "§4.3 soda is ~3x faster than charlotte (small)" `Slow
      (fun () ->
        let c = Sim.Time.to_ms (Harness.Rpc_bench.raw_charlotte ~payload:0 ()) in
        let s = Sim.Time.to_ms (Harness.Rpc_bench.raw_soda ~payload:0 ()) in
        check_band "ratio" ~pct:10. ~paper:3.0 (c /. s));
    Alcotest.test_case "§4.3 fn2: crossover between 1K and 2K bytes" `Slow
      (fun () ->
        (* Find the payload where charlotte becomes cheaper than soda. *)
        let rec search lo hi =
          if hi - lo <= 128 then (lo, hi)
          else begin
            let mid = (lo + hi) / 2 in
            let c = lynx_mean Harness.Backend_world.charlotte mid in
            let s = lynx_mean Harness.Backend_world.soda mid in
            if s < c then search mid hi else search lo mid
          end
        in
        let lo, hi = search 512 3072 in
        checkb
          (Printf.sprintf "crossover in (%d, %d) within [1000, 2000]" lo hi)
          true
          (lo >= 1000 - 128 && hi <= 2000 + 128));
    Alcotest.test_case "§5.3 chrysalis LYNX: 2.4 ms at 0 bytes" `Slow
      (fun () ->
        check_band "chrysalis 0B" ~pct:5. ~paper:2.4
          (lynx_mean Harness.Backend_world.chrysalis 0));
    Alcotest.test_case "§5.3 chrysalis LYNX: 4.6 ms at 1000 bytes" `Slow
      (fun () ->
        check_band "chrysalis 1000B" ~pct:5. ~paper:4.6
          (lynx_mean Harness.Backend_world.chrysalis 1000));
    Alcotest.test_case "§5.3 chrysalis beats charlotte by >10x" `Slow
      (fun () ->
        let c = lynx_mean Harness.Backend_world.charlotte 0 in
        let b = lynx_mean Harness.Backend_world.chrysalis 0 in
        checkb
          (Printf.sprintf "ratio %.1f > 10" (c /. b))
          true
          (c /. b > 10.));
    Alcotest.test_case "X1: chrysalis pipelines, charlotte serializes" `Slow
      (fun () ->
        let tp b k =
          Harness.Rpc_bench.throughput ~coroutines:k b ~payload:0 ()
        in
        let c1 = tp Harness.Backend_world.chrysalis 1 in
        let c4 = tp Harness.Backend_world.chrysalis 4 in
        checkb
          (Printf.sprintf "chrysalis gains from concurrency (%.0f -> %.0f)" c1
             c4)
          true (c4 > c1 *. 2.);
        let h1 = tp Harness.Backend_world.charlotte 1 in
        let h4 = tp Harness.Backend_world.charlotte 4 in
        checkb
          (Printf.sprintf "charlotte stays serialized (%.1f -> %.1f)" h1 h4)
          true
          (h4 < h1 *. 1.5));
    Alcotest.test_case "latency measurements are deterministic" `Slow
      (fun () ->
        let a = lynx_mean Harness.Backend_world.charlotte 0 in
        let b = lynx_mean Harness.Backend_world.charlotte 0 in
        Alcotest.check (Alcotest.float 0.0001) "same" a b);
  ]

(* Rpc_bench returns only a summary, so its engines retain no events.
   The fingerprints are those of the fully retained runs: retention
   never moves them. *)
let pinned_hashes =
  [
    ("charlotte", 0xd6b85e2b70dc4cddL);
    ("soda", 0xf64949c00c186becL);
    ("chrysalis", 0x16cb570a2d07939cL);
  ]

let retention_tests =
  List.map
    (fun b ->
      let module W = (val b : Harness.Backend_world.WORLD) in
      Alcotest.test_case (W.name ^ " echo retains no events") `Quick (fun () ->
          let engines = ref [] in
          ignore
            (Sim.Engine.with_observer
               ~attach:(fun e -> engines := e :: !engines)
               (fun () -> Harness.Rpc_bench.run b ~payload:0 ()));
          match !engines with
          | [ e ] ->
            Alcotest.(check int) "nothing retained" 0
              (Array.length (Sim.Engine.events e));
            checkb "every event dropped" true
              (Sim.Engine.events_total e > 0
              && Sim.Engine.events_dropped e = Sim.Engine.events_total e);
            Alcotest.(check string) "events hash"
              (Printf.sprintf "%016Lx" (List.assoc W.name pinned_hashes))
              (Printf.sprintf "%016Lx" (Sim.Engine.events_hash e))
          | es -> Alcotest.failf "expected one engine, got %d" (List.length es)))
    Harness.Backend_world.all

(* Steady-state minor words per 0 B echo call.  Rpc_bench engines are
   unobserved (no event records, vector clocks or stamps; see the
   causality tests below). *)
let words_per_call ?(iters = 100) b =
  Budgets.words_per_iter ~warm:30 ~iters (fun iters ->
      ignore (Harness.Rpc_bench.run b ~payload:0 ~iters ()))

let allocation_tests =
  List.map
    (fun b ->
      let module W = (val b : Harness.Backend_world.WORLD) in
      Alcotest.test_case (W.name ^ " words per echo call") `Quick (fun () ->
          Budgets.gate "echo call"
            ~budget:(List.assoc W.name Budgets.echo_call)
            (words_per_call b)))
    Harness.Backend_world.all
  @ [
      (* A zero-probability plan: no fault ever fires, but the injector
         hooks, the per-call screening timers and the server's dedup
         table are live.  The gate reads the premium over the same call
         unscreened, to the word: over 128 calls both sides and their
         difference are exact binary fractions. *)
      Alcotest.test_case "chrysalis screening premium per echo call" `Quick
        (fun () ->
          let b = Harness.Backend_world.chrysalis in
          let screened =
            Faults.with_plan Faults.Plan.none (fun () ->
                words_per_call ~iters:128 b)
          in
          Budgets.exact "screening premium" ~budget:Budgets.screening_premium
            (screened -. words_per_call ~iters:128 b));
    ]

(* Rpc_bench engines have no consumer and retain nothing, so they run
   unobserved: no event records, clocks or stamps.  A no-op consumer
   makes the same run observed; everything the run reports must be
   identical either way. *)
let bench_run ~observed b payload =
  let engines = ref [] in
  let attach e =
    if observed then Sim.Engine.add_consumer e ignore;
    engines := e :: !engines
  in
  let r =
    Sim.Engine.with_observer ~attach (fun () ->
        Harness.Rpc_bench.run b ~payload ())
  in
  match !engines with
  | [ e ] -> (r, Sim.Engine.events_hash e, Sim.Engine.events_total e)
  | es -> Alcotest.failf "expected one engine, got %d" (List.length es)

let causality_tests =
  List.concat_map
    (fun b ->
      let module W = (val b : Harness.Backend_world.WORLD) in
      List.map
        (fun payload ->
          Alcotest.test_case
            (Printf.sprintf "%s %d B: observed = unobserved" W.name payload)
            `Quick (fun () ->
              let r, hash, total = bench_run ~observed:false b payload in
              let r', hash', total' = bench_run ~observed:true b payload in
              let ns t = Sim.Time.to_ns t in
              Alcotest.(check string) "events hash"
                (Printf.sprintf "%016Lx" hash')
                (Printf.sprintf "%016Lx" hash);
              Alcotest.(check int) "events total" total' total;
              Alcotest.(check (list int)) "mean, min, max"
                [ ns r'.r_mean; ns r'.r_min; ns r'.r_max ]
                [ ns r.r_mean; ns r.r_min; ns r.r_max ];
              Alcotest.(check (list (pair string int))) "counters"
                r'.r_counters r.r_counters))
        [ 0; 1000 ])
    Harness.Backend_world.all

let () =
  Alcotest.run "latency"
    [
      ("calibration", tests);
      ("retention", retention_tests);
      ("allocation", allocation_tests);
      ("causality", causality_tests);
    ]
