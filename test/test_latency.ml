(* Calibration tests: every latency figure the paper reports (the E1,
   E3 and E4 claims of Metrics.Claims) must come out of the simulation
   within its claim's predicate, so a regression in any cost model or
   protocol path fails loudly.  Then the echo's retention, allocation
   and causality pins. *)

let checkb = Alcotest.check Alcotest.bool

let lynx_mean backend payload =
  Harness.Rpc_bench.mean_ms (Harness.Rpc_bench.run backend ~payload ())

let tests =
  Claim_cases.cases "E"
  @ [
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
   never moves them.  The ablation variants are pinned too, since each
   builds its world differently.  A 0 B echo moves no link, so the
   hint-based move leaves Charlotte's fingerprint as it is. *)
let pinned_hashes =
  [
    ("charlotte", 0xd6b85e2b70dc4cddL);
    ("soda", 0xf64949c00c186becL);
    ("chrysalis", 0x16cb570a2d07939cL);
    ("charlotte+acks", 0xd82f3283fd54e470L);
    ("charlotte+hints", 0xd6b85e2b70dc4cddL);
    ("chrysalis+tuned", 0xd5b0c8325c4f40dcL);
  ]

let retention_tests =
  List.map
    (fun (b : Harness.Backend_world.backend) ->
      Alcotest.test_case (b.name ^ " echo retains no events") `Quick (fun () ->
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
              (Printf.sprintf "%016Lx" (List.assoc b.name pinned_hashes))
              (Printf.sprintf "%016Lx" (Sim.Engine.events_hash e))
          | es -> Alcotest.failf "expected one engine, got %d" (List.length es)))
    Harness.Backend_world.variants

(* Steady-state minor words per 0 B echo call.  Rpc_bench engines are
   unobserved (no event records, vector clocks or stamps; see the
   causality tests below). *)
let words_per_call ?(iters = 100) b =
  Budgets.words_per_iter ~warm:30 ~iters (fun iters ->
      ignore (Harness.Rpc_bench.run b ~payload:0 ~iters ()))

(* Steady-state minor words per 0 B raw-kernel echo: the same exchange
   made directly against each backend's kernel, with no LYNX above it. *)
let raw_words_per_call ?(iters = 100) name =
  let raw =
    match name with
    | "charlotte" -> Harness.Rpc_bench.raw_charlotte
    | "soda" -> Harness.Rpc_bench.raw_soda
    | "chrysalis" -> Harness.Rpc_bench.raw_chrysalis
    | n -> Alcotest.failf "no raw echo for %s" n
  in
  Budgets.words_per_iter ~warm:30 ~iters (fun iters ->
      ignore (raw ~payload:0 ~iters ()))

let allocation_tests =
  List.map
    (fun (b : Harness.Backend_world.backend) ->
      Alcotest.test_case (b.name ^ " words per echo call") `Quick (fun () ->
          Budgets.gate "echo call"
            ~budget:(List.assoc b.name Budgets.echo_call)
            (words_per_call b)))
    Harness.Backend_world.all
  @ List.map
      (fun (b : Harness.Backend_world.backend) ->
        (* What the LYNX layers add to a kernel echo, to the word: the
           run-time package's own allocation, with the kernel's netted
           out.  Over 128 calls both sides are exact binary fractions. *)
        Alcotest.test_case (b.name ^ " LYNX premium per echo call") `Quick
          (fun () ->
            Budgets.exact
              (Printf.sprintf "%s LYNX premium" b.name)
              ~budget:(List.assoc b.name Budgets.lynx_premium)
              (words_per_call ~iters:128 b
              -. raw_words_per_call ~iters:128 b.name)))
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
    (fun (b : Harness.Backend_world.backend) ->
      List.map
        (fun payload ->
          Alcotest.test_case
            (Printf.sprintf "%s %d B: observed = unobserved" b.name payload)
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
