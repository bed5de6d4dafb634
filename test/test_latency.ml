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
            Harness.Rpc_bench.throughput ~coroutines:k b
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
            checkb "every event dropped" true (Sim.Engine.events_total e > 0);
            Alcotest.(check string) "events hash"
              (Printf.sprintf "%016Lx" (List.assoc b.name pinned_hashes))
              (Printf.sprintf "%016Lx" (Sim.Engine.events_hash e))
          | es -> Alcotest.failf "expected one engine, got %d" (List.length es)))
    Harness.Backend_world.variants

(* Steady-state words per echo call of [payload] bytes (default 0):
   minor words, or [count] ones.  Rpc_bench engines are unobserved (no
   event records, vector clocks or stamps; see the causality tests
   below). *)
let words_per_call ?count ?(iters = 100) ?(payload = 0) b =
  Budgets.words_per_iter ?count ~warm:30 ~iters (fun iters ->
      ignore (Harness.Rpc_bench.run b ~payload ~iters ()))

(* Steady-state words per raw-kernel echo: the same exchange made
   directly against each backend's kernel, with no LYNX above it. *)
let raw_words_per_call ?count ?(iters = 100) ?(payload = 0) name =
  let raw =
    match name with
    | "charlotte" -> Harness.Rpc_bench.raw_charlotte
    | "soda" -> Harness.Rpc_bench.raw_soda
    | "chrysalis" -> Harness.Rpc_bench.raw_chrysalis
    | n -> Alcotest.failf "no raw echo for %s" n
  in
  Budgets.words_per_iter ?count ~warm:30 ~iters (fun iters ->
      ignore (raw ~payload ~iters ()))

(* A 1000 B echo's frames are big enough that a buffer grown past 256
   words would be allocated in the major heap, so its rungs count all
   words ([Budgets.all_words]), not just minor ones, over 128 calls. *)
let kb_words_per_call b = words_per_call ~count:Budgets.all_words ~iters:128 ~payload:1000 b
let kb_raw_words_per_call n = raw_words_per_call ~count:Budgets.all_words ~iters:128 ~payload:1000 n

(* One case per backend and row: its rungs' ids, in the order of
   [Backend_world.all] (Charlotte, SODA, Chrysalis), and the words the
   case reads. *)
let allocation_tests =
  List.concat_map
    (fun (case, ids, words) ->
      List.map2
        (fun (b : Harness.Backend_world.backend) id ->
          Alcotest.test_case (b.name ^ " " ^ case) `Quick (fun () ->
              Budgets.check id (words b)))
        Harness.Backend_world.all ids)
    [
      ( "words per echo call",
        [ "lynx.echo.charlotte"; "lynx.echo.soda"; "lynx.echo.chrysalis" ],
        fun b -> words_per_call b );
      (* What the LYNX layers add to a kernel echo, to the word: the
         run-time package's own allocation, with the kernel's netted
         out.  Over 128 calls both sides are exact binary fractions. *)
      ( "LYNX premium per echo call",
        [ "lynx.premium.charlotte"; "lynx.premium.soda"; "lynx.premium.chrysalis" ],
        fun b -> words_per_call ~iters:128 b -. raw_words_per_call ~iters:128 b.name );
      ( "words per 1000 B echo call",
        [ "lynx.echo-1000.charlotte"; "lynx.echo-1000.soda"; "lynx.echo-1000.chrysalis" ],
        kb_words_per_call );
      ( "LYNX premium per 1000 B echo call",
        [ "lynx.premium-1000.charlotte"; "lynx.premium-1000.soda"; "lynx.premium-1000.chrysalis" ],
        fun b -> kb_words_per_call b -. kb_raw_words_per_call b.name );
    ]
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
            {
              b with
              create = (fun ?plan:_ e ~nodes -> b.create ~plan:Faults.Plan.none e ~nodes);
            }
          in
          Budgets.check "lynx.screening.chrysalis"
            (words_per_call ~iters:128 screened -. words_per_call ~iters:128 b));
    ]

(* Rpc_bench engines have no consumer and retain nothing, so they run
   unobserved: no event records, clocks or stamps.  A no-op consumer
   makes the same run observed; everything the run reports must be
   identical either way. *)
let bench_run ~observed b payload =
  let engines = ref [] in
  let attach e =
    if observed then Sim.Engine.add_consumer e (fun _ _ _ _ -> ());
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
