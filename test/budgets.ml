(* Committed allocation budgets: minor words per iteration, measured in
   steady state, for every rung of the cost ladder.  Allocation is
   deterministic, so a budget is the recorded value, not a wall-clock
   guess.  [exact] rungs must match it to the word; [gate] rungs allow
   [slack] (2%) over it, which one more string built per message
   breaks.  A change may tighten a value here; only a change whose
   title says [rebaseline] may raise one.  Host time is perfbench's.

   The ladder, bottom up, with the test that reads each rung
   (suite: case):
   - heap (exact) — test_sim: "words per heap add+pop";
   - task queue (exact) — test_sim: "words per task queue add+pop";
   - engine — test_sim: "words per sleep" and "words per waitq wait,
     signal and sleep" (+2%), "unobserved emit of a constant kind
     allocates nothing" and "unobserved stamp and adopt allocate
     nothing" (exact);
   - vector clocks and counters (exact) — test_sim: "an owner tick
     costs one cell at any width", "merging a dominated clock
     allocates nothing", "Stats.incr allocates nothing";
   - one kernel primitive per backend (+2%) — test_charlotte_kernel:
     "words per matched send+receive", test_soda_kernel: "words per
     request+accept", test_chrysalis_kernel: "words per enqueue and
     event post";
   - LYNX op — test_lynx_core: "words per encode+decode of 280 B"
     (exact); test_latency: "<backend> words per echo call" (+2%) and
     "chrysalis screening premium per echo call" (exact);
   - analysers — test_stream: "words per event fed to the analysers"
     (+2%, and exact for what Stream adds to Races), "words per event
     independent of population" (+2% against the smaller farm);
   - pipeline — test_stream: "words per event through Run.execute"
     (+2%);
   - shard run — test_shard: "words per one-shard run" (+2%). *)

let slack = 1.02

let gate name ~budget words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words vs budget %.1f (+2%%)" name words budget)
    true
    (words <= budget *. slack)

let exact name ~budget words = Alcotest.(check (float 0.)) name budget words

(* Steady-state minor words per iteration of [run n]: the difference of
   a [warm + iters] run and a [warm] run cancels set-up, warm-up and
   growth. *)
let words_per_iter ?(warm = 100) ?(iters = 1000) run =
  let words n =
    let before = Gc.minor_words () in
    run n;
    Gc.minor_words () -. before
  in
  let w = words warm in
  (words (warm + iters) -. w) /. float iters

(* Minor words per element of [events] fed, in order, to [feed]. *)
let words_per_event feed events =
  let before = Gc.minor_words () in
  Array.iter feed events;
  (Gc.minor_words () -. before) /. float (Array.length events)

(* ---- Heap and task queue: one add+pop pair (exact) ------------------ *)

let heap_pair = 10.
let taskq_pair = 7.

(* ---- Engine (unobserved engines build no event records, clocks or
   stamps; observed ones feed a consumer) ------------------------------ *)

let sleep_observed = 39.0
let sleep_unobserved = 30.0
let waitq_cycle_observed = 113.0
let waitq_cycle_unobserved = 85.0

(* Exact. *)
let unobserved_emit = 0.
let unobserved_stamp_adopt = 0.

(* ---- Vector clocks and counters (exact) ----------------------------- *)

let owner_tick = 4.
let dominated_merge = 0.

(* [Stats.incr], for a key registered before the block was created and
   for one registered after it, once the block has grown. *)
let stats_incr = 0.

(* ---- One 0 B kernel primitive per backend, on an unobserved engine -- *)

let charlotte_send_receive = 335.
let soda_request_accept = 313.8
let chrysalis_enqueue_post = 227.

(* ---- LYNX op -------------------------------------------------------- *)

(* Exact: encode+decode of the 280 B value list. *)
let codec_roundtrip = 168.

(* One 0 B echo call per backend, on an unobserved engine. *)
let echo_call =
  [ ("charlotte", 2612.3); ("soda", 2492.0); ("chrysalis", 3440.0) ]

(* Exact: what arming screening with a zero-probability plan adds to a
   Chrysalis echo call, over 128 calls. *)
let screening_premium = 285.21875

(* ---- Analysers, per event of the wl-farm-open ~n1K stream ----------- *)

let stream_feed = 13.9
let races_feed = 13.9

(* Exact: [Stream.feed] allocates nothing beyond [Races.feed]. *)
let stream_over_races = 0.

(* ---- Pipeline: Run.execute of that farm, per event ------------------ *)

let pipeline_event = 138.3

(* ---- Shard run: one default Shard_rpc run at one shard -------------- *)

let shard_run = 10428.
