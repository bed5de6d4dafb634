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
     signal and sleep" (+2%), "words per stackless sleep", "unobserved
     emit of a constant kind allocates nothing", "unobserved stamp
     and adopt allocate nothing", "words per park/wake" and "words per
     effect park/wake" (exact);
   - vector clocks and counters (exact) — test_sim: "an owner tick
     costs one record at any width", "merging a dominated clock
     allocates nothing", "words per non-dominated merge" (minor and
     major words), "Stats.incr allocates nothing";
   - one kernel primitive per backend (+2%) — test_charlotte_kernel:
     "words per matched send+receive", test_soda_kernel: "words per
     request+accept", test_chrysalis_kernel: "words per enqueue and
     event post";
   - LYNX op — test_lynx_core: "words per encode+decode of 280 B"
     (exact); test_latency: "<backend> words per echo call" (+2%) and
     "<backend> LYNX premium per echo call", "<backend> words per
     1000 B echo call", "<backend> LYNX premium per 1000 B echo call"
     and "chrysalis screening premium per echo call" (exact);
   - analysers — test_stream: "words per event fed to the analysers"
     (+2%, and exact for what Stream adds to Races), "words per event
     independent of population" (+2% against the smaller farm), "words
     of Stream.finish per client" (exact, and +2% for the larger farm);
   - pipeline — test_stream: "words per event through Run.execute"
     (+2%) and "observation premium per event" (exact);
   - shard — test_shard: "words per one-shard run" (+2%) and "words
     per recv park/wake cycle" (exact). *)

let slack = 1.02

let gate name ~budget words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words vs budget %.1f (+2%%)" name words budget)
    true
    (words <= budget *. slack)

let exact name ~budget words = Alcotest.(check (float 0.)) name budget words

(* Minor words plus the words allocated straight into the major heap
   (blocks of more than 256 words), not the promoted ones.
   [Gc.counters]' minor count is only brought up to date by a minor
   collection, so minor words come from [Gc.minor_words]. *)
let all_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Steady-state words per iteration of [run n] ([count]: minor words by
   default): the difference of a [warm + iters] run and a [warm] run
   cancels set-up, warm-up and growth. *)
let words_per_iter ?(count = Gc.minor_words) ?(warm = 100) ?(iters = 1000)
    run =
  let words n =
    let before = count () in
    run n;
    count () -. before
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
let taskq_pair = 5.

(* ---- Engine (unobserved engines build no event records, clocks or
   stamps; observed ones feed a consumer) ------------------------------ *)

let sleep_observed = 16.0
let sleep_unobserved = 7.0
let waitq_cycle_observed = 48.0
let waitq_cycle_unobserved = 22.0

(* Exact: one [sleep_then] of a stackless fiber looping on its own
   callback, the step's closure included. *)
let stackless_sleep_observed = 25.
let stackless_sleep_unobserved = 16.

(* Exact: one [park] and [wake] of a stackless fiber on an unobserved
   engine — the wake's task (its closure and queue entry) and nothing
   else. *)
let park_wake_unobserved = 12.

(* Exact: one [block], [resume] and [await] of an effect fiber on an
   unobserved engine — the handle, the outcome, the continuation and
   the resumption's queue entry. *)
let effect_park_wake_unobserved = 12.

(* Exact. *)
let unobserved_emit = 0.
let unobserved_stamp_adopt = 0.

(* ---- Vector clocks and counters (exact) ----------------------------- *)

let owner_tick = 4.
let dominated_merge = 0.

(* A merge that raises one tail entry of a clock of each width: the
   4-word record and a tail of [width - 1] entries plus its header.
   Past 256 entries the tail is allocated in the major heap. *)
let raised_merge = [ (8, 12.); (32, 36.); (300, 304.) ]

(* [Stats.incr], for a key registered before the block was created and
   for one registered after it, once the block has grown. *)
let stats_incr = 0.

(* ---- One 0 B kernel primitive per backend, on an unobserved engine -- *)

let charlotte_send_receive = 159.
let soda_request_accept = 156.82
let chrysalis_enqueue_post = 74.

(* ---- LYNX op -------------------------------------------------------- *)

(* Exact: encode+decode of the 280 B value list. *)
let codec_roundtrip = 120.

(* One 0 B echo call per backend, on an unobserved engine. *)
let echo_call =
  [ ("charlotte", 817.34); ("soda", 783.96); ("chrysalis", 1090.0) ]

(* Exact: the LYNX premium, words per 0 B echo call minus words per
   0 B raw-kernel echo ([Rpc_bench.raw_charlotte], [raw_soda],
   [raw_chrysalis]) — what the run-time package adds above the kernel. *)
let lynx_premium =
  [ ("charlotte", 500.640625); ("soda", 452.); ("chrysalis", 873.) ]

(* Exact: all words ([all_words]) per 1000 B echo call, and that minus
   the 1000 B raw-kernel echo — the LYNX premium at 1000 B. *)
let kb_echo_call =
  [ ("charlotte", 1321.640625); ("soda", 1532.21875); ("chrysalis", 1840.) ]

let kb_lynx_premium =
  [ ("charlotte", 1000.640625); ("soda", 952.); ("chrysalis", 1373.) ]

(* Exact: what arming screening with a zero-probability plan adds to a
   Chrysalis echo call, over 128 calls.  A difference of two echo
   costs: a screened call drains 52 engine tasks, an unscreened one 55,
   so when a drained task became 4 words cheaper (2,897.2 → 2,689.2
   screened, 2,633 → 2,413 unscreened) this difference grew by 12
   words with no new allocation on the screened path.  Likewise a
   screened call sleeps 36 times and an unscreened one 40 (both block
   13 times otherwise), so when an effect fiber's sleep fell from 25
   words to 7 (2,663.2 → 1,563.2 screened, 2,387 → 1,215 unscreened)
   it grew by 4 × 18 = 72. *)
let screening_premium = 348.21875

(* ---- Analysers, per event of the wl-farm-open ~n1K stream ----------- *)

let stream_feed = 3.94
let races_feed = 3.94

(* Exact: [Stream.feed] allocates nothing beyond [Races.feed]. *)
let stream_over_races = 0.

(* Exact: words the analysers' state keeps reachable once the stream
   is over, per client (Obj.reachable_words); the ~n4K farm must keep
   no more (+2%).  Every request and reply of the open farm is a
   [Final] send, so the race detector drops each object once its
   message is received: what stays is the emptied table. *)
let races_resident = 0.09

(* Exact: words of [Stream.finish] on that farm's fed state, per
   client; the ~n4K farm must cost no more (+2%). *)
let stream_finish = 0.093

(* ---- Pipeline: Run.execute of that farm, per event ------------------ *)

let pipeline_event = 56.56

(* Exact: observed minus unobserved minor words per event of twelve
   sweep specs, observed by a consumer that reads nothing, with nothing
   retained — the event records, clocks and stamps alone: 198,866
   words over 10,948 events (18.16 per event). *)
let observation_premium = 198_866. /. 10_948.

(* ---- Shard run: one default Shard_rpc run at one shard -------------- *)

let shard_run = 6628.

(* Exact: one message between two nodes on one shard — send, barrier
   exchange, injection, and a [recv] parked and woken. *)
let shard_recv_cycle = 90.
