(* The allocation ladder: minor words per iteration, measured in steady
   state, for every rung of the cost ladder, each stated once here.
   Allocation is deterministic, so a budget is the recorded value, not a
   wall-clock guess.  An [Exact] rung must match it to the word; a
   [Slack] rung may pass it by that many percent, which one more string
   built per message breaks.  A change may tighten a value here; only a
   change whose title says [rebaseline] may raise one.  A rung's id
   starts with its layer.  EXPERIMENTS.md §M is [markdown] of this list
   under the perfbench ceilings of bench/perf_ceilings.tsv, and
   test_metrics holds the two equal.  Host time is perfbench's. *)

type gate = Exact | Slack of float

(* A rung's own recorded words, or (described for the table) the words
   its test measured for a base, such as a smaller population. *)
type budget = Words of float | Base of string

type rung = {
  id : string;
  iteration : string;
  budget : budget;
  gate : gate;
  suite : string;  (** the test executable that reads it, test/<suite>.ml *)
  case : string;
}

let plus2 = Slack 2.

let rung id iteration words gate (suite, case) =
  { id; iteration; budget = Words words; gate; suite; case }

let of_n1k id iteration (suite, case) =
  { id; iteration; budget = Base "its `~n1K` reading"; gate = plus2; suite; case }

let rungs =
  [
    rung "heap.add-pop" "`Sim.Heap` add+pop, 100 entries held"
      10. Exact ("test_sim", "words per heap add+pop");
    rung "rng.bool-int" "one `Sim.Rng.bool` and one `Sim.Rng.int` draw"
      0. Exact ("test_sim", "a bool and an int draw allocate nothing");
    rung "taskq.add-take" "`Sim.Taskq` add+take, 100 entries held"
      5. Exact ("test_sim", "words per task queue add+pop");
    (* Unobserved engines build no event records, clocks or stamps;
       observed ones feed a consumer.  A sleep whose wake the drain
       would take next resumes in place: what is left is its [Block]
       event, observed. *)
    rung "engine.sleep.observed" "`Engine.sleep` with another task due before its wake, observed"
      11. plus2 ("test_sim", "words per sleep");
    rung "engine.sleep.unobserved" "`Engine.sleep` with another task due before its wake, unobserved"
      7. plus2 ("test_sim", "words per sleep");
    rung "engine.sleep.inline.observed" "`Engine.sleep` whose wake is the next task, observed"
      4. Exact ("test_sim", "words per sleep resumed in place");
    rung "engine.sleep.inline.unobserved" "`Engine.sleep` whose wake is the next task, unobserved"
      0. Exact ("test_sim", "words per sleep resumed in place");
    rung "engine.waitq.observed" "`Sync.Waitq` wait+signal+sleep, observed"
      36. plus2 ("test_sim", "words per waitq wait, signal and sleep");
    rung "engine.waitq.unobserved" "`Sync.Waitq` wait+signal+sleep, unobserved"
      22. plus2 ("test_sim", "words per waitq wait, signal and sleep");
    rung "engine.stackless-sleep.observed" "stackless `sleep_then` looping on its own callback \
       (the step's closure included), observed" 20. Exact ("test_sim", "words per stackless sleep");
    rung "engine.stackless-sleep.unobserved" "the same, unobserved"
      16. Exact ("test_sim", "words per stackless sleep");
    rung "engine.park-wake" "stackless `park`+`wake`, unobserved: the wake's task only"
      12. Exact ("test_sim", "words per park/wake");
    rung "engine.yield" "`Engine.yield` of an effect fiber, unobserved: the two queue entries \
       and the continuation" 12. Exact ("test_sim", "words per yield");
    rung "engine.emit" "unobserved emit of a constant kind"
      0. Exact ("test_sim", "unobserved emit of a constant kind allocates nothing");
    (* Consumers are handed an event's parts: only the retaining ring
       builds an [Event.t]. *)
    rung "engine.emit.observed" "observed emit of a constant kind in scheduler context, \
       nothing retained" 0. Exact ("test_sim", "observed emit with no log builds no record");
    rung "engine.emit.observed.fiber" "the same in a fiber: the owner tick"
      4. Exact ("test_sim", "observed emit with no log builds no record");
    rung "engine.stamp-adopt" "unobserved `stamp`+`adopt`"
      0. Exact ("test_sim", "unobserved stamp and adopt allocate nothing");
    rung "vclock.owner-tick" "owner tick, width 1 (width 32 the same)"
      4. Exact ("test_sim", "an owner tick costs one record at any width");
    rung "vclock.dominated-merge" "merge of a dominated clock"
      0. Exact ("test_sim", "merging a dominated clock allocates nothing");
    (* The 4-word record and a tail of [width - 1] entries plus its
       header; past 256 entries the tail is allocated in the major
       heap. *)
    rung "vclock.raised-merge.8" "merge raising one tail entry, width 8, all words"
      12. Exact ("test_sim", "words per non-dominated merge");
    rung "vclock.raised-merge.32" "the same, width 32"
      36. Exact ("test_sim", "words per non-dominated merge");
    rung "vclock.raised-merge.300" "the same, width 300"
      304. Exact ("test_sim", "words per non-dominated merge");
    rung "stats.incr" "`Stats.incr`, key registered before or after the block was created"
      0. Exact ("test_sim", "Stats.incr allocates nothing");
    (* Kernel calls look up with [Hashtbl.find], return no tuples or
       options and emit kinds built with their queue, so what is left is
       the charge and the activity itself. *)
    rung "kernel.charlotte" "Charlotte matched 0 B `send`+`receive`, unobserved"
      119. plus2 ("test_charlotte_kernel", "words per matched send+receive");
    rung "kernel.soda" "SODA 0 B `request`+`accept` with interrupts, unobserved"
      107. plus2 ("test_soda_kernel", "words per request+accept");
    rung "kernel.chrysalis" "Chrysalis dual-queue enqueue posting a waiter's event, unobserved"
      24. plus2 ("test_chrysalis_kernel", "words per enqueue and event post");
    rung "kernel.chrysalis.memory" "Chrysalis `read16`+`atomic_or16`+`atomic_and16`+`read32` \
       on a mapped object, unobserved: the four charge sleeps, each resumed in place"
      0. Exact ("test_chrysalis_kernel", "words per flag-word round");
    rung "lynx.codec" "encode+decode of the 280 B value list"
      120. Exact ("test_lynx_core", "words per encode+decode of 280 B");
    (* Echo calls run on unobserved engines.  A premium is the echo call
       minus the raw-kernel echo ([Rpc_bench.raw_*]): what the run-time
       package adds above the kernel.  The 1000 B rungs count all words
       ([all_words]). *)
    rung "lynx.echo.charlotte" "0 B echo call, Charlotte"
      686.34 plus2 ("test_latency", "charlotte words per echo call");
    rung "lynx.echo.soda" "0 B echo call, SODA"
      610. plus2 ("test_latency", "soda words per echo call");
    rung "lynx.echo.chrysalis" "0 B echo call, Chrysalis"
      540. plus2 ("test_latency", "chrysalis words per echo call");
    rung "lynx.premium.charlotte" "LYNX premium per 0 B echo call, Charlotte"
      449.640625 Exact ("test_latency", "charlotte LYNX premium per echo call");
    rung "lynx.premium.soda" "LYNX premium per 0 B echo call, SODA"
      408. Exact ("test_latency", "soda LYNX premium per echo call");
    rung "lynx.premium.chrysalis" "LYNX premium per 0 B echo call, Chrysalis"
      439. Exact ("test_latency", "chrysalis LYNX premium per echo call");
    rung "lynx.echo-1000.charlotte" "1000 B echo call, Charlotte, all words"
      1183.640625 Exact ("test_latency", "charlotte words per 1000 B echo call");
    rung "lynx.echo-1000.soda" "1000 B echo call, SODA, all words"
      1360. Exact ("test_latency", "soda words per 1000 B echo call");
    rung "lynx.echo-1000.chrysalis" "1000 B echo call, Chrysalis, all words"
      1276. Exact ("test_latency", "chrysalis words per 1000 B echo call");
    rung "lynx.premium-1000.charlotte" "LYNX premium per 1000 B echo call, Charlotte, all words"
      942.640625 Exact ("test_latency", "charlotte LYNX premium per 1000 B echo call");
    rung "lynx.premium-1000.soda" "LYNX premium per 1000 B echo call, SODA, all words"
      908. Exact ("test_latency", "soda LYNX premium per 1000 B echo call");
    rung "lynx.premium-1000.chrysalis" "LYNX premium per 1000 B echo call, Chrysalis, all words"
      953. Exact ("test_latency", "chrysalis LYNX premium per 1000 B echo call");
    (* A difference of two echo costs: a screened call drains 52 engine
       tasks, an unscreened one 55, so when a drained task became 4
       words cheaper (2,897.2 → 2,689.2 screened, 2,633 → 2,413
       unscreened) this difference grew by 12 words with no new
       allocation on the screened path.  Likewise a screened call
       sleeps 36 times and an unscreened one 40 (both block 13 times
       otherwise), so when an effect fiber's sleep fell from 25 words
       to 7 (2,663.2 → 1,563.2 screened, 2,387 → 1,215 unscreened) it
       grew by 4 × 18 = 72.  The screened enqueue hands the kernel's
       injector option on as it is: rebuilding [Some inj] per enqueue
       would read 344.22 here.  When a sleep whose wake is the next
       task began to resume in place, 7 words cheaper, 28 of an
       unscreened call's sleeps went in place but only 24 of a
       screened one's, whose screening timers are often due first
       (1,072.22 → 904.22 screened, 736 → 540 unscreened), so the
       difference grew by 4 × 7 = 28.  It fell by 152 (364.22 → 212.22)
       when injector draws stopped boxing the generator's state and a
       frame's wrapped delivery stopped keeping the nodes a plan with no
       partition never reads. *)
    rung "lynx.screening.chrysalis" "Chrysalis screening premium: echo call under \
       `Faults.Plan.none` minus unscreened, over 128 calls"
      212.21875 Exact ("test_latency", "chrysalis screening premium per echo call");
    rung "faults.partition-stall" "a frame stalled by a partition, unobserved: its retry's \
       task-queue entry" 5. Exact ("test_faults", "words per partition stall");
    rung "analysers.stream-feed" "`Analysis.Stream.feed` per event of \
       `wl-farm-open/chrysalis/1/fifo~n1K`"
      3.94 plus2 ("test_stream", "words per event fed to the analysers");
    rung "analysers.races-feed" "`Analysis.Races.feed` per event, same stream"
      3.94 plus2 ("test_stream", "words per event fed to the analysers");
    rung "analysers.stream-over-races" "`Stream.feed` beyond `Races.feed`"
      0. Exact ("test_stream", "words per event fed to the analysers");
    of_n1k "analysers.stream-feed.n4k" "`Stream.feed` per event at `~n4K`"
      ("test_stream", "words per event independent of population");
    (* Every request and reply of the open farm is a [Final] send, so
       the race detector drops each object once its message is
       received: what stays is the emptied table. *)
    rung "analysers.resident" "race-detector words reachable per client after the `~n1K` stream \
       (`Obj.reachable_words`)"
      0.09 Exact ("test_stream", "race-detector resident words per client");
    of_n1k "analysers.resident.n4k" "the same after the `~n4K` stream"
      ("test_stream", "race-detector resident words per client");
    rung "analysers.finish" "`Stream.finish` per client after the `~n1K` stream"
      0.093 Exact ("test_stream", "words of Stream.finish per client");
    of_n1k "analysers.finish.n4k" "the same after the `~n4K` stream"
      ("test_stream", "words of Stream.finish per client");
    rung "pipeline.event" "`Run.execute` of the `~n1K` farm, per event of its stream"
      50.99 plus2 ("test_stream", "words per event through Run.execute");
    (* The clocks and stamps alone, since a consumer is handed an
       event's parts and no record: 139,518 words over 10,948 events. *)
    rung "pipeline.observation-premium" "observed minus unobserved words per event of twelve sweep \
       specs, read by a consumer that reads nothing, with nothing retained"
      (139_518. /. 10_948.) Exact ("test_stream", "observation premium per event");
    rung "shard.run" "one `Harness.Shard_rpc.run Scenarios.default` on Chrysalis"
      6128. plus2 ("test_shard", "words per one-shard run");
    rung "shard.recv-cycle" "one message between two nodes on one shard: send, barrier exchange, \
       injection, `recv` parked and woken"
      88. Exact ("test_shard", "words per recv park/wake cycle");
  ]

(* Checks [words] against rung [id]'s budget under its own gate; a
   [Base] rung reads its budget from [base]. *)
let check ?base id words =
  let r =
    try List.find (fun r -> r.id = id) rungs
    with Not_found -> Alcotest.failf "no rung %S in test/budgets.ml" id
  in
  let budget =
    match (r.budget, base) with
    | Words w, None -> w
    | Base _, Some b -> b
    | _ -> Alcotest.failf "rung %s: ~base is given exactly when its budget is a base" id
  in
  match r.gate with
  | Exact -> Alcotest.(check (float 0.)) id budget words
  | Slack pct ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g words vs budget %g (+%g%%)" id words budget pct)
      true
      (words <= budget *. (1. +. (pct /. 100.)))

(* The shortest decimal that reads back as [x]. *)
let number x =
  let rec go p =
    let s = Printf.sprintf "%.*f" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  go 0

(* The ladder as a Markdown table: a row per perfbench ceiling (the
   tab-separated [ceilings] file: workload, metric, value, slack in
   percent, under a header line), then a row per rung. *)
let markdown ~ceilings =
  let row cells = "| " ^ String.concat " | " cells ^ " |\n" in
  let ceiling line =
    match String.split_on_char '\t' line with
    | [ workload; metric; value; slack ] ->
      row
        [ workload; "end to end"; Printf.sprintf "perfbench `%s`, seed 1" metric;
          value; "+" ^ slack ^ "%"; "ci.yml, \"Benchmark output checks\"" ]
    | _ -> Alcotest.failf "bench/perf_ceilings.tsv: bad row %S" line
  in
  let ladder r =
    row
      [ r.id; String.sub r.id 0 (String.index r.id '.'); r.iteration;
        (match r.budget with Words w -> number w | Base d -> d);
        (match r.gate with Exact -> "exact" | Slack p -> "+" ^ number p ^ "%");
        Printf.sprintf "%s, \"%s\"" r.suite r.case ]
  in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' ceilings) in
  String.concat ""
    (row [ "rung"; "layer"; "one iteration"; "budget"; "gate"; "read by" ]
    :: row [ "---"; "---"; "---"; "---:"; "---"; "---" ]
    :: List.map ceiling (List.tl lines)
    @ List.map ladder rungs)

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
