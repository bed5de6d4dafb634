(* Committed allocation budgets, in minor words per iteration, for every
   allocation rung the suites gate: the engine's emit/suspend rungs and
   vector clocks (test_sim), the counter block (test_sim) and one LYNX
   remote operation per backend (test_latency).

   Allocation is deterministic, so a budget is the recorded value, not a
   wall-clock guess.  Exact rungs must match to the word; the others
   allow [slack] (2%) over the recorded value, which one more string
   built per message breaks.  A change may tighten a value here; it may
   not loosen one. *)

let slack = 1.02

let gate name ~budget words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words vs budget %.1f (+2%%)" name words budget)
    true
    (words <= budget *. slack)

(* ---- Engine rungs (unobserved engines build no event records, clocks
   or stamps; observed ones feed a consumer) -------------------------- *)

let sleep_observed = 39.0
let sleep_unobserved = 30.0
let waitq_cycle_observed = 113.0
let waitq_cycle_unobserved = 85.0

(* Exact. *)
let unobserved_emit = 0.
let unobserved_stamp_adopt = 0.

(* ---- Vector clocks (exact) ------------------------------------------ *)

let owner_tick = 4.
let dominated_merge = 0.

(* ---- Counters (exact) ----------------------------------------------- *)

(* [Stats.incr], for a key registered before the block was created and
   for one registered after it, once the block has grown. *)
let stats_incr = 0.

(* ---- One 0 B echo call per backend, on an unobserved engine --------- *)

let echo_call =
  [ ("charlotte", 2612.3); ("soda", 2492.0); ("chrysalis", 3440.0) ]
