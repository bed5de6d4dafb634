(** Chaos sweep: catalog scenarios × fault plans, judged by the
    invariant suite and the {!Run.Liveness} recovery judge.

    Runs every {!Harness.Scenarios} scenario on every backend under an
    ambient {!Faults.Plan} — message drop (with lower-layer
    retransmission), duplication, delay spikes, crash/restart outages,
    partitions — with the LYNX runtime's screening armed: reply
    timeouts, capped exponential backoff, retry budgets and at-most-once
    request dedup.  A faulted run may miss the scenario's scripted
    finale, but it must still satisfy every invariant: no deadlock, no
    leaked fibers, link-end conservation, at-most-once delivery, and no
    thread dying with a non-LYNX exception ("served or cleanly
    refused").

    Everything is deterministic: fault draws come from a stream split
    off the case's seeded engine, so the same (scenario, backend, seed,
    plan) tuple reproduces the same faults, the same verdict and the
    same event-stream fingerprint at any [-j]. *)

type plan_kind = Run.Spec.plan =
  | Screen  (** no faults, screening armed — the overhead baseline *)
  | Drop
  | Duplicate
  | Delay
  | Crash_restart
  | Partition
  | Mix
  | Leader_crash  (** targeted: crash the process named "leader" *)
  | Partition_minority  (** targeted: cut a 2-of-5 replica minority *)
  | Partition_majority  (** targeted: cut a 3-of-5 replica majority *)

val all_plans : plan_kind list
(** The generic fault-injecting plans, in sweep order — the default
    sweep product.  [Screen] injects nothing, and the targeted plans
    ({!Run.Spec.targeted_plans}) aim at specific protocol topologies;
    both are opt-in by name ([--plan screen],
    [--plan leader-crash], ...). *)

val plan_kind_name : plan_kind -> string
val plan_kind_of_string : string -> plan_kind option

type case = {
  h_scenario : string;
  h_backend : string;
  h_seed : int;
  h_plan : plan_kind;
}

type result = {
  h_case : case;
  h_ok : bool;  (** the scenario's own verdict — informational under faults *)
  h_violations : Run.Invariant.violation list;
  h_liveness : Run.Liveness.verdict;
      (** recovery judgement for fault-tolerant scenarios under windowed
          plans; {!Run.Liveness.Missed} fails the case like a violation *)
  h_detail : string;
  h_events_hash : int64;
  h_faults : (string * int) list;
      (** injected-fault, screening and recovery counters for the run *)
}

val case_name : case -> string
(** ["scenario/backend/seed/plan"] — the historical repro handle;
    [Run.Spec.of_string] (and so [lynx_sim repro]) parses it back as
    the equivalent ["scenario/backend/seed/fifo@plan"]. *)

val spec : case -> Run.Spec.t
(** The case as a universal run spec (FIFO policy, plan armed). *)

val run_case : case -> result option
(** [None] when the scenario does not apply to the backend.  A run that
    deadlocks or crashes the engine is reported as a violation, not an
    exception. *)

val of_artifact : case -> Run.Artifact.t -> result
(** Project a judged artifact down to the chaos result view — lets a
    caller run {!sweep_full} once and derive both the tables and the
    artifact-level soundness check from the same runs. *)

val cases :
  ?scenarios:string list ->
  ?backends:string list ->
  ?seeds:int list ->
  ?plans:plan_kind list ->
  unit ->
  case list

val sweep :
  ?jobs:int ->
  ?scenarios:string list ->
  ?backends:string list ->
  ?seeds:int list ->
  ?plans:plan_kind list ->
  unit ->
  result list
(** The case product (defaults: all scenarios, all backends, seeds 1-2,
    all plans) minus inapplicable combinations, on the [-j] domain pool.
    Results keep sweep order, so any rendering is identical at every
    [jobs] count. *)

val sweep_full :
  ?jobs:int ->
  ?scenarios:string list ->
  ?backends:string list ->
  ?seeds:int list ->
  ?plans:plan_kind list ->
  unit ->
  (case * Run.Artifact.t) list
(** {!sweep}, keeping the underlying artifacts: chaos results drop race
    findings (a faulted run is judged by the invariant suite), but the
    soundness cross-check still wants to audit every dynamic race the
    detector saw under fault widening against the static predictions. *)

val failures : result list -> result list
(** Cases that breached safety (an invariant violation) or liveness
    (the recovery judge reported {!Run.Liveness.Missed}). *)

val table : result list -> string
(** The verdict/liveness/fingerprint table — the byte-comparable
    determinism witness. *)

val summary : result list -> string
(** Per-(scenario, plan) pass/fail table. *)

val repro : case -> string
(** Re-runs a failing case and renders its {!Run.dump}: verdict,
    liveness, violations, counter activity and the trace tail. *)
