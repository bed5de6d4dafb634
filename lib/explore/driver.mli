(** Schedule-exploration driver — a thin plan-builder over the run
    core.

    Enumerates every {!Harness.Scenarios} scenario on every backend
    under many seeds and scheduling policies, maps {!Run.execute} over
    the domain pool, and renders reports.  For any failing case it can
    re-derive a full repro dump from just the
    (scenario, backend, seed, policy) tuple, because runs are
    deterministic — the tuple's canonical form is a {!Run.Spec} string,
    reparseable with [Run.Spec.of_string] from any log line. *)

type policy_kind = Run.Spec.policy =
  | Fifo  (** deterministic FIFO — the default schedule *)
  | Random  (** seeded random ordering of same-time tasks *)
  | Jitter  (** bounded random per-task delay (default 20us) *)

val policy_kind_name : policy_kind -> string
val policy_kind_of_string : string -> policy_kind option
val all_policies : policy_kind list

val engine_policy : policy_kind -> seed:int -> Sim.Engine.policy
(** The concrete engine policy a case runs under: exploration policies
    derive their scheduling seed from the case seed, so one integer
    reproduces the whole run. *)

type case = {
  c_scenario : string;
  c_backend : string;
  c_seed : int;
  c_policy : policy_kind;
}

type result = {
  r_case : case;
  r_ok : bool;  (** the scenario's own success verdict *)
  r_violations : Run.Invariant.violation list;
  r_races : Analysis.Races.finding list;
      (** happens-before race findings over the run's event stream *)
  r_detail : string;
  r_duration : Sim.Time.t;
  r_events_hash : int64;
      (** FNV fingerprint of the run's full event stream — the cheap
          determinism comparator *)
}

val scenario_names : string list
(** All registered scenarios.  The cross-backend ones run everywhere;
    ["hint-repair"] and ["pair-pressure"] are SODA-specific and are
    skipped on other backends. *)

val backend_names : string list

val case_name : case -> string
(** ["scenario/backend/seed/policy"] — the repro handle, also accepted
    by [lynx_sim repro] and [Run.Spec.of_string]. *)

val spec : case -> Run.Spec.t
(** The case as a universal run spec (no fault plan). *)

val run_case : case -> result option
(** [None] when the scenario does not apply to the backend. *)

val assess : case -> Harness.Scenarios.outcome -> result
(** Judge an already-obtained outcome as if [run_case] had produced it —
    the hook test fixtures use to feed deliberately broken outcomes
    through the same reporting path. *)

val of_artifact : case -> Run.Artifact.t -> result
(** Project a judged artifact down to the sweep's result view — lets a
    caller run {!sweep_full} once and derive both the human tables and
    the artifact-level soundness check from the same runs. *)

val cases :
  ?scenarios:string list ->
  ?backends:string list ->
  ?seeds:int list ->
  ?policies:policy_kind list ->
  unit ->
  case list
(** The case product {!sweep} runs, in sweep order. *)

val sweep :
  ?jobs:int ->
  ?scenarios:string list ->
  ?backends:string list ->
  ?seeds:int list ->
  ?policies:policy_kind list ->
  unit ->
  result list
(** The full product of scenarios x backends x seeds x policies
    (defaults: all scenarios, the three primary backends, seeds 1-5,
    [Fifo] and [Random]), minus inapplicable combinations.  [jobs]
    (default 1) runs cases on a domain pool; every case owns a private
    engine, and results keep sweep order, so the returned list — and
    any report derived from it — is identical at every [jobs] count. *)

val sweep_full :
  ?jobs:int ->
  ?scenarios:string list ->
  ?backends:string list ->
  ?seeds:int list ->
  ?policies:policy_kind list ->
  unit ->
  (case * Run.Artifact.t) list
(** {!sweep}, keeping the underlying artifacts — the soundness
    cross-check and the coverage report read race findings at the
    artifact level. *)

val soundness_gaps : (case * Run.Artifact.t) list -> Run.Soundness.gap list
(** {!Run.Soundness.check} over a {!sweep_full} result: dynamic race
    findings the static prediction set does not contain.  Always empty
    when both sides are correct; CI fails otherwise. *)

val failures : result list -> result list
(** Results that violated an invariant, raced, or missed the scenario's
    expected final state — the minimal failing cases to rerun. *)

val repro : case -> string
(** Re-runs the failing case and renders its {!Run.dump}: verdict,
    violations, final fiber states and the trace tail — everything
    needed to reproduce and debug the failure from its seed. *)

val summary : result list -> string
(** Per-(scenario, policy) pass/fail table over all results. *)

val races_report :
  backend:string ->
  scenarios:string list ->
  Run.Artifact.t option list ->
  string * int
(** The [lynx_sim races] report for one backend: per-scenario
    clean/n-races lines with finding details, plus the total race
    count.  [artifacts] aligns with [scenarios]; [None] entries render
    as ["n/a on <backend>"].  Rendered to a string so tests can pin the
    output byte-for-byte. *)
