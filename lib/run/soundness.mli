(** The dynamic ⊆ static soundness cross-check and its complement, the
    coverage report.

    {!Analysis.Static} promises that its prediction set for a
    scenario's catalog protocol contains every race the dynamic
    detector can report for that scenario on any backend, seed, policy
    or fault plan.  [check] audits that promise over a sweep's
    artifacts; a non-empty result means the protocol model drifted from
    the scenario, the static rules lost soundness, or the dynamic
    detector grew a rule the static side does not mirror — all bugs,
    all CI-gated.

    Containment is judged at (scenario, rule) granularity: dynamic
    findings name backend-internal objects no static view can know, so
    a dynamic [R-MSG] in scenario [s] is predicted iff the static pass
    produced any [S-MSG] prediction for [s]'s protocol. *)

type gap = {
  g_spec : Spec.t;  (** the run whose dynamic finding escaped *)
  g_race : Analysis.Races.finding;
  g_reason : string;
}

val unpredicted : Artifact.t -> gap list
(** Gaps of a single artifact; empty when its races are all predicted
    (in particular when it has none). *)

val check : Artifact.t list -> gap list
(** Gaps across a whole sweep, in artifact order.  Predictions are
    computed once per scenario. *)

val report : gap list -> string
(** One line per gap, or a single all-clear line. *)

type coverage_line = {
  c_scenario : string;
  c_prediction : Analysis.Static.prediction;
  c_observed : bool;
      (** some artifact in the sweep dynamically reported this rule in
          this scenario *)
}

val coverage : Artifact.t list -> coverage_line list
(** Every static prediction for every scenario the sweep touched (in
    first-appearance order), marked observed/unobserved.  Unobserved
    predictions are not failures — the static pass promises
    containment, not exactness — but they map where schedule
    exploration is still blind (ROADMAP item 5's seed input). *)

val coverage_report : Artifact.t list -> string

val static_report :
  json:bool ->
  seeds:int ->
  (string * Analysis.Protocol.t) list ->
  Artifact.t list option ->
  string * int
(** The [lynx_sim static] report over named protocols: each one's
    predictions and alarm count, then, when a soundness sweep's
    artifacts (over seeds 1..[seeds]) are given, its gaps and
    {!coverage}.  Text, or the [lynx-run/1] JSON object under [~json].
    The count is the alarms plus the gaps: the command fails when it is
    not zero. *)
