(** What one executed {!Spec.t} produced: the scenario's own verdict,
    the invariant violations, the happens-before race findings, the
    counter increments, the virtual duration and the event-stream
    fingerprint.  Every sweep row, summary, repro dump and [--json]
    record in the repo is a rendering of this one record. *)

type t = {
  spec : Spec.t;
  ok : bool;  (** the scenario's own verdict — informational under faults *)
  violations : Invariant.violation list;
      (** invariant suite verdicts, plus the chaos layer's
          ["clean-failure"] check when threads died with non-LYNX
          exceptions *)
  races : Analysis.Races.finding list;
      (** happens-before findings over the run's event stream *)
  liveness : Liveness.verdict;
      (** recovery judgement for fault-tolerant scenarios under
          windowed fault plans; {!Liveness.Vacuous} everywhere else *)
  detail : string;  (** human-readable summary of what happened *)
  duration : Sim.Time.t;  (** virtual time from kickoff to quiescence *)
  counters : (string * int) list;
      (** {!Sim.Stats} counter increments during the run *)
  events_hash : int64;
      (** FNV fingerprint of the run's full event stream — the cheap
          determinism comparator *)
  latency : Sim.Stats.Histogram.summary option;
      (** merged reply-latency summary from workload scenarios; [None]
          for the vignettes.  Rendered as a [latency] JSON object
          (count, throughput_rps, mean/min/p50/p99/p999/max in µs),
          omitted when absent so pre-workload dumps are unchanged. *)
}

val anomalous : t -> bool
(** An invariant was violated or the liveness judge reported
    {!Liveness.Missed} — the failure criterion for faulted runs, where
    missing the scripted finale ([ok = false]) is informational. *)

val failed : t -> bool
(** The failure criterion, chosen by the spec: {!anomalous} when a
    fault plan is armed; otherwise, for clean exploration runs, a
    violated invariant, a race, or a missed expected final state. *)

val faulted : t list -> bool
(** Some artifact ran under a fault plan. *)

val summary : t list -> string
(** Per-(scenario, plan) run/fail table when any artifact ran under a
    fault plan, per-(scenario, policy) otherwise; failures counted by
    {!failed}. *)

val table : t list -> string
(** One line per artifact: canonical spec, [ok], events hash, liveness
    cell and verdict — the byte-comparable determinism witness of a
    sweep. *)

val races_report : backend:string -> scenarios:string list -> t option list -> string
(** The [lynx_sim races] report for one backend: per-scenario
    clean/n-races lines with finding details.  The artifacts align with
    [scenarios]; [None] entries render as ["n/a on <backend>"]. *)

val to_json : t -> string
(** One artifact as JSON.  Stays within the objects/strings/numbers
    subset [bench/compare.exe] parses, so CI can assert the output is
    well-formed with the same parser that gates the bench baseline:
    lists (violations, races) are index-keyed objects, booleans are 0/1
    numbers, and the events hash is a 16-digit hex string. *)

val list_to_json : t list -> string
(** A sweep's artifacts as one JSON object, keyed by each spec's
    canonical string (unique within any sweep product). *)
