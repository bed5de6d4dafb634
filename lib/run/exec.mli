(** The one run pipeline behind every sweep.

    [execute] resolves a {!Spec.t} against the {!Harness.Scenarios}
    registry and the {!Harness.Backend_world} registry, arms the fault
    plan (if any) ambiently, runs the scenario on a private engine, and
    judges the outcome into an {!Artifact.t}: invariant suite, race
    detector, counter snapshot, fingerprint.  Every [lynx_sim] sweep
    maps it over a {!Spec.product} with {!execute_many}; [lynx_sim
    repro] calls {!execute_full}. *)

val check : Spec.t -> (unit, string) result
(** Pre-flight applicability check with a one-line reason: unknown
    scenario or backend, a backend the scenario does not apply to, a
    population ([~nN]) axis on a scenario that is not parameterised, or
    one above {!Harness.Workload.max_population}.
    [lynx_sim repro] and [lynx_sim workload] call this first so every
    bad spec exits 2 with a uniform message. *)

val run_outcome : Spec.t -> Harness.Scenarios.outcome option
(** Runs just the scenario, without judging it — [None] when the
    scenario does not apply to the backend (per its [applies_to]
    predicate).  Raises [Invalid_argument] on unknown scenario or
    backend names, or on a population axis on a non-parameterised
    scenario (use {!check} to pre-flight). *)

val judge : Spec.t -> Harness.Scenarios.outcome -> Artifact.t
(** Judge an already-obtained outcome post-hoc, from its retained event
    log: the invariant suite, the clean-failure check
    (threads must not die with non-LYNX exceptions), and the
    happens-before race detector over [v_events].  This is the
    reference path the differential suite compares the streaming
    pipeline against; it also judges synthetic views test fixtures
    build by hand. *)

val judge_streamed :
  Spec.t -> Analysis.Stream.summary -> Harness.Scenarios.outcome -> Artifact.t
(** Judge from a streaming-analyzer summary accumulated at emission
    time instead of the retained log — exact at any [log_capacity],
    including zero.  Equal to {!judge} whenever the log was fully
    retained. *)

val run_streamed :
  ?log_capacity:int ->
  Spec.t ->
  Harness.Scenarios.outcome option * Analysis.Stream.t
(** {!run_outcome} with the streaming analyzer attached: installs an
    ambient {!Sim.Engine.with_observer} for the duration of the run, so
    the scenario's private engine bounds its retained log to
    [log_capacity] (if given) and feeds every emitted event to an
    {!Analysis.Stream} analyzer.  Returns the outcome and the analyzer
    state ([finish] it to judge). *)

val execute_full :
  ?log_capacity:int ->
  Spec.t ->
  (Harness.Scenarios.outcome option * Artifact.t) option
(** [execute], also returning the raw outcome — repro dumps read the
    engine view (trace tail, fiber states) from it, so without
    [log_capacity] it keeps the engine's default ring.  The
    outcome is [None] only when a faulted run aborted (no engine view
    exists). *)

val execute : ?log_capacity:int -> Spec.t -> Artifact.t option
(** The pipeline: run with the streaming analyzer attached, judge from
    its summary, package.  [None] when the scenario does not apply to
    the backend.  Under a fault plan, a run that deadlocks or crashes
    the engine is reported as a ["no-deadlock"] violation artifact, not
    an exception — the wedged run is itself the finding.  Clean runs
    let exceptions propagate.

    [log_capacity] (default 0: nothing) bounds the events the engine
    retains to a ring of the last [k].  The artifact — findings,
    counters, [events_hash] — is identical at every capacity, so a
    caller that only reads the artifact has no use for a log; callers
    that read the engine view use {!execute_full}, whose default is the
    engine's default ring. *)

val execute_many :
  ?jobs:int -> ?log_capacity:int -> Spec.t list -> Artifact.t option list
(** [execute] mapped over the {!Parallel.Pool} domain pool (retaining
    nothing by default, like [execute]).  Every spec
    owns a private engine and a private analyzer (the observer is
    domain-local), and the pool preserves input order, so the result
    list — and anything rendered from it — is byte-identical at every
    [jobs] count (default 1). *)

val tail_length : int
(** Events a dump's trace tail shows: 64. *)

val dump : Harness.Scenarios.outcome option -> Artifact.t -> string
(** The repro dump every front end prints ([lynx_sim repro], the
    explore and chaos sweeps' failure reports): the artifact's spec,
    plan, verdict, events hash, liveness, violations, races and counter
    activity, then — when the run produced an outcome — its unfinished
    fibers and a trace tail of the last {!tail_length} retained
    structured events as time, fiber id and {!Sim.Event.kind_to_string}:
    the end of the run.  A ring shorter than {!tail_length} shortens
    the tail. *)

val repro : Spec.t -> string
(** {!execute_full} with a ring of {!tail_length} events, then
    {!dump}; a scenario that does not apply to the backend renders as
    a one-line note. *)
