(** Semantic invariants every LYNX scenario run must satisfy, on every
    backend, under every scheduling policy and seed.

    The paper's claim is that one language semantics survives three
    radically different kernels; these checks are the machine-checkable
    core of that claim.  They are evaluated against the {!Sim.Engine.view}
    snapshot and the counter increments a scenario returns — nothing here
    re-runs the scenario. *)

type violation = {
  v_invariant : string;  (** which invariant, one of {!names} *)
  v_detail : string;  (** what was observed *)
}

val names : string list
(** All invariant names, in check order:
    ["no-deadlock"], ["no-leaked-fibers"], ["time-monotone"],
    ["link-conservation"], ["at-most-once"]. *)

val check : Harness.Scenarios.outcome -> violation list
(** Empty when the run is clean.

    - [no-deadlock]: no non-daemon fiber is still blocked once the event
      queue has drained — the scenario must reach quiescence, not starve.
    - [no-leaked-fibers]: after quiescence no fiber is left runnable (a
      continuation was enqueued but never run) and none crashed.
    - [time-monotone]: the timestamps of the retained structured events
      ([v_events]) never decrease and never exceed the engine clock.
    - [link-conservation]: link ends are conserved across moves — every
      adopted end balances a moved-out end
      ([lynx.ends_adopted <= lynx.ends_moved_out]).
    - [at-most-once]: no message is delivered more often than it was sent
      ([lynx.messages_delivered <= lynx.messages_sent]). *)

val check_streamed :
  Analysis.Stream.summary -> Harness.Scenarios.outcome -> violation list
(** The same suite evaluated against a streaming-analyzer summary: the
    structural checks (deadlock, leaked fibers, counters) read the
    outcome exactly as {!check} does, while time monotonicity comes
    from the running counters the analyzer maintained over the whole
    stream instead of the retained events — so the verdict does
    not depend on how much of the log was kept.  On any run whose
    stream is monotone (every run the engine itself produces), the
    result is identical to {!check}. *)

val to_string : violation -> string
