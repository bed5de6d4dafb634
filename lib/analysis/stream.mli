(** Online analyzer over the structured event stream.

    The post-hoc analyses ({!Races.analyze}, the invariant suite's
    trace checks) used to require the full retained event log, tying
    peak memory to run length.  This module is their incremental form:
    an analyzer is [init]ialised, [feed] one event at a time in stream
    order — typically from a streaming consumer registered with
    {!Sim.Engine.add_consumer} — and [finish]ed into a {!summary} once
    the run completes.

    Memory is O(live state), not O(stream): the race detector retains
    per-object send/move records and the unserved signal/wait suffixes
    (consumed prefixes are pruned as they are matched), and everything
    else is running counters.  The high-volume event kinds
    (Block/Note/Spawn/...) are never retained.

    Equivalence with the post-hoc passes is by construction:
    {!Races.analyze} is a fold of the same feed function, and
    {!of_events} re-runs this analyzer over a retained log — the
    differential suite in [test/test_stream.ml] checks both agree on
    every scenario, backend, seed and fault plan it samples. *)

type t
(** Analyzer state.  Mutable. *)

type summary = {
  s_events : int;  (** events fed, retained or not *)
  s_sends : int;
  s_receives : int;
  s_drops : int;
  s_last : (Sim.Time.t * string) option;
      (** last event's time and kind label, [None] on an empty stream *)
  s_backwards : (Sim.Time.t * string * Sim.Time.t) option;
      (** first timestamp regression: time, kind label, previous time *)
  s_races : Races.finding list;
}

val init : unit -> t

val feed : t -> Sim.Engine.consumer
(** [feed t time fiber clock kind] feeds the next event's parts, in
    stream order: [feed t] is the consumer a run registers with
    {!Sim.Engine.add_consumer}.  Allocation-free on the per-event path
    apart from what the race detector retains. *)

val finish : t -> summary
(** Conclude the analyses.  The state remains usable: feeding further
    events and finishing again is permitted. *)

val of_events : Sim.Event.t array -> summary
(** [finish] of [feed] folded over a retained log, oldest first, each
    record through {!Sim.Event.apply} — the post-hoc entry point, equal
    by construction to streaming the same events. *)
