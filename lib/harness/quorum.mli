(** Majority-quorum replicated counter written in LYNX.

    One writer (node 0) drives rounds of monotonically-sequenced writes
    at five replicas (nodes 1–5); a write {e commits} when a majority
    (3) acks, and reads collect a majority whose maximum sequence
    number must cover the last commit — quorum intersection makes a
    stale read impossible, so a partitioned minority degrades to
    "unavailable", never to "wrong".  Replicas are last-writer-wins by
    sequence number, so duplicated and crash-held write replays are
    harmless.

    Under {!Faults.Plan.partition_minority} (replicas r4, r5 cut away)
    writes commit degraded; under {!Faults.Plan.partition_majority}
    (r3–r5 cut away) writes fail the quorum — and must keep failing
    {e safely} — until the window lifts.  The scenario {e reconverges}
    when a write is acked by all five replicas at or after the plan's
    {!Faults.Plan.window_close}; the virtual recovery time is stamped
    into the [recovery.recovered_at_us] counter for the {!Run.Liveness}
    judge, and any violated read safety shows up as [recovery.unsafe]
    (which both fails the run and the liveness verdict). *)

val deadline : Sim.Time.t
(** Virtual-time recovery budget measured from window close (the
    registry's recovery deadline for this scenario). *)

val run : Stage.ctx -> Backend_world.backend -> Stage.outcome
(** [o_ok]: reconverged after the fault window with no unsafe read. *)
