(** Ring leader election written in LYNX (paper §5: screening and
    recovery belong to the language runtime and the application, not the
    kernel).

    Four candidates (nodes 0–3) form a ring with chord shortcuts — the
    full mesh, for n = 4 — and elect a leader Chang–Roberts style: an
    [elect (epoch, id)] wave circulates, each hop keeping the maximum
    id; when a candidacy returns to its owner it has seen the whole
    ring, and a [coord (epoch, leader)] wave announces the result.  All
    protocol state is a lattice — a candidate accepts only
    lexicographically increasing [(epoch, id)] pairs — so duplicated,
    delayed or crash-held replays are harmless and racing waves
    converge to the maximum.

    A monitor process (node 4) pings the believed leader; a screening
    timeout on that ping is the failure signal (there is no kernel
    failure notification — the paper's position), and the monitor
    reacts by kicking a fresh election epoch.  Each candidate forwards
    through one relay coroutine fed by an ivar-chained mailbox, so all
    its sends are program-ordered and a dead successor is routed around
    via the chord.

    The scenario {e recovers} when the monitor confirms a self-believing
    leader at or after the {!Faults.Plan.window_close} of the context's
    plan ([ctx.plan]); it then stamps the virtual recovery
    time into the [recovery.recovered_at_us] counter, which the
    {!Run.Liveness} judge reads.  Under {!Faults.Plan.leader_crash} the
    incumbent (registered by name as "leader") goes silent for 160 ms
    and the ring must re-elect; under the partition plans the monitor
    or a candidate minority is cut away and must reconverge after
    heal. *)

val deadline : Sim.Time.t
(** Virtual-time recovery budget measured from window close (the
    registry's recovery deadline for this scenario). *)

val run : Stage.ctx -> Backend_world.backend -> Stage.outcome
(** [o_ok]: a leader was confirmed after the fault window. *)
