(** Happens-before race detector.

    Runs post-hoc over the structured event stream a finished engine
    exposes ({!Sim.Engine.events}), using the vector clocks stamped on
    each event.  Two events are a race candidate only when their clocks
    are incomparable ({!Sim.Vclock.concurrent}) — ordered operations on
    the same object are the normal case, not a finding.

    Rules (stable codes):

    - [R-MSG] — two sends into the same receive queue with concurrent
      clocks: the arrival order is a scheduler accident.  Queue objects
      are per-direction and per-kind (request vs reply), so the shipped
      point-to-point scenarios are clean by construction.
    - [R-SIG] — a lost-signal window, in either of two shapes.
      Check-then-block miss (the Chrysalis dual-queue worry, §5.2): a
      signal that was queued rather than delivered ([woke = false]) and
      never consumed by a later signal-seen, while a waiter on the same
      object blocked with a concurrent clock and was itself never woken
      — served waits are excluded, since a wait a later enqueue handed
      a datum to lost nothing.  Latched-interrupt loss (SODA's masked
      software interrupts, where consumers never block): a queued
      signal the FIFO drain skipped, with a later concurrent
      signal-seen on the same object.
    - [R-MOVE] — a link-end transfer racing an in-flight message: a
      send into one of the moved end's queues whose clock is concurrent
      with the move, and which no later receive on that queue consumed.
      The unmatched clause keeps Charlotte's bounce-and-retransmit
      paths (which eventually deliver) out of the findings.

    At most one finding is reported per (rule, object): the first
    offending pair, with a count of how many candidates that object
    had. *)

type finding = {
  r_rule : string;  (** "R-MSG" | "R-SIG" | "R-MOVE" *)
  r_obj : string;  (** kernel object the race is on *)
  r_detail : string;
}

type state
(** Incremental detector state: per-object arrival state fed one event
    at a time, retaining O(live state) rather than the stream — send
    records (R-MSG is pairwise over them), unserved signal/wait
    suffixes (consumed prefixes are pruned as the matching seen/wake
    counts grow), and running counters.  The bulky event kinds
    (Block/Note/Spawn/...) are never retained.

    Objects have lifetimes: an object whose {!Sim.Event.Final} send is
    in, with no pair, signal, wait or move state, is dropped whole once
    its receives catch up with its sends.  Dropping is exact — such an
    object can change no finding — so a stream's findings equal those
    of the same stream with every [Final] read as [Ordered]. *)

val init : unit -> state

val feed : state -> Sim.Engine.consumer
(** [feed st time fiber clock kind] feeds the next event's parts, in
    stream order: [feed st] is an engine consumer.  Mutates the state;
    keeps a send's clock and nothing of the other kinds.  Raises
    [Invalid_argument] (one line) on a send to a retired object — one
    whose [Final] send is in while a message on it is still in flight:
    the stream broke the promise [Final] made. *)

val findings : state -> finding list
(** Conclude the rules over the accumulated state.  The state remains
    usable: feeding more events and concluding again is permitted. *)

val analyze : Sim.Event.t array -> finding list
(** Events oldest-first, as {!Sim.Engine.events} returns them.
    Equivalent to [init]/[feed]/[findings] by construction — it {e is}
    that fold, through {!Sim.Event.apply} — so post-hoc analysis of a retained log and online
    analysis of the same stream agree exactly. *)

val pp_finding : Format.formatter -> finding -> unit
