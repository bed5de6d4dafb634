(** Declarative, seeded, deterministic fault injection.

    A {!Plan.t} describes which faults to inject — message drop,
    duplication, delay spikes, node crash/restart, network partition —
    and with what probabilities and windows.  An {!Injector.t} applies a
    plan to one simulated world: it draws from its own {!Sim.Rng} stream
    (split off the engine's root stream, so injecting a fault never
    perturbs the scheduling randomness of the unfaulted path) and
    schedules everything on the engine clock, so a faulted run is as
    byte-reproducible as a clean one.

    The model is {e fail-recover}, matching the paper's transports:
    Charlotte links are reliable once established (§2.2), SODA requests
    are unreliable but the kernel retransmits (§3.2), and Chrysalis
    flags survive crashes while dual-queue hints do not (§4.3).  So an
    injected drop is a lost frame {e followed by a lower-layer
    retransmission} after {!Plan.t.retransmit}; a crash stalls the
    victim's inbound deliveries until restart.  Faults therefore never
    wedge a run — what they do is widen windows: duplicated deliveries
    probe at-most-once dedup, delayed replies fire LYNX screening
    timeouts, retransmitted requests race their own retries.  Fail-stop
    death (no recovery) is modeled separately by killing processes
    outright (see test/test_faults.ml).

    A plan is a run parameter: it travels in the run context
    ([Harness.Stage.ctx]) to the world's [create ?plan], and
    {!Lynx.World} builds the injectors from it, one for the LYNX ops
    seam and one handed to the kernel.  Kernels and networks see only
    an injector, never a plan.  With no plan, all hooks are inert and
    the simulation is byte-identical to one built before this module
    existed. *)

module Plan : sig
  type screening = {
    s_timeout : Sim.Time.t;  (** first-attempt reply timeout *)
    s_backoff : int;  (** timeout multiplier per retry *)
    s_timeout_cap : Sim.Time.t;  (** backoff ceiling *)
    s_budget : int;  (** total attempts before {!Lynx} gives up *)
  }
  (** Per-request screening policy the LYNX runtime applies on top of an
      unreliable transport (§5: screening belongs to the language
      runtime, not the kernel). *)

  val floor_screening : rtt:Sim.Time.t -> screening -> screening
  (** Raise [s_timeout] and [s_timeout_cap] to at least twice [rtt] —
      the backend's nominal RPC round trip.  A reply timeout below the
      transport's round trip misfires on every healthy call; the
      resulting retransmissions and cached re-replies can congest a
      serialised transport (Charlotte's ring) into a retry storm.  Each
      backend world applies this before arming a process's screening. *)

  type cut =
    | Parity  (** odd- vs even-numbered nodes (the historical split) *)
    | High of int
        (** nodes [>= k] cut away from nodes [< k] — lets a plan isolate
            a chosen minority or majority of a replica group *)

  type t = {
    label : string;
    drop : float;  (** per-delivery probability a frame is lost *)
    dup : float;  (** per-delivery probability a frame is duplicated *)
    delay : float;  (** per-delivery probability of a delay spike *)
    delay_bound : Sim.Time.t;  (** delay spikes are uniform in [0, bound) *)
    retransmit : Sim.Time.t;
        (** lower-layer retransmission interval: a dropped frame is
            redelivered (and re-judged) this much later; also the lag of
            a duplicate's second copy *)
    crash_at : Sim.Time.t option;
        (** when to crash one process (picked by the injector) *)
    restart_after : Sim.Time.t option;
        (** outage length; defaulted when [crash_at] is set, so a crash
            always heals and runs always terminate *)
    crash_victim : string option;
        (** crash the registered process with this name (deterministic
            targeting, e.g. "crash the leader"); falls back to the
            seeded draw when nothing matches *)
    partition_at : (Sim.Time.t * Sim.Time.t) option;
        (** window during which nodes on opposite sides of
            [partition_cut] cannot exchange frames (deliveries stall
            until heal) *)
    partition_cut : cut;  (** which nodes the partition separates *)
    screening : screening option;
        (** armed on every process of a faulted world *)
  }

  val none : t
  (** No faults, screening still armed — the overhead baseline. *)

  val drops : t
  val dups : t
  val delays : t
  val crash_restart : t

  val partition : t
  (** Cut odd from even nodes for \[1 ms, 4 ms).  The window closes
      before any scenario's first cross-node frame (a Charlotte frame
      alone costs about 26 ms), so this plan cuts nothing: every run
      has the events hash it has under {!none}, and the chaos sweep's
      [partition] column tests screening, not a cut. *)

  val mix : t

  val leader_crash : t
  (** Crash the process registered as "leader" at 10 ms for a 300 ms
      outage, screening tight enough to detect it — the re-election
      stress test. *)

  val partition_minority : t
  (** Cut nodes [>= 4] away for \[10 ms, 300 ms) — isolates a 2-of-5
      replica minority, so quorum writes degrade but commit. *)

  val partition_majority : t
  (** Cut nodes [>= 3] away for \[10 ms, 300 ms) — isolates a 3-of-5
      majority, so quorum writes must fail (and stay safe) until heal. *)

  val validate : t -> t
  (** Clamps probabilities to [0, 0.95] (a drop probability of 1 would
      retransmit forever) and defaults [restart_after] when [crash_at]
      is set. *)

  val window_close : t -> Sim.Time.t
  (** Virtual time at which the last fault window closes (crash healed,
      partition lifted); {!Sim.Time.zero} for windowless plans.  The
      liveness judge measures recovery deadlines from here. *)

  val to_string : t -> string
end

val transport_loss :
  Sim.Engine.t ->
  Sim.Stats.t ->
  counter:Sim.Stats.key ->
  obj:string ->
  op:string ->
  unit
(** Records a modeled transport-level frame loss — a counter bump plus a
    typed {!Sim.Event.Drop} — for losses that are part of the network
    model itself (CSMA broadcast loss) rather than injected. *)

module Injector : sig
  type t

  type verdict =
    | Pass
    | Hold of Sim.Time.t
        (** deliver after an extra delay (drop-then-retransmit collapses
            to this; so do delay spikes and partition/outage stalls) *)
    | Dup of Sim.Time.t  (** deliver now and again after the lag *)

  val create : Sim.Engine.t -> stats:Sim.Stats.t -> Plan.t -> t
  (** Validates the plan, splits a private rng off the engine's root
      stream, and schedules the crash (if any).  One injector per world
      (or per shared transport). *)

  val screening : t -> Plan.screening option

  val wrap_delivery :
    t option ->
    ?src:int ->
    ?dst:int ->
    obj:string ->
    op:string ->
    (unit -> unit) ->
    unit ->
    unit
  (** Decorates a transport delivery callback (kernel message paths):
      each invocation draws a fault and either runs the callback, delays
      it, or also schedules a second run.  A stalled or dropped frame is
      retried by rescheduling the decorated closure itself, so a frame
      builds one closure however often it is retried.  [src]/[dst] are
      node numbers for the partition check.  [None] is the identity —
      the unfaulted path stays byte-identical. *)

  val rx_verdict : t -> obj:string -> op:string -> verdict
  (** Judges one received LYNX frame at the backend boundary (the
      [b_take] side) — the end-to-end layer where duplicates probe
      at-most-once dedup and stalls fire screening timeouts. *)

  val register_victim : t -> name:string -> int
  (** Registers a crash candidate; returns its victim id for
      {!outage}.  Registration order is deterministic, so the victim
      draw is too. *)

  val outage : t -> int -> Sim.Time.t option
  (** [Some lag] while the victim is down: hold its inbound deliveries
      for [lag] (until just past restart).  [None] otherwise. *)
end
