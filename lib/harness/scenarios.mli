(** The paper's qualitative scenarios, runnable on every backend.

    Each returns an {!outcome} whose counters record the protocol
    traffic the scenario caused — the quantitative form of the paper's
    §6 comparison.  All scenarios are deterministic per seed. *)

open Backend_world

include module type of struct
  include Stage
end

val simultaneous_move : ctx -> backend -> outcome
(** Figure 1: A and D hold the two ends of one link and move them at the
    same instant (A's end to B, D's end to C); a B->C call over the
    moved link proves it survived. *)

val enclosure_protocol : n_encl:int -> ctx -> backend -> outcome
(** Figure 2: one request moving [n_encl] ends, answered by an empty
    reply.  Under Charlotte the kernel-message count grows with
    [n_encl]; under SODA and Chrysalis it does not. *)

val cross_request : ctx -> backend -> outcome
(** §3.2.1, first case: B requests an operation in the reverse direction
    before replying, while A's request queue is closed.  Charlotte must
    bounce it with [Forbid]/[Allow]. *)

val open_close_race : ctx -> backend -> outcome
(** §3.2.1, second case: A opens and closes its request queue before a
    block point while B's request is in flight; the failed [Cancel]
    delivers an unwanted message that Charlotte returns with [Retry]. *)

val lost_enclosure : ctx -> backend -> outcome
(** §3.2.2: B receives a request (enclosing an end) it never wanted and
    dies before bouncing it.  Under Charlotte the end is lost; under
    SODA and Chrysalis the failed send recovers it. *)

val bounced_enclosure : ctx -> backend -> outcome
(** An unwanted request carrying a link end: under Charlotte the bounce
    returns the enclosure and the retransmission delivers it once the
    receiver is willing; under SODA/Chrysalis the message just waits.
    Either way the end must arrive intact. *)

val soda_pair_pressure :
  ?budget:bool ->
  ctx ->
  backend ->
  outcome
(** SODA-specific (§4.2.1): six links between one pair, one call on
    each within 2 s of virtual time, press on the kernel's
    outstanding-request limit.  With the channel layer's
    signal budget everything completes; with [budget:false] the data
    puts starve — the deadlock the paper warns about.  It builds its
    own SODA world: the backend argument is not read. *)

val soda_hint_repair : ?broadcast_loss:float -> ctx -> backend -> outcome
(** SODA-specific (§4.2): a doubly-stale hint (the end moved on and the
    forwarding-cache holder died) repaired by discover and, as the
    broadcast gets lossier, by the freeze/unfreeze absolute search.
    It builds its own SODA world: the backend argument is not read. *)

(** {1 The scenario registry}

    One entry per runnable scenario: its sweep name, an [applies_to]
    predicate naming the backends it runs on, and a uniform runner.
    Every sweep pipeline — explore, chaos, the races replay, repro —
    resolves scenarios here instead of keeping its own name-matched
    list, so a new scenario plugs into all of them with one entry. *)

type registered = {
  sc_name : string;
  sc_applies_to : backend -> bool;
      (** which backends the scenario runs on; SODA-specific scenarios
          (["hint-repair"], ["pair-pressure"]) apply only to SODA *)
  sc_parameterised : bool;
      (** accepts a population — the spec's [~nN] axis.  Only the
          workload scenarios (["wl-farm"], ["wl-farm-open"],
          ["wl-ring"], ["wl-tree"]) do; {!Exec.check} rejects a
          population on any other scenario. *)
  sc_run : ctx -> backend -> outcome;
  sc_recovery_deadline : Sim.Time.t option;
      (** for fault-tolerant scenarios: the virtual-time budget, counted
          from the fault plan's {!Faults.Plan.window_close}, within
          which the scenario must stamp [recovery.recovered_at_us].
          [None] means the liveness judge reports [Vacuous]. *)
}

val registry : registered list
(** All scenarios, in sweep order. *)

val names : string list
val find : string -> registered option
val applies : registered -> backend -> bool
