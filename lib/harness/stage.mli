(** The one shape of a scenario: [ctx -> backend -> outcome].

    Every scenario receives its run parameters as a {!ctx} and reports
    one {!outcome}.  Those on a single engine run under {!stage}, which
    owns what they all share: the engine, the world, the ["driver"]
    fiber that builds the links, the stats baseline and the outcome.
    Scenario-specific inputs (an enclosure count, a loss rate) stay
    labelled arguments in front of the [ctx]. *)

type ctx = {
  seed : int;
  policy : Sim.Engine.policy;
  shards : int;
      (** partitions the simulation across domains via {!Sim.Shard}.
          Only shard-aware scenarios (["shard-rpc"] and the workloads)
          fan out; the outcome is byte-identical at every value, so the
          axis never changes a verdict. *)
  population : int option;
      (** sizes parameterised scenarios ([None]: the scenario default) *)
  plan : Faults.Plan.t option;
      (** faults every world {!stage} builds ([None]: a clean run, no
          injector, no extra RNG split).  Scenarios that build no LYNX
          world (["shard-rpc"], the workloads) run unfaulted. *)
}
(** The run parameters a scenario receives — {!Run.Exec} builds one
    from a spec. *)

val default : ctx
(** Seed 42, FIFO scheduling, one shard, the default population, no
    fault plan.  A caller that wants another seed writes
    [{ default with seed }]. *)

type outcome = {
  o_ok : bool;  (** did the scenario reach its expected final state *)
  o_duration : Sim.Time.t;  (** virtual time from kickoff to quiescence *)
  o_counters : (string * int) list;  (** counter increments during the run *)
  o_detail : string;  (** human-readable summary of what happened *)
  o_seed : int;  (** the seed the scenario ran under *)
  o_policy : string;  (** scheduling policy name, e.g. "fifo" *)
  o_latency : Sim.Stats.Histogram.summary option;
      (** merged reply-latency summary, reported by the parameterised
          workload scenarios; [None] elsewhere *)
  o_view : Sim.Engine.view;
      (** engine state at the end of the run, for invariant checking *)
}

val counter : outcome -> string -> int
(** [counter o name] is the increment of [name] during the scenario
    (0 if absent). *)

val report :
  ctx ->
  ok:bool ->
  detail:string ->
  duration:Sim.Time.t ->
  counters:(string * int) list ->
  Sim.Engine.view ->
  outcome
(** The outcome of a run under [ctx], with no latency summary.  The
    sharded scenarios build theirs with it; {!stage} does for the
    rest. *)

(** {1 The single-engine skeleton} *)

type scene = {
  links : unit -> unit;
      (** Runs in the ["driver"] fiber, spawned after the scenario's
          processes: builds the links and hands their ends to the
          processes.  Under {!stage}, the stats baseline and the start
          of [o_duration] are taken when it returns. *)
  verdict : unit -> bool * string;
      (** Read once the run is over: [o_ok] and [o_detail]. *)
}

val stage :
  ctx ->
  Backend_world.backend ->
  nodes:int ->
  (Sim.Engine.t -> Lynx.World.t -> scene) ->
  outcome
(** [stage ctx backend ~nodes scene] creates the engine from [ctx],
    builds the backend's world of [nodes] nodes under [ctx.plan], lets
    [scene] spawn the processes, spawns the driver and runs the engine
    until the event queue drains.  A scenario that needs a differently
    configured kernel passes a backend of its own, built the way the
    ablation variants of {!Backend_world} are. *)

val stage_until :
  Sim.Time.t ->
  ctx ->
  Backend_world.backend ->
  nodes:int ->
  (Sim.Engine.t -> Lynx.World.t -> scene) ->
  outcome
(** {!stage} for a scenario whose links are its load and whose failure
    is a run that never drains.  The stats baseline comes before
    [links] runs, so the links' own traffic counts; the run is cut off
    at the given virtual time, and [o_duration] is the whole run, from
    time zero. *)
