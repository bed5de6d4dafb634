(** The universal run specification.

    Every pipeline in the repo — the explore sweep, the chaos sweep,
    the race-detector replay, the repro command — runs the same thing:
    one {!Harness.Scenarios} scenario on one {!Harness.Backend_world}
    backend under one seed, one scheduling policy and (optionally) one
    fault plan.  A [Spec.t] names that run completely, and its
    canonical string form

    {v scenario/backend/seed/policy[@plan][~nN][~sK] v}

    is the repro handle: any spec printed in a CLI table, CI log or
    test failure can be parsed back with {!of_string} and re-executed
    with {!Exec.execute} to reproduce the identical run — same
    verdict, same violations, same event-stream fingerprint.  A fault
    plan always follows a policy ([fifo@drop]); a plan in the policy
    position is a parse error. *)

type policy = Fifo | Random | Jitter
(** Scheduling policy kind.  The concrete engine policy derives its
    scheduling seed from the case seed ({!engine_policy}), so one
    integer reproduces the whole run. *)

val all_policies : policy list
val policy_name : policy -> string
val policy_of_string : string -> policy option

val engine_policy : policy -> seed:int -> Sim.Engine.policy
(** [Jitter] uses a 20us bound — well under the millisecond-scale
    timing margins the scenarios are written with. *)

type plan =
  | Screen  (** no faults, LYNX screening armed — the overhead baseline *)
  | Drop
  | Duplicate
  | Delay
  | Crash_restart
  | Partition
  | Mix
  | Leader_crash
      (** crash the process registered as "leader" for a long outage *)
  | Partition_minority  (** cut a 2-of-5 replica minority away *)
  | Partition_majority  (** cut a 3-of-5 replica majority away *)

val all_plans : plan list
(** The generic fault-injecting plans, in sweep order ([Screen]
    excluded: it injects nothing and is opt-in by name).  The three
    targeted plans aim at specific protocol topologies (named victims,
    replica-group cuts), so they are opt-in per case ([--plan
    leader-crash]) rather than part of the default chaos product. *)

val plan_name : plan -> string
val plan_of_string : string -> plan option
val fault_plan : plan -> Faults.Plan.t

type t = {
  scenario : string;
  backend : string;
  seed : int;
  policy : policy;
  plan : plan option;
      (** [None]: clean run; [Some p] reaches the scenario as
          [ctx.plan = Some (fault_plan p)] *)
  population : int option;
      (** simulated client population for parameterised workload
          scenarios ([None]: the scenario's default size).  Printed as a
          [~nN] suffix with K/M multipliers when they divide evenly
          ([~n100K], [~n2M]), so a million-process run is a one-line
          repro handle.  Rejected by {!Exec.check} on scenarios that are
          not parameterised. *)
  shards : int;
      (** domains the simulation is partitioned across (default 1:
          ordinary single-engine run).  Sharded execution is
          byte-identical to [shards = 1] — the conservative-window
          engine ({!Sim.Shard}) guarantees it — so the axis changes
          wall-clock, never verdicts or fingerprints.  Printed as a
          [~sK] suffix, omitted when 1. *)
}

val v :
  ?policy:policy ->
  ?plan:plan ->
  ?population:int ->
  ?shards:int ->
  scenario:string ->
  backend:string ->
  int ->
  t
(** [v ~scenario ~backend seed] with [Fifo], no plan, default population,
    one shard.  Raises [Invalid_argument] if
    [shards < 1] or [population < 1]. *)

val product :
  ?scenarios:string list ->
  ?backends:string list ->
  ?seeds:int list ->
  ?policies:policy list ->
  ?plans:plan option list ->
  ?population:int ->
  ?shards:int ->
  unit ->
  t list
(** Every combination of the axes, in scenario → backend → seed →
    policy → plan order — the spec list of every sweep.  Defaults: all
    registered scenarios, the three primary backends, seed 1, [Fifo],
    no plan ([\[None\]]), the default population, one shard.
    Combinations a scenario does not apply to are kept; {!Exec.execute}
    returns [None] for them.  Raises [Invalid_argument] like {!v}. *)

val population_to_string : int -> string
(** ["100K"], ["2M"], ["1234"] — the [~n] suffix payload. *)

val population_of_string : string -> int option
(** Inverse of {!population_to_string}; also what [lynx_sim workload -n]
    accepts.  [None] on empty/zero/negative/garbage, and on a value
    that does not fit in an [int] once multiplied out. *)

val to_string : t -> string
(** The canonical
    ["scenario/backend/seed/policy[@plan][~nN][~sK]"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: [of_string (to_string s) = Ok s] for every
    spec (QCheck-tested).  Scenario and backend names are checked only
    syntactically here; {!Exec.execute} rejects unknown ones.  A [~]
    suffix other than one [~nN] and one [~sK] is an error. *)

val of_string_exn : string -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
