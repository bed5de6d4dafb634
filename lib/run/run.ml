(** The run core: one spec, one pipeline, one artifact.

    {!Run.Spec} names a run ("scenario/backend/seed/policy[@plan]" —
    the universal repro handle), {!Run.execute} performs it (resolve
    against the scenario and backend registries, arm the fault plan,
    run, judge), and {!Run.Artifact} is what it produced and renders
    it.  Every sweep — explore, chaos, the race-detector replay, the
    static soundness sweep, the workloads — is the same three steps: a
    {!Run.Spec.product} spec list, {!Run.execute_many}, and renderers
    over the artifacts. *)

module Spec = Spec
module Artifact = Artifact
module Json = Json
module Invariant = Invariant
module Liveness = Liveness
module Soundness = Soundness
include Exec
