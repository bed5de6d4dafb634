(** Shard-aware RPC workload: one simulation partitioned across domains
    via {!Sim.Shard}, priced by the backend's kernel cost table.

    Four clients each run three request/reply exchanges against a
    dedicated server; every message costs the backend's minimum
    cross-node latency (the conservative lookahead — {!Charlotte.Costs.lookahead}
    and friends) plus a per-byte transfer term (payloads of 64..1087
    bytes), and the server burns real CPU on a per-request checksum.
    The merged outcome is byte-identical at every [shards] value of the
    context; only the wall clock moves.

    Fault plans are not consulted — the conservative exchange assumes
    reliable in-order delivery — so the scenario is fault-inert (chaos
    plans change nothing, by design). *)

val cost_model : Backend_world.backend -> Sim.Time.t * Sim.Time.t
(** [(lookahead, per_byte)] from the backend's kernel cost table — the
    conservative minimum cross-node latency and the per-byte transfer
    term.  Shared with {!Workload}. *)

val checksum : key:int -> size:int -> int
(** The deterministic per-request CPU burn (pure int arithmetic over
    [size] steps). *)

val run : Stage.ctx -> Backend_world.backend -> Stage.outcome
(** [o_ok]: every rpc completed with a verified checksum.  The counters
    are the shards' summed counters, the view the canonical merged one,
    and the detail counts the lookahead-window barriers. *)
