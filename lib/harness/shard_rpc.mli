(** Shard-aware RPC workload: one simulation partitioned across domains
    via {!Sim.Shard}, priced by the backend's kernel cost table.

    [pairs] clients each run [rounds] request/reply exchanges against a
    dedicated server; every message costs the backend's minimum
    cross-node latency (the conservative lookahead — {!Charlotte.Costs.lookahead}
    and friends) plus a per-byte transfer term, and the server burns
    real CPU on a per-request checksum.  The merged outcome is
    byte-identical at every [shards] value; only the wall clock moves.

    Fault plans are not consulted — the conservative exchange assumes
    reliable in-order delivery — so the scenario is fault-inert (chaos
    plans change nothing, by design). *)

val cost_model : Backend_world.backend -> Sim.Time.t * Sim.Time.t
(** [(lookahead, per_byte)] from the backend's kernel cost table — the
    conservative minimum cross-node latency and the per-byte transfer
    term.  Shared with {!Workload}. *)

val checksum : key:int -> size:int -> spin:int -> int
(** The deterministic per-request CPU burn (pure int arithmetic over
    [size * spin] steps). *)

type result = {
  r_ok : bool;  (** every rpc completed with a verified checksum *)
  r_duration : Sim.Time.t;  (** virtual time at quiescence *)
  r_counters : (string * int) list;  (** summed shard counters *)
  r_detail : string;
  r_windows : int;  (** lookahead-window barrier count *)
  r_view : Sim.Engine.view;  (** the canonical merged view *)
}

val run :
  ?seed:int ->
  ?policy:Sim.Engine.policy ->
  ?shards:int ->
  ?pairs:int ->
  ?rounds:int ->
  ?max_payload:int ->
  ?spin:int ->
  ?pool:Parallel.Pool.Persistent.t ->
  Backend_world.backend ->
  result
(** Defaults: 4 pairs, 3 rounds, payloads of 64..1088 bytes, [spin] 1
    (the bench raises it to make the per-request CPU dominate), one
    shard.  [pool] lends resident domains across repeated runs. *)
