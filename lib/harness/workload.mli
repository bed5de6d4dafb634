(** Population-scale workload generator over {!Sim.Shard}.

    Parameterised topologies (client/server farm, relay ring,
    scatter-gather tree) driven by open-loop (uniform arrivals over a
    window, Poisson-ish in superposition) or closed-loop (exponential
    think time) client populations, priced by the backend's kernel cost
    table like {!Shard_rpc}.  Populations scale from a handful to
    10k–1M simulated processes per run.

    The population is partitioned into small independent cells (a few
    clients plus their own servers/relays, so the server side scales
    horizontally).  Cells bound every node's causal neighborhood:
    vector clocks stay O(cell) wide however large the run, and all
    message objects are single-sender directed pairs, so workloads are
    race-free by construction.

    A client's last-round request (its only one under open load) and,
    under open load, every reply are final sends ({!Sim.Shard.send}
    [~final]), so the race detector forgets those objects once their
    message is received: an open-load run leaves it no per-client
    state.

    Reply latencies are recorded into one bounded {!Sim.Stats.Histogram}
    per shard and merged after the run; merge commutes, so the reported
    summary is byte-identical at any shard count and any [-j].

    Fault plans are not consulted — like ["shard-rpc"], workload
    scenarios are fault-inert by design. *)

type topology = Farm | Ring | Tree

type load =
  | Closed of { think : Sim.Time.t; rounds : int }
      (** each client waits an exponential think time (mean [think]),
          issues a priced request, blocks for the reply; [rounds]
          times *)
  | Open of { window : Sim.Time.t }
      (** each client issues one request at an arrival time drawn
          uniformly over [window]; offered load is
          population / window *)

val default_population : int
(** Population used when a spec carries no [~nN] axis — small enough
    that the default explore/chaos sweeps stay fast. *)

val max_population : int
(** The largest population {!run} accepts (one billion clients): a
    bound that keeps every derived count (cells, node ids) far from
    integer overflow.  {!Run.Exec.check} rejects larger [~nN] axes. *)

val default_load : topology -> load
val default_window : Sim.Time.t
(** The open-loop arrival window used by the registered ["wl-farm-open"]
    scenario. *)

type result = {
  r_ok : bool;
      (** every expected reply arrived with a verified checksum *)
  r_duration : Sim.Time.t;  (** virtual time at quiescence *)
  r_counters : (string * int) list;
      (** summed shard counters ([wl.requests], [wl.served],
          [wl.replies], [wl.errors]) *)
  r_detail : string;
  r_latency : Sim.Stats.Histogram.summary option;
      (** merged reply-latency summary; [None] only if no reply was
          recorded *)
  r_view : Sim.Engine.view;  (** the canonical merged view *)
}

val run :
  ?seed:int ->
  ?policy:Sim.Engine.policy ->
  ?shards:int ->
  topology:topology ->
  load:load ->
  population:int ->
  Backend_world.backend ->
  result
(** [population] counts client processes; servers/relays are added on
    top, one small group per cell.  Raises [Invalid_argument] unless
    [1 <= population <= max_population].  Payloads are 64..575 bytes;
    the default is one shard.  The scenario registry runs it from a
    {!Stage.ctx}; this labelled form is what the benchmark calls. *)
