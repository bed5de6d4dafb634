(** Conservative-window parallel discrete-event simulation: one
    simulation partitioned by node across OCaml domains.

    A [Shard.t] owns [K] ordinary {!Engine.t}s, one per shard, each
    pinned to one domain of a resident {!Parallel.Pool.Persistent}
    pool.  Nodes — sequential actors, each a stackless fiber
    ({!Engine.spawn_stackless}) — are assigned to shards
    round-robin by global id; a shard drains its own task queue freely
    within a virtual-time window of length [lookahead] (the minimum
    cross-node message latency, derived from the backend's kernel cost
    tables), and all inter-node messages are exchanged at the window
    barriers.  Because every message's latency is at least the
    lookahead, a message sent inside a window can only be delivered in
    a strictly later drain — the classic PDES conservative-window
    argument — so shards never see each other mid-window.

    {b Determinism contract.}  The merged run is byte-identical at
    every shard count: same merged event stream, same
    {!Engine.view}[.v_events_hash], same counters, same analysis
    verdicts at [~shards:1], [2] and [8].  Everything observable is
    keyed by global node id, never by shard:

    - fiber ids are assigned globally ([Engine.spawn ~fid:node_id]);
    - each node draws from its own {!Rng.derive}d stream;
    - messages carry the sender's {!Vclock} snapshot and are injected
      with it ({!Engine.inject}), so happens-before edges cross shards;
    - barrier deliveries are enqueued in the canonical order
      [(deliver_time, dst, src, per-sender seq)];
    - per-shard event buffers are stably merged at each barrier by
      [(time, owner fiber)] and absorbed into a sink engine
      ({!Engine.absorb}), which therefore exposes the canonical stream
      (and its exact fingerprint) through the ordinary engine surface —
      including to the ambient {!Engine.with_observer}, so streaming
      analyses stay exact.

    Schedule-exploration policies are reinterpreted at the barriers,
    where cross-shard nondeterminism actually lives: sub-engines always
    run Fifo; [Random_order] permutes simultaneous deliveries with a
    coordinator stream and [Delay_jitter] perturbs delivery times —
    both drawn in canonical message order, hence shard-count-invariant.

    Fault plans are not consulted: the conservative exchange assumes
    reliable in-order delivery, so sharded scenarios are fault-inert
    (like the SODA-only scenarios are on other backends). *)

type 'msg t
(** A sharded simulation whose messages carry ['msg] payloads. *)

type 'msg ctx
(** A node's handle to its own shard-local engine; valid only inside
    that node's steps. *)

val create :
  ?shards:int ->
  ?seed:int ->
  ?policy:Engine.policy ->
  ?log_capacity:int ->
  lookahead:Time.t ->
  unit ->
  'msg t
(** [create ~lookahead ()] makes a coordinator with [shards] partitions
    (default 1; 1 runs inline with no pool).  [seed] keys every node's
    rng stream; [policy] is applied at the barriers as described above;
    [log_capacity] configures the merge sink exactly as it would a
    plain {!Engine.create} (the sink also adopts the
    ambient {!Engine.with_observer}).  With [shards > 1] each {!run}
    spawns and joins a resident pool, and shard [i] always runs on its
    slot [i mod workers].  Raises
    [Invalid_argument] if [lookahead] is zero or [shards < 1]. *)

val shards : 'msg t -> int
val lookahead : 'msg t -> Time.t

val add_node : 'msg t -> ?daemon:bool -> ?name:string -> ('msg ctx -> unit) -> int
(** Registers a node program and returns its global id (dense from 0,
    also its fiber id, default name ["node<id>"]).  The program is the
    node's first step (see the step contract below).  The node's shard
    is [id mod shards].  Must be called before {!run}; [daemon] nodes
    (e.g. servers parked in {!recv}) are excluded from quiescence
    accounting. *)

val run : ?expect_quiescent:bool -> 'msg t -> unit
(** Drives windows until every shard is quiescent and no message is in
    flight.  Node crashes re-raise {!Engine.Fiber_crash} (first by node
    id); with [expect_quiescent], raises {!Engine.Deadlock} naming
    blocked non-daemon nodes.  May be called once.

    The coordinator keeps only what a later window or result can read:
    a node that finishes is released by its engine, and each window's
    events leave the per-shard buffers once the sink has absorbed them
    (the sink retains them only per its [log_capacity]).

    A barrier allocates nothing per message or event: outboxes and
    event buffers are per-shard growable arrays reused window after
    window, the canonical orders are sorted in place through reusable
    scratch arrays (a buffer already in order is only checked), and
    every vacated slot is cleared. *)

(** {1 Node operations} — callable only from inside a node's steps.

    A node is stackless: it holds no stack while it waits, only the
    callback it handed to {!recv} or {!sleep}.  A program is therefore
    written as a chain of steps, a loop as a recursive function:

    {[
      let rec serve left =
        if left > 0 then
          Shard.recv ctx (fun msg -> reply ctx msg; serve (left - 1))
      in
      serve n
    ]}

    The rules are {!Engine}'s step contract: {!recv} and {!sleep} are
    the last action of a step, at most one per step (a second raises
    [Invalid_argument]); an exception escaping a step is the node's
    crash; a step that returns without calling either ends the node.
    When a message is already queued, {!recv} calls its callback at
    once, on the main stack, so the stack depth of a node draining its
    inbox is bounded by the inbox length. *)

val self : 'msg ctx -> int
val home : 'msg ctx -> int
(** The shard (domain) index this node is placed on ([node id mod
    shards]).  Lets callers keep per-shard accumulators (e.g. one
    {!Stats.Histogram} per shard, merged after the run) without
    cross-domain writes: a node's fiber only ever runs on its home
    shard's domain. *)

val now : 'msg ctx -> Time.t

val rng : 'msg ctx -> Rng.t
(** The node's private stream, keyed by [(seed, node id)] — identical
    at every shard count. *)

val send :
  'msg ctx -> dst:int -> latency:Time.t -> ?op:string -> ?final:bool -> 'msg -> unit
(** Sends to node [dst] (self-sends allowed), arriving [latency] after
    now; pass the lookahead for the earliest delivery.  Raises
    [Invalid_argument] if [latency] is below the lookahead — the
    conservative bound is the correctness of the whole exchange.  The
    latency is a plain argument, not an option, so a send builds no
    [Some] for it.  Emits an {!Event.Send} on the
    per-direction object ["n<src>->n<dst>"].

    [final] (default [false]) marks the send {!Event.Final}: the caller
    promises this node sends nothing more to [dst], so once [dst] has
    received it a streaming consumer may forget the object.  Pass
    [~final:true], a constant, or an option chosen between the constants
    [Some true] and [None]: a [Some] built per call would cost a block
    per send. *)

val recv : 'msg ctx -> ('msg -> unit) -> unit
(** [recv ctx k] takes the next message and continues with [k msg],
    waiting (blocked, reason ["recv"]) until one arrives if the inbox is
    empty; delivery order is the canonical barrier order.  Emits an
    {!Event.Receive} and merges the sender's clock into the node's
    before [k] runs.  A waiting [recv] parks the node's fiber
    ({!Engine.park}); the node keeps [k], and the delivery wakes the
    fiber ({!Engine.wake}), so a parked receive allocates nothing
    beyond the wake's task. *)

val sleep : 'msg ctx -> Time.t -> (unit -> unit) -> unit
(** [sleep ctx d k] continues with [k ()] after [d] of virtual time. *)

val note : 'msg ctx -> string -> unit
val incr : 'msg ctx -> Stats.key -> int -> unit
(** Adds to a counter (shard-local block, summed at the end), so
    counters are shard-count-invariant as long as each node's
    increments are. *)

(** {1 Results} — meaningful after {!run}. *)

val merged_view : 'msg t -> Engine.view
(** The canonical merged run: the sink engine's view with fibers,
    blocked names, crashes and pending counts aggregated across shards
    in node order.  As on one engine, [v_fibers] lists only the nodes
    that did not finish (blocked, runnable or crashed) and
    [v_finished] counts the rest.  [v_events]/[v_events_hash] are the
    canonical merged stream and its fingerprint — byte-identical at
    every shard count. *)

val counters : 'msg t -> (string * int) list
(** All shard counter blocks summed, sorted by name. *)

val windows : 'msg t -> int
(** Barrier count — a function of the global virtual-time schedule,
    hence shard-count-invariant. *)

(** Probes a test needs to check what the coordinator keeps. *)
module For_tests : sig
  val buffered : 'msg t -> int
  (** Event records still held by the window buffers: [0] once a run
      is over, since each barrier hands its events to the sink and
      clears their slots. *)
end
