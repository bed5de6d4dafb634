(** Deterministic discrete-event simulation engine.

    The engine advances a virtual clock and executes tasks from a priority
    queue.  Simulated processes are {e fibers}, of two kinds that share
    one block/resume path:

    - {e effect fibers} ({!spawn}) are ordinary direct-style OCaml
      functions that block through one effect ({!sleep} and
      {!await_prepared}) whenever they wait for a simulated event.
      Each keeps its own stack while blocked.
    - {e stackless fibers} ({!spawn_stackless}) are chains of steps.  A
      step is a plain function that ends with a blocking op: a
      {!sleep_then} that names its successor, or a {!park} whose
      caller keeps the successor for the {!wake}; blocked, the fiber is
      that successor and nothing else.  Population runs use
      them: a parked effect fiber holds about 930 B more than a finished
      one, which is most of what a hundred thousand idle clients cost.

    Execution is single-domain and cooperative, so fibers interleave
    only at suspension points and a run is a pure function of the seed
    and the program.

    {b Fiber lifetime.}  The engine keeps a fiber only while it is
    unfinished: runnable, blocked or crashed.  A fiber whose function
    (or last step) returns is counted in [v_finished] and dropped from
    the engine's fiber list at once, so it costs nothing resident once
    no queued task or outstanding handle refers to it; a population run
    does not keep its finished clients until the engine dies.  A
    crashed fiber stays listed, with its exception. *)

type t

type fiber
(** Handle to a spawned fiber. *)

type policy =
  | Fifo  (** same-time tasks run in schedule order (the default) *)
  | Random_order of int
      (** same-time tasks run in a seeded random order: explores the
          interleavings of causally concurrent work *)
  | Delay_jitter of { jitter_seed : int; bound : Time.t }
      (** every task is delayed by a seeded random amount in
          [\[0, bound\]]: explores timing races across nearby timestamps *)

val policy_name : policy -> string
(** Short printable form, e.g. ["fifo"], ["random:7"], ["jitter:7:20us"]. *)

exception Deadlock of string
(** Raised by {!run} when [expect_quiescent] is set and blocked
    non-daemon fibers remain after the event queue drains. *)

exception Fiber_crash of string * exn
(** Raised by {!run} when a fiber terminated with an uncaught exception
    and the engine was created with [~on_crash:`Raise] (the default). *)

val create :
  ?seed:int ->
  ?policy:policy ->
  ?log_capacity:int ->
  ?on_crash:[ `Raise | `Record ] ->
  unit ->
  t
(** [create ()] makes an engine with virtual time 0.  [seed] (default 42)
    initialises the root RNG.  [policy] (default {!Fifo}) selects the
    scheduling policy; the scheduler draws from its own RNG, so the root
    RNG stream — and therefore all model-level randomness — is identical
    across policies.

    [log_capacity] bounds the {e retained} structured log: [k] keeps
    only the last [k] events in a ring buffer (so a long run retains
    O(k) memory) and [0] retains nothing.  When unset the ring holds
    200k events.
    Retention never affects {!events_hash}, {!events_total}, or what
    streaming consumers ({!add_consumer}) observe — those see every
    emitted event, so determinism fingerprints and online analyses are
    exact at any capacity.  When unset, [create] adopts the capacity of
    the ambient {!with_observer} scope, if any.

    Retention costs host time (every kept event is promoted to the major
    heap), so callers that read only summaries retain nothing:
    [Run.execute], [Run.execute_many] and [Harness.Rpc_bench] pass
    [0].  The default ring serves callers that read {!events} or
    [v_events].

    {b Causality on demand.}  An engine is {e observed} when something
    can read its events: it retains them ([log_capacity] other than
    [Some 0]) or it has a consumer (the ambient observer's [attach]
    runs inside [create], so consumers it registers count).  An
    unobserved engine still counts and fingerprints every event —
    {!events_total} and {!events_hash} are identical in both modes —
    but builds no event records, ticks and merges no vector clocks and
    keeps no {!stamp}s.  [Harness.Rpc_bench] engines run unobserved;
    [Run.execute]/[Run.execute_many] always attach a consumer and run
    observed, as does a default [create ()]. *)

val add_consumer : t -> (Event.t -> unit) -> unit
(** Registers a streaming consumer called synchronously from {!emit}
    with every structured event, in emission order — including events
    the log does not retain (rotated out of the ring).  Consumers run
    in emission order of registration and must not call back into the
    engine.

    Registering makes the engine observed (see {!create}), so it is
    only allowed before the first event: raises [Invalid_argument] once
    the engine has emitted, since a late consumer would see clocks that
    were never kept.  Attach at creation time — through the ambient
    {!with_observer} hook, or right after [create]. *)

val with_observer :
  ?log_capacity:int -> attach:(t -> unit) -> (unit -> 'a) -> 'a
(** [with_observer ?log_capacity ~attach f] runs [f] with an ambient
    engine observer installed (domain-local, like [Faults.with_plan]):
    every engine created during [f] on this domain defaults its
    [log_capacity] to the given one (an explicit [create ~log_capacity]
    wins) and is passed to [attach] right after construction — the hook
    drivers use to bound retention and register streaming consumers on
    engines that scenarios create internally.  Nesting shadows; the
    previous observer is restored on exit. *)

val without_observer : (unit -> 'a) -> 'a
(** Runs [f] with no ambient observer, restoring the previous one on
    exit.  The shard coordinator creates its per-shard engines inside
    this scope: those engines drain on worker domains, where an
    observer-attached consumer would race with the observer's
    single-threaded state.  The coordinator's merge sink (created
    {e outside} the scope) carries the observer instead, so streaming
    analyses see the canonical merged stream exactly once. *)

val now : t -> Time.t
val rng : t -> Rng.t
val policy : t -> policy

val clock : t -> Vclock.t
(** The clock of whoever is acting right now: the running fiber's, or
    the ambient clock in scheduler context — the snapshot {!stamp}
    would record.  Shard senders capture it to stamp messages that
    cross to another engine (shard engines always carry a consumer, so
    they are observed).  An unobserved engine keeps no causality: there
    this returns the fiber's spawn clock, never advanced. *)

val record : t -> string -> unit
(** Records a free-form note at the current virtual time (an
    {!Event.Note} in the structured log). *)

(** {1 Structured events and causality}

    Every event carries a {!Vclock} snapshot.  Fibers each own a clock
    component; tasks queued from anywhere capture the enqueuer's clock
    and restore it while they run, and wakes merge it into the resumed
    fiber — so happens-before edges follow message hops and wakeups
    automatically.  Kernel code adds edges for data that rests in passive
    queues via {!stamp}/{!adopt}.  All of this happens on observed
    engines only (see {!create}); an unobserved engine emits bare
    counts and fingerprints. *)

val emit : t -> Event.kind -> unit
(** Appends a structured event stamped with the current time and clock.
    Inside a fiber this ticks the fiber's clock first; in scheduler
    context the ambient clock is snapshotted unticked.  On an unobserved
    engine it only bumps {!events_total} and folds {!events_hash}. *)

val absorb : t -> Event.t -> unit
(** Re-admits an event emitted by {e another} engine, verbatim: folds
    {!events_hash} with the event's own time, fiber id and kind tag
    (the same fold {!emit} applies), feeds the consumers, retains per
    the capacity policy, and advances {!now} to the event's timestamp.  The
    shard coordinator absorbs the canonically merged per-shard streams
    into a sink engine at each window barrier, so the sink's event
    surface is byte-identical to a single-engine run emitting the same
    sequence. *)

val events : t -> Event.t array
(** The retained structured events, oldest first.

    {b Aliasing contract.}  Until the ring is full, the first call
    after a run trims the internal buffer to the live prefix and returns
    it; later calls (and {!view} snapshots) return {e that same array}
    without copying, for as long as no new events are emitted.  Emitting
    after a snapshot never mutates the snapshot: the next {!emit} takes
    the grow path, which copies into a fresh backing array, and the next
    [events] call trims again and returns a {e different} array with the
    old one left intact.  Once the ring is full every call returns a
    fresh, unwrapped copy — the ring keeps rotating, so its storage is
    never shared with callers.  Treat the result as read-only. *)

val iter_events : t -> (Event.t -> unit) -> unit
(** Iterates the structured log oldest-first without materialising
    anything. *)

val events_total : t -> int
(** Total number of events emitted so far, retained or not.  Exact at
    any [log_capacity]. *)

val events_dropped : t -> int
(** Events emitted but no longer retained: rotated out of the ring.
    Always [events_total - Array.length (events t)]. *)

val events_hash : t -> int64
(** Incremental FNV-1a fingerprint of the full structured stream
    (time, fiber id and kind tag of every event, in order) — the
    determinism comparator.  Maintained in O(1) per event with no
    rendering. *)

val stamp_key : layer:int -> obj:int -> seq:int -> int
(** [stamp_key ~layer ~obj ~seq] packs ids a message already carries
    into a {!stamp} key, so no key is rendered per message.  [layer]
    (0–3) keeps the layers' key spaces disjoint: 0 the shard inboxes,
    1 Charlotte, 2 SODA, 3 Chrysalis.  [obj] names the passive queue
    (below 2^30) and [seq] the message on it; [seq] wraps at 2^30. *)

val stamp : t -> int -> unit
(** [stamp t key] saves the current clock under [key] — called where a
    message is deposited into a passive queue that is later drained
    without a wake hand-off.  No-op on an unobserved engine. *)

val adopt : t -> int -> unit
(** [adopt t key] merges the clock saved under [key] into the current
    fiber (or ambient) clock and forgets it.  No-op when [key] was never
    stamped, and always on an unobserved engine. *)

(** {1 Scheduling} *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** Runs a task at the given absolute virtual time (must not be in the
    past).  Tasks run in scheduler context: they must not block. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> unit

val inject : t -> time:Time.t -> clk:Vclock.t -> (unit -> unit) -> unit
(** Like {!schedule_at}, but the task carries the given clock instead
    of the enqueuer's, and always takes the Fifo path regardless of the
    engine policy.  This is the cross-shard delivery hand-off: the
    coordinator injects a message's delivery task with the sender's
    clock captured on another shard, so the happens-before edge crosses
    engines; ordering among simultaneous deliveries is the
    coordinator's responsibility (it injects in canonical order). *)

val next_task_ns : t -> int
(** Timestamp, in ns, of the earliest queued task, or [max_int] when
    none is queued — what the shard coordinator uses to skip empty
    lookahead windows, once per window and without an option. *)

val spawn : t -> ?fid:int -> ?name:string -> ?daemon:bool -> (unit -> unit) -> fiber
(** Starts a fiber at the current virtual time.  [daemon] fibers (default
    false) are expected to outlive the simulation and are excluded from
    quiescence accounting.  Each spawn is assigned the next fiber id and
    logged as an {!Event.Spawn} event.  [?fid] pins the id
    explicitly (raising [Invalid_argument] on a negative or already-used
    id, and bumping the internal counter past it): sharded runs assign
    fiber ids globally — fiber [n] is node [n] at every shard count — so
    the per-engine counter cannot be the allocator.  Used ids are kept
    one bit each, up to the largest. *)

val fiber_name : fiber -> string

val fiber_id : fiber -> int
(** Monotonically increasing per engine, starting at 0: two runs of the
    same program with the same seed assign identical ids. *)

val fiber_alive : fiber -> bool

(** {1 Running} *)

val run : ?expect_quiescent:bool -> t -> unit
(** Executes tasks until the event queue is empty or {!stop} is called.
    With [expect_quiescent] (default false), raises {!Deadlock} if
    non-daemon fibers are still blocked when the queue drains. *)

val run_until : t -> Time.t -> unit
(** Runs events with timestamps [<=] the given time, then stops (the
    clock is left at the limit). *)

val stop : t -> unit
(** Makes {!run} return after the current task. *)

val crashed : t -> (string * exn) list
(** Fibers that died with an uncaught exception (when [~on_crash:`Record]). *)

val blocked_fibers : t -> string list
(** Non-daemon fibers currently blocked, as ["name (reason)"], newest
    first. *)

(** {1 Diagnostics} *)

type fiber_info = {
  fi_id : int;
  fi_name : string;
  fi_daemon : bool;
  fi_state : string;  (** "runnable", "blocked:<reason>", "finished", "crashed" *)
}

type view = {
  v_now : Time.t;
  v_pending : int;  (** tasks still queued *)
  v_blocked : string list;  (** non-daemon fibers stuck at a block *)
  v_fibers : fiber_info list;
      (** unfinished fibers (runnable, blocked or crashed), in spawn
          order; a fiber that returned is not listed *)
  v_finished : int;
      (** fibers that returned: together with [v_fibers], every fiber
          ever spawned *)
  v_crashes : (string * string) list;
  v_events : Event.t array;  (** structured event log, oldest first *)
  v_events_hash : int64;  (** incremental fingerprint of the full stream *)
  v_events_dropped : int;  (** events lost to the capacity cap *)
}

val view : t -> view
(** Snapshot of the engine's observable state, taken after a run for
    invariant checking.  A plain record so checkers and test fixtures
    can build synthetic views. *)

(** {1 Fiber operations — callable only inside a fiber}

    An effect fiber blocks in one of two ways: {!sleep}, whose timer
    resumes it, or {!prepare} followed by {!await_prepared}, which
    waits for a {!resume} or {!resume_error} on the handle unless one
    came first.  Either way the fiber's continuation stays with the
    engine and one task resumes it; the stackless {!park}/{!wake} pair
    below is the same path with a step in place of the continuation. *)

type 'a handle
(** A wait of one effect fiber that a wake ends with an ['a] (or an
    exception).  Whoever will wake the fiber keeps the handle. *)

val resume : t -> 'a handle -> 'a -> unit
(** [resume t h v] hands [v] to the wait on [h].  If the fiber is
    blocked on [h], it enqueues one task at the current time that
    resumes the fiber, whose {!await_prepared} then returns [v]; the
    task carries the waking context's clock, which the resumption
    merges into the fiber's.  A handle is woken at most once: [resume]
    raises [Invalid_argument] unless the fiber is parked on [h] and not
    yet woken, or [h] is neither awaited nor woken yet.  Waking a fiber
    that crashed does nothing.  Allocates the outcome and the task's
    queue entry, and no closure. *)

val resume_error : t -> 'a handle -> exn -> unit
(** Like {!resume}, but the fiber's {!await_prepared} raises [exn]:
    how a failed [Sync.Ivar], a poisoned mailbox or a destroyed link
    reaches a waiter. *)

val prepare : t -> 'a handle
(** [prepare t] returns a handle for the running effect fiber without
    blocking it: the fiber keeps running, stores the handle where its
    wake will come from, and calls {!await_prepared} once it has
    nothing left to do but wait.  A {!resume} or {!resume_error} that
    comes first — from code the fiber itself calls, or while it sleeps
    — only keeps the outcome in the handle: it queues no task and
    merges no clock.  Raises [Invalid_argument] outside an effect
    fiber. *)

val await_prepared : t -> reason:string -> 'a handle -> 'a
(** [await_prepared t ~reason h] returns the value of [h]'s wake, or
    raises its exception, at once if the wake already came, with no
    event.  Otherwise it emits {!Event.Block} with [reason] and blocks
    the fiber, listed by {!blocked_fibers} as ["name (reason)"], until
    the wake.  Raises [Invalid_argument] when called by another fiber
    than the one that prepared [h], or twice on a handle still
    waiting. *)

val woken : 'a handle -> bool
(** Whether [h] has had its wake: the guard of a caller that races two
    wake-ups of one handle (a reply and a timeout). *)

val sleep : t -> Time.t -> unit
(** Advances the effect fiber's virtual time by the given duration.
    Raises [Invalid_argument] outside an effect fiber. *)

val yield : t -> unit
(** Re-queues the fiber at the current time, letting same-time tasks
    run: it blocks with reason ["yield"] and enqueues a task that wakes
    it, and the wake enqueues its resumption — two tasks, as a wait
    woken from a task takes.  Both tasks are the fiber's own, built at
    {!spawn}, and no handle is made: a yield allocates only its two
    queue entries. *)

(** {1 Stackless fibers}

    A stackless fiber runs as a chain of steps.  Its first step is the
    function given to {!spawn_stackless}; every later step is the
    callback that the previous step handed to {!sleep_then}, or the
    one a {!wake} names after the previous step {!park}ed.  Each step runs with the fiber current, exactly
    like an effect fiber between two blocks, so events, clocks,
    task order and fingerprints are those of the direct-style program
    the steps spell out.

    {b Step contract.}
    - A blocking op ({!sleep_then}, {!park}) is the {e last} action of
      a step: it returns at once, and the step must return right after
      it.
    - A step blocks at most once: a second blocking op in the same step
      raises [Invalid_argument].
    - An exception escaping a step is the fiber's crash (recorded, or
      raised by {!run}, per [on_crash]), and a crashed fiber is never
      resumed.
    - A step that returns without blocking ends the fiber.
    - Library code may call a callback at once, on the main stack, when
      no wait is needed ([Shard.recv] with a message queued).  The stack
      then grows with the number of such calls in a row (for
      [Shard.recv], the inbox length), never with the length of the
      run. *)

val spawn_stackless :
  t -> ?fid:int -> ?name:string -> ?daemon:bool -> (unit -> unit) -> fiber
(** Like {!spawn}, with the same ids, events and options, but the
    function is the fiber's first step. *)

val sleep_then : t -> Time.t -> (unit -> unit) -> unit
(** [sleep_then t d k] blocks the current stackless fiber for [d] and
    then runs [k ()] as its next step: the stackless {!sleep}.  Raises
    [Invalid_argument] outside a stackless fiber. *)

val park : t -> reason:string -> fiber
(** [park t ~reason] blocks the current stackless fiber until a {!wake}
    and returns it: the stackless {!await_prepared}.  It emits the same
    {!Event.Block} every block does, and the fiber is listed
    by {!blocked_fibers} as ["name (reason)"] while parked.  The caller
    keeps the fiber, and the step to resume it with, wherever the
    wake-up will come from.  Raises [Invalid_argument] outside a
    stackless fiber. *)

val wake : t -> fiber -> ('a -> unit) -> 'a -> unit
(** [wake t fiber k v] enqueues one task at the current time that
    resumes the parked [fiber] with [k v] as its next step.  Like
    {!resume}, the task carries the waking context's clock, which the
    resumption merges into the fiber's.  A fiber is woken at most once
    per park: [wake] raises [Invalid_argument] on a fiber that is not a
    parked stackless fiber (running, finished, asleep, an effect fiber,
    or already woken).
    Waking a fiber that crashed does nothing: a crashed fiber is never
    resumed.  Allocates the task and nothing else. *)

val current_fiber_name : t -> string
(** Name of the running fiber, or ["<scheduler>"] outside any fiber. *)
