(** The LYNX run-time package: processes, coroutines, links and
    RPC-style communication (paper §2).

    A LYNX process is a collection of {e threads} (coroutines) executing
    in mutual exclusion; they interleave only at {e block points} — when
    a thread sends a message, waits for a reply, or waits for an incoming
    request.  Messages are queued per link: each link end has a request
    queue and a reply queue.  The request queue is open while the process
    has declared willingness to serve it; the reply queue is open while a
    reply is expected.  A blocked process receives from a fair choice
    among its open non-empty queues.

    Processes are created by {!World.spawn} on a kernel that a backend's
    [World.create] supplies (see {!Lynx_charlotte}, {!Lynx_soda},
    {!Lynx_chrysalis}); this module is backend-agnostic. *)

type t

(** An incoming request, as surfaced by {!await_request}. *)
type incoming = {
  in_link : Link.t;  (** the link the request arrived on *)
  in_op : string;
  in_args : Value.t list;
  in_reply : Value.t list -> unit;
      (** sends the reply; blocks the calling thread until the reply has
          been received; must be called exactly once *)
}

(** {1 Construction (used by backends, not applications)} *)

val make :
  Sim.Engine.t ->
  name:string ->
  costs:Costs.t ->
  stats:Sim.Stats.t ->
  ?screening:Faults.Plan.screening ->
  Backend.ops ->
  t
(** Creates the process state and starts its dispatcher fiber.

    [screening] arms the paper's §5 application-layer screening: every
    {!call} gets a reply timeout with capped exponential backoff and a
    retry budget (retransmissions reuse the request's correlation id),
    exhausted budgets raise [Excn.Timeout], and incoming requests are
    deduplicated at-most-once by (link, correlation id) — a duplicate of
    a served request is re-answered from a reply cache without running
    the handler again.  Without it (the default), behaviour is exactly
    the pre-screening runtime. *)

val finish : t -> unit
(** Terminates the process: destroys all its links (waking peers with
    [Excn.Link_destroyed]) and releases every blocked thread with
    [Excn.Process_terminated]. *)

(** {1 Introspection} *)

val name : t -> string
val engine : t -> Sim.Engine.t
val stats : t -> Sim.Stats.t
val failures : t -> (string * exn) list
(** Exceptions that aborted threads of this process. *)

val live_links : t -> Link.t list

(** {1 Links} *)

val new_link : t -> Link.t * Link.t
(** Creates a link; both ends initially belong to this process.  Ends
    are passed to other processes by enclosing them in messages. *)

val adopt_link : t -> int -> Link.t
(** Registers a backend handle as a link end of this process.  Used by
    {!World.link_between} to bootstrap initial links between processes;
    applications never call it. *)

val destroy_link : t -> Link.t -> unit

val open_queue : t -> Link.t -> unit
(** Declares willingness to receive requests on this end. *)

val close_queue : t -> Link.t -> unit

(** {1 Communication} *)

val call :
  t -> Link.t -> op:string -> ?expect:Ty.t list -> Value.t list -> Value.t list
(** Remote operation: sends a request and blocks the calling thread
    until the reply arrives.  Values may contain link ends, which move
    to the receiver.  Raises [Excn.Link_destroyed], [Excn.Move_violation],
    [Excn.Remote_error] or [Excn.Type_error]; with screening armed, also
    [Excn.Timeout] once the retry budget is exhausted.  Calls that
    enclose link ends are never retransmitted (the ends move with the
    first copy) — they get a single, generously-timed attempt. *)

val await_request : t -> ?links:Link.t list -> unit -> incoming
(** Blocks until a request arrives on one of the given links (all live
    links if omitted).  While waiting, the corresponding request queues
    count as open.  Queue choice is fair: no open queue is ignored
    forever. *)

val serve :
  t ->
  Link.t ->
  op:string ->
  ?sg:Ty.signature ->
  (Value.t list -> Value.t list) ->
  unit
(** Registers a handler: matching requests spawn a thread that runs the
    handler and sends its result back.  Opens the request queue.  A
    handler exception is returned to the caller as [Excn.Remote_error];
    argument/result type mismatches as [Excn.Type_error] (checked when
    [sg] is given). *)

(** {1 Threads} *)

val on_new_link : t -> (Link.t -> unit) -> unit
(** Registers a hook invoked (in dispatcher context) whenever this
    process gains a link end — by enclosure receipt or bootstrap.  Used
    by long-lived services that must offer their operations on every
    link they are ever handed. *)

val spawn_thread : t -> ?tname:string -> (unit -> unit) -> unit
(** Starts a coroutine.  An uncaught exception aborts only that thread
    and is recorded in {!failures}. *)

val sleep : t -> Sim.Time.t -> unit
(** Simulated local computation by the calling thread. *)

val park : t -> unit
(** Suspends the calling thread forever (until process termination).
    Unlike a long {!sleep}, parking schedules no future event, so a
    simulation whose remaining work is all parked servers terminates. *)
