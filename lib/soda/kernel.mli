(** Simulator for SODA, Kepecs's "Simplified Operating system for
    Distributed Applications" (paper §4.1).

    Every node has a client processor and a kernel processor.  Processes
    advertise {e names}; communication is by {e requests} — a process
    asks to transfer data to/from (pid, name) with a little out-of-band
    data — which the target may {e accept} at any later time.  Both
    events are delivered as software interrupts to a per-process handler.

    The handler runs in scheduler context and must not block; this
    mirrors SODA's interrupt discipline.  Until a process sets its
    handler, completions queue (and are delivered when it is set) and
    requests to it are retried periodically by the requesting kernel. *)

open Types

type t

exception Process_exit
(** A process body may raise this to terminate itself; treated as a
    normal exit. *)

val create :
  Sim.Engine.t -> ?costs:Costs.t -> ?stats:Sim.Stats.t -> ?faults:Faults.Injector.t ->
  nodes:int -> unit -> t
(** [faults] judges every frame on the CSMA bus (each request, accept
    and discover leg); without it no frame is faulted.  The LYNX world
    makes it from the run's plan ([Lynx.World.create]). *)

val engine : t -> Sim.Engine.t
val stats : t -> Sim.Stats.t
val costs : t -> Costs.t
val nodes : t -> int

(** {1 Processes} *)

val spawn_process :
  t -> ?daemon:bool -> node:node -> name:string -> (pid -> unit) -> pid
(** Nodes outnumber processes in SODA; we allow at most one process per
    node and raise [Invalid_argument] otherwise. *)

val process_alive : t -> pid -> bool
val process_node : t -> pid -> node
val pids : t -> pid list
(** All processes ever created ("SODA makes it easy to guess their
    ids"), including dead ones. *)

val terminate : t -> pid -> unit

(** {1 Names} *)

val new_name : t -> pid -> name
(** A name unique over space and time. *)

val advertise : t -> pid -> name -> unit
val unadvertise : t -> pid -> name -> unit

val discover : t -> pid -> name -> pid option
(** Unreliable broadcast search for a process advertising [name].
    Blocks the caller for up to the configured timeout; each potential
    responder's reply can be lost.  Returns the first responder. *)

(** {1 Interrupts} *)

val set_handler : t -> pid -> (interrupt -> unit) -> unit

(** {1 Requests} *)

val request :
  t ->
  pid ->
  dst:pid ->
  name:name ->
  oob:oob ->
  data:bytes ->
  recv_max:int ->
  (req_id, [ `Pair_limit | `Oob_too_big ]) result
(** Starts a request; the caller continues immediately.  The outcome
    arrives as a [Completed] or [Aborted] interrupt.  [`Pair_limit] if
    too many requests are already outstanding to this destination
    (paper §4.2.1). *)

val accept :
  t ->
  pid ->
  req:req_id ->
  oob:oob ->
  data:bytes ->
  recv_max:int ->
  (bytes, [ `Unknown | `Requester_gone ]) result
(** Accepts a request previously presented to this process.  Data moves
    in both directions (each truncated to the other side's limit); the
    requester feels a [Completed] interrupt.  Returns the requester's
    data (at most [recv_max] bytes); the calling fiber is charged the
    inbound transfer time. *)

val withdraw : t -> pid -> req_id -> bool
(** Withdraws one of our not-yet-accepted requests.  The target feels a
    [Withdrawn] interrupt if it had already been presented.  False if
    the request was already accepted or finished. *)

(** The per-pair request count: what a test needs to check the
    kernel's pair limit. *)
module For_tests : sig
  val outstanding : t -> src:pid -> dst:pid -> int
end
