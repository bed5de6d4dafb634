(** Simulator for the Charlotte distributed operating system kernel
    (paper §3.1).

    Charlotte provides processes and duplex {e links}.  Communication is
    by {e activities}: a process starts a send or a receive on a link end
    it owns; the kernel matches a send on one end with a receive on the
    other, performs the transfer, and reports completion through [wait].
    At most one activity per direction may be outstanding on a given end.
    A message may enclose at most one link end, whose ownership moves to
    the receiver on delivery.  Destroying a link, or the termination of a
    process, aborts the activities of both ends with [E_destroyed].

    All calls except [wait] complete in bounded time and return a status
    code.  Every call charges the caller's fiber the configured per-call
    CPU cost — including the validity checks the kernel performs on
    arguments that a careful runtime package would never pass (the
    duplicated-checking overhead discussed in the paper's §6). *)

open Types

type t

exception Process_exit
(** A process body may raise this to terminate itself; treated as a
    normal exit. *)

val create :
  Sim.Engine.t -> ?costs:Costs.t -> ?stats:Sim.Stats.t -> ?faults:Faults.Injector.t ->
  nodes:int -> unit -> t
(** [faults] judges every frame the kernel puts on the token ring;
    without it no frame is faulted.  The LYNX world makes it from the
    run's plan ([Lynx.World.create]). *)

val engine : t -> Sim.Engine.t
val stats : t -> Sim.Stats.t
val costs : t -> Costs.t
val nodes : t -> int

(** {1 Processes} *)

val spawn_process :
  t -> ?daemon:bool -> node:node -> name:string -> (pid -> unit) -> pid
(** Starts a process as a fiber.  When the body returns or raises, the
    process terminates and the kernel destroys every link end it owns. *)

val process_alive : t -> pid -> bool
val process_node : t -> pid -> node

(** {1 Kernel calls}

    Each must be invoked from the owning process's fiber. *)

val make_link : t -> pid -> (link_end * link_end) option
(** Creates a link; both ends initially belong to the caller.  [None] only
    if the caller is dead. *)

val destroy : t -> pid -> link_end -> status
(** Destroys the whole link given one end. *)

val send : t -> pid -> link_end -> ?enclosure:link_end -> bytes -> status
(** Starts a send activity.  [E_busy] if one is already outstanding;
    [E_enclosure_busy]/[E_enclosure_self]/[E_bad_end] on invalid
    enclosures.  Completion (with [Sent]) arrives via [wait] once the
    peer has received the message. *)

val receive : t -> pid -> link_end -> max_len:int -> status
(** Starts a receive activity; completion carries the data. *)

val cancel : t -> pid -> link_end -> direction -> status
(** [Ok_done] if the activity existed and had not yet been matched with
    the peer (it is removed and never completes); [E_no_activity] if
    there was nothing to cancel; [E_busy] if the activity was already
    matched — its completion will still arrive through [wait]. *)

val wait : t -> pid -> completion
(** Blocks until an activity of this process completes. *)

val poll : t -> pid -> completion option
(** Non-blocking [wait]. *)

val terminate : t -> pid -> unit
(** Destroys all links of [pid] and marks it dead.  Called automatically
    when a process body returns. *)

(** {1 Bootstrap (not part of the Charlotte interface)} *)

val transfer_end : t -> link_end -> to_:pid -> unit
(** Reassigns ownership of an idle end (simulation bootstrap only: models
    a link inherited from a parent process; real ends move by message
    enclosure).  The end must have no outstanding activities. *)

(** Introspection a test needs to check where an end lives. *)
module For_tests : sig
  val owner_of : t -> link_end -> pid option
end
