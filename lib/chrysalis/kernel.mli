(** Simulator for the Chrysalis operating system on the BBN Butterfly
    (paper §5.1).

    Chrysalis is not a message-passing kernel: it manages shared-memory
    abstractions — {e memory objects} mapped into process address spaces,
    {e event blocks} (binary semaphores carrying a 32-bit datum, waitable
    only by their owner), and {e dual queues} (bounded buffers that hold
    either data or, once drained, the event-block names of waiting
    consumers).  Whatever message screening a language needs is built
    above these primitives by the run-time package.

    Memory objects carry reference counts; an object marked for deletion
    is reclaimed when its count reaches zero.  Process termination runs
    registered cleanup handlers (Chrysalis lets even erroneous processes
    clean up their links) and unmaps everything the process still has
    mapped. *)

open Types

type t

exception Process_exit

val create :
  Sim.Engine.t -> ?costs:Costs.t -> ?stats:Sim.Stats.t -> ?faults:Faults.Injector.t ->
  processors:int -> unit -> t
(** [faults] judges every dual-queue enqueue; without it none is
    faulted.  The LYNX world makes it from the run's plan
    ([Lynx.World.create]). *)

val engine : t -> Sim.Engine.t
val stats : t -> Sim.Stats.t
val costs : t -> Costs.t
val processors : t -> int

(** {1 Processes} *)

val spawn_process :
  t -> ?daemon:bool -> node:node -> name:string -> (pid -> unit) -> pid
val process_alive : t -> pid -> bool
val process_node : t -> pid -> node
val terminate : t -> pid -> unit

val at_termination : t -> pid -> (unit -> unit) -> unit
(** Registers a cleanup handler, run (most recent first) when the process
    terminates — normally, by exception, or via [terminate]. *)

(** {1 Memory objects} *)

val make_object : t -> pid -> size:int -> obj_name
(** Creates and maps an object (refcount 1). *)

val map_object : t -> pid -> obj_name -> unit
val unmap_object : t -> pid -> obj_name -> unit
val mark_for_deletion : t -> pid -> obj_name -> unit
(** The object is reclaimed once its reference count reaches zero. *)

val write_bytes : t -> pid -> obj_name -> off:int -> bytes -> unit
(** Copies into the object, charging local or switch cost by locality of
    the object's home node relative to the caller. *)

val read_bytes : t -> pid -> obj_name -> off:int -> len:int -> bytes

val atomic_or16 : t -> pid -> obj_name -> off:int -> int -> int
(** Atomically ORs a 16-bit word; returns the {e previous} value.
    Microcoded, cheap (paper: "atomic changes to flags extremely
    inexpensive"). *)

val atomic_and16 : t -> pid -> obj_name -> off:int -> int -> int
val read16 : t -> pid -> obj_name -> off:int -> int

val write32_nonatomic : t -> pid -> obj_name -> off:int -> int -> unit
(** Writes a 32-bit value as two separate 16-bit halves — the reader can
    observe a torn value (paper §5.2: dual-queue names are updated
    non-atomically; the protocol must tolerate a stale read). *)

val read32 : t -> pid -> obj_name -> off:int -> int

(** {1 Event blocks} *)

val make_event : t -> pid -> event_name
val event_post : t -> pid -> event_name -> int -> unit
(** Any process that knows the name may post.  Posting an already-posted
    event overwrites its datum (binary-semaphore semantics). *)

val event_wait : t -> pid -> event_name -> int
(** Owner only; blocks until posted, consumes the event, returns the
    datum. *)

(** {1 Dual queues} *)

val make_dualq : t -> pid -> capacity:int -> dualq_name

val dq_enqueue : t -> pid -> dualq_name -> int -> unit
(** If consumers are waiting (the queue holds event names), posts the
    oldest waiter's event with the datum instead of queueing it.
    Raises [Memory_fault Bounds] if the data queue is full. *)

val dq_dequeue : t -> pid -> dualq_name -> ev:event_name -> int option
(** [Some datum] if data was available.  Otherwise enqueues [ev]'s name
    on the queue and returns [None]; the caller should then
    [event_wait ev] for the datum. *)

(** Introspection a test needs to check reference counting, mapping and
    queue contents. *)
module For_tests : sig
  val refcount : t -> obj_name -> int
  val object_exists : t -> obj_name -> bool
  val mapped : t -> pid -> obj_name -> bool
  val dq_length : t -> dualq_name -> int
end
