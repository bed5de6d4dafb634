(** LYNX processes on a simulated machine: the one spawn path every
    backend shares.

    Everything here sits above {!Backend.ops}: the fault injectors built
    from the run's plan, the screening timeout floored at the kernel's
    RPC round trip, crash-victim registration, {!Fault_ops.wrap}, and
    the process lifecycle.  A backend supplies only what differs below
    the interface — a {!kernel} record built by its [World.create] (see
    {!Lynx_charlotte}, {!Lynx_soda}, {!Lynx_chrysalis}). *)

type chan = ..
(** A process's channel layer, as its backend made it.  Each backend adds
    its own constructor; only that backend's {!kernel.bootstrap} reads
    it. *)

type kernel = {
  spawn :
    ?daemon:bool -> node:int -> name:string -> (chan -> Backend.ops -> unit) -> unit;
      (** starts a kernel process on [node], makes its channel layer, and
          runs the continuation with it inside the process's fiber *)
  rpc_rtt : Sim.Time.t;
      (** the kernel's nominal RPC round trip: the floor under screening
          timeouts *)
  bootstrap : chan -> chan -> int * int;
      (** creates a link with one end in each process; returns the two
          backend handles *)
}

type t
(** A machine: one kernel plus shared stats and the LYNX cost model. *)

type member
(** A spawned LYNX process; its handles fill once the process has
    initialised inside its fiber. *)

val create :
  ?plan:Faults.Plan.t -> costs:Costs.t -> Sim.Engine.t ->
  (Sim.Stats.t -> Faults.Injector.t option -> kernel) -> t
(** [create ?plan ~costs engine make] makes the world's stats and, under
    a plan, two injectors in this order: the world's own (for the ops
    seam) and the kernel's.  It then builds the kernel with
    [make stats kernel_injector].  Each injector splits the engine's RNG
    and schedules the plan's crash when it is made, so the order is
    part of every faulted run.  With no plan both are [None] and no
    split is made. *)

val stats : t -> Sim.Stats.t

val spawn :
  t -> ?daemon:bool -> node:int -> name:string -> (Process.t -> unit) -> member
(** Starts a LYNX process on [node]; the body runs as its main thread
    and the process terminates (destroying its links) when it returns.
    Under a fault plan a body that fails with a LYNX exception
    ends quietly and counts in [lynx.bodies_screened]. *)

val link_between : t -> member -> member -> Link.t * Link.t
(** Creates a link with one end in each process — the bootstrap a parent
    process would normally provide.  Must be called from a fiber; blocks
    until both processes are initialised. *)

val process : member -> Process.t
(** The member's process handle (blocks until initialised). *)
