(** LYNX channel layer for Chrysalis — the design of paper §5.2.

    A link is one shared memory object holding four message slots
    (request/reply in each direction), a flag word, and the dual-queue
    names of the two owners.  Flag bits are the ground truth about
    message availability; dual-queue notices are hints validated against
    the flags.  Moving an end passes the object's name in a message; the
    recipient maps the object, rewrites its side's dual-queue name
    (non-atomically — tolerated by re-inspecting the flags afterwards),
    and self-posts notices for anything already present. *)

type t
(** Per-process channel state: one dual queue and one event block
    through which the process hears about messages sent and received. *)

val make :
  Chrysalis.Kernel.t ->
  Chrysalis.Types.pid ->
  stats:Sim.Stats.t ->
  t * Lynx.Backend.ops
(** Creates the channel layer for one process and starts its notice pump
    fiber.  Registers a termination cleanup with the kernel so links are
    destroyed even if the process faults. *)

val bootstrap_pair : t -> t -> int * int
(** Creates a link whose ends start in two different processes (for
    {!Lynx.World.link_between}); returns the two backend handles. *)
