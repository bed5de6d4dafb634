(** LYNX channel layer for SODA — the design of paper §4.2.

    A link is a pair of unique names, one per end; the owner of an end
    advertises its name and keeps a {e hint} for the far end's location.
    Sends are SODA puts to the hinted process; receiving is
    deferred-accept, so no unwanted message is ever received (lesson
    two).  Moves carry name/hint descriptors inside the message; the old
    owner keeps the name advertised with a forwarding entry (the cache
    of §4.2) and answers later traffic with redirects.  Stale hints are
    repaired by redirects, [discover] broadcasts, and — as the absolute
    fallback — the freeze/unfreeze search. *)

type t
(** Per-process channel state. *)

val make :
  ?signal_budget:bool ->
  Soda.Kernel.t ->
  Soda.Types.pid ->
  stats:Sim.Stats.t ->
  t * Lynx.Backend.ops
(** Creates the channel layer for one process: registers its software
    interrupt handler, advertises its freeze name, and starts the pump
    fiber that performs the kernel calls interrupts may not.
    [signal_budget] (default true) reserves per-pair request slots for
    data puts; disabling it reproduces the §4.2.1 deadlock when many
    links connect one pair of processes. *)

val bootstrap_pair : t -> t -> int * int
(** Creates a link whose ends start in two different processes (for
    {!Lynx.World.link_between}); returns the two backend handles. *)
