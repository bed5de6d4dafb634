(** Model of the BBN Butterfly's multistage interconnection switch.

    Unlike the ring and the bus, the Butterfly switch supports many
    concurrent paths, so transfers do not serialize against each other.
    A remote memory access pays a path-setup latency proportional to the
    number of switch stages (log4 of the machine size) plus a per-byte
    cost; local accesses bypass the switch entirely. *)

type t

val create :
  Sim.Engine.t ->
  ?stats:Sim.Stats.t ->
  processors:int ->
  unit ->
  t

val processors : t -> int
val stages : t -> int

val access_time : t -> src:int -> dst:int -> bytes:int -> Sim.Time.t
(** Cost of a block transfer of [bytes] between the memory of processor
    [dst] and processor [src] (local when equal). *)

val transfer :
  t -> src:int -> dst:int -> bytes:int -> on_done:(unit -> unit) -> unit

val stats : t -> Sim.Stats.t
