(** LYNX processes on a simulated SODA network: the SODA half of
    {!Lynx.World}. *)

val create :
  ?costs:Lynx.Costs.t ->
  ?kernel_costs:Soda.Costs.t ->
  ?signal_budget:bool ->
  ?stats:Sim.Stats.t ->
  Sim.Engine.t ->
  nodes:int ->
  Lynx.World.t
(** [create engine ~nodes] builds a SODA network.  [kernel_costs]
    overrides the kernel cost model — notably [broadcast_loss], used by
    the hint-repair ablation.  SODA allows one process per node. *)
