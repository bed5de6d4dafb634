(** LYNX processes on a simulated SODA network: the SODA half of
    {!Lynx.World}. *)

val create :
  ?costs:Lynx.Costs.t ->
  ?kernel_costs:Soda.Costs.t ->
  ?signal_budget:bool ->
  ?plan:Faults.Plan.t ->
  Sim.Engine.t ->
  nodes:int ->
  Lynx.World.t
(** [create engine ~nodes] builds a SODA network.  [kernel_costs]
    overrides the kernel cost model — notably [broadcast_loss], used by
    the hint-repair ablation.  [plan] faults the world (see
    {!Lynx.World.create}).  SODA allows one process per node. *)
