(** LYNX processes on a simulated Crystal/Charlotte machine: the
    Charlotte half of {!Lynx.World}. *)

val create :
  ?costs:Lynx.Costs.t ->
  ?kernel_costs:Charlotte.Costs.t ->
  ?reply_acks:bool ->
  ?plan:Faults.Plan.t ->
  Sim.Engine.t ->
  nodes:int ->
  Lynx.World.t
(** [create engine ~nodes] builds a Crystal machine with [nodes]
    stations.  [kernel_costs] overrides the Charlotte cost model (used
    by the hint-based-move ablation); [reply_acks] enables the §3.2.2
    reply-acknowledgment ablation; [plan] faults the world (see
    {!Lynx.World.create}). *)
