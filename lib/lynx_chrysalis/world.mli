(** LYNX processes on a simulated BBN Butterfly: the Chrysalis half of
    {!Lynx.World}. *)

val create :
  ?costs:Lynx.Costs.t -> ?plan:Faults.Plan.t -> Sim.Engine.t -> nodes:int -> Lynx.World.t
(** [create engine ~nodes] builds a Butterfly with [nodes] processors,
    faulted by [plan] when one is given (see {!Lynx.World.create}). *)
