(** Model of SODA's 1 Mbit/s CSMA broadcast bus (PDP-11/23 network).

    Carrier-sense with random exponential backoff: a station that finds
    the bus busy retries after a random number of slots, doubling the
    window up to a bound.  The bus also supports broadcast: one
    transmission delivered to every other station (used by SODA's
    [discover]); each delivery is independently lost with a configurable
    probability, modelling the paper's "unreliable broadcast". *)

type t

val create :
  Sim.Engine.t ->
  ?stats:Sim.Stats.t ->
  ?broadcast_loss:float ->
  ?faults:Faults.Injector.t ->
  rng:Sim.Rng.t ->
  stations:int ->
  unit ->
  t

val stations : t -> int

val transmit :
  t -> src:int -> dst:int -> duration:Sim.Time.t -> on_delivered:(unit -> unit) -> unit
(** Point-to-point frame: delivered exactly once (the kernels' request /
    retry machinery provides reliability above this) — unless a fault
    injector was supplied, which may delay or duplicate the delivery. *)

val broadcast :
  t -> src:int -> duration:Sim.Time.t -> on_delivered:(int -> unit) -> unit
(** Delivers to every station except [src]; each delivery independently
    lost with the configured probability.  [on_delivered station] runs at
    arrival for each surviving copy. *)

val stats : t -> Sim.Stats.t
