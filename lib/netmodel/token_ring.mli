(** Model of the Crystal multicomputer's 10 Mbit/s Proteon token ring.

    The ring is a single shared medium: one frame is on the wire at a
    time.  A station that wants to transmit waits for the medium to be
    free, then for the token (a fixed average rotation cost, 60 µs), then holds
    the wire for the frame time.  Delivery fires when the frame has fully
    arrived at the destination.

    The model intentionally folds kernel protocol time into the caller's
    [duration]: the kernel decides how long its message occupies the
    machine; the ring adds queueing and token latency on top. *)

type t

val create :
  Sim.Engine.t ->
  ?stats:Sim.Stats.t ->
  stations:int ->
  unit ->
  t

val stations : t -> int

val transmit :
  t -> src:int -> dst:int -> duration:Sim.Time.t -> on_delivered:(unit -> unit) -> unit
(** Queues a transmission occupying the ring for [duration].  Same-station
    traffic still uses the loopback path (Charlotte sends everything
    through the kernel) but skips the token wait.  [on_delivered] runs in
    scheduler context at delivery time. *)

val stats : t -> Sim.Stats.t
