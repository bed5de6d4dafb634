(** The paper's latency experiment: a simple remote operation, with and
    without parameter bytes, measured in steady state (§3.3, §4.3,
    §5.3).  Every run returns a summary only, so its engine retains no
    events ([~log_capacity:0]); {!Sim.Engine.events_hash} and streaming
    consumers still see the whole stream. *)

open Backend_world

(** Result of one measurement run. *)
type result = {
  r_backend : string;
  r_iters : int;
  r_mean : Sim.Time.t;
  r_min : Sim.Time.t;
  r_max : Sim.Time.t;
  r_counters : (string * int) list;
      (** counter increments during the measured phase *)
}

val mean_ms : result -> float

val run :
  ?iters:int ->
  ?warmup:int ->
  ?seed:int ->
  backend ->
  payload:int ->
  unit ->
  result
(** Runs [warmup] + [iters] sequential echo RPCs carrying [payload]
    bytes each way between a client and a server on separate nodes, and
    reports the steady-state latency distribution.  The world has four
    nodes, and [warmup] is 5 by default.  Deterministic per seed. *)

val throughput : coroutines:int -> backend -> float
(** Completed calls per simulated second with [coroutines] concurrent
    callers sharing one link, each making 40 empty echo calls (seed 42,
    four nodes) — how far each kernel's buffering lets the
    stop-and-wait coroutines pipeline.  An analysis beyond the paper's
    own tables. *)

val raw_charlotte : ?iters:int -> ?seed:int -> payload:int -> unit -> Sim.Time.t
(** The §3.3 baseline: "C programs that make the same series of kernel
    calls" against the Charlotte kernel directly, bypassing the LYNX
    run-time package.  Returns the mean round-trip time of [iters]
    echoes after 5 warm-up echoes.  The three [raw_*] share this
    type. *)

val raw_soda : ?iters:int -> ?seed:int -> payload:int -> unit -> Sim.Time.t
(** Raw request/accept round trip on the SODA kernel (the measurements
    behind §4.3 footnote 2). *)

val raw_chrysalis : ?iters:int -> ?seed:int -> payload:int -> unit -> Sim.Time.t
(** Raw dual-queue echo on the Chrysalis kernel: one enqueue and one
    event wait each way, the payload copied through a shared object. *)
