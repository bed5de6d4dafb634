(** Cost model for SODA on its PDP-11/23 + 1 Mbit/s CSMA testbed.

    SODA was never built beyond a prototype; the paper gives two
    constraints (§4.3 and footnote 2):

    - for small messages SODA was measured at three times the speed of
      Charlotte, i.e. a small request/accept RPC of about
      55 / 3 = 18.3 ms;
    - Charlotte and SODA "break even somewhere between 1K and 2K bytes",
      because SODA's 1 Mbit/s network is 10x slower than Crystal's ring.

    A LYNX-style RPC is two SODA puts (request message + reply message);
    each put costs a request leg (source kernel -> target, interrupt)
    and an accept leg (target kernel -> source, data + completion):
    4 legs x [op_fixed] = 4 x 4.4 ms = 17.6 ms, plus interrupt dispatch,
    ~18.2 ms — matching the 3x constraint.

    Per byte: 8 us of wire (1 Mbit/s) + 7.6 us of PDP-11 kernel copying
    = 15.6 us/byte.  With n parameter bytes in each direction the raw
    kernels cross at 55 + 0.005 n = 17.6 + 0.0312 n, n ~ 1430 bytes —
    inside the paper's 1-2 KB window (and still inside it after adding
    the language run-time costs on both sides). *)

type t = {
  op_fixed : Sim.Time.t;  (** kernel-processor cost per request or accept leg *)
  per_byte : Sim.Time.t;  (** wire + copy cost per transferred byte *)
  interrupt_cpu : Sim.Time.t;  (** client-processor cost per interrupt/call *)
  retry_interval : Sim.Time.t;  (** kernel retry period for a target with no handler yet *)
  discover_timeout : Sim.Time.t;  (** wait for broadcast responses *)
  oob_limit : int;  (** bytes of out-of-band data (paper: ~48 bits) *)
  pair_limit : int;  (** outstanding requests between a pair of processes *)
  broadcast_loss : float;
      (** probability that one station misses a broadcast (the paper's
          "unreliable broadcast" behind [discover]) *)
}

let default =
  {
    op_fixed = Sim.Time.of_ms_float 4.4;
    per_byte = Sim.Time.of_us_float 15.6;
    interrupt_cpu = Sim.Time.of_us_float 150.;
    retry_interval = Sim.Time.of_ms_float 10.;
    discover_timeout = Sim.Time.of_ms_float 30.;
    oob_limit = 6;
    pair_limit = 6;
    broadcast_loss = 0.05;
  }

let transfer_time t ~bytes = Sim.Time.scale t.per_byte bytes

(* Minimum cross-node latency: one request leg with no data — no SODA
   interaction reaches another kernel faster than a single [op_fixed].
   Used as the PDES lookahead for sharded runs. *)
let lookahead t = t.op_fixed

(* Nominal round trip of a small request/accept RPC — the paper's
   ~18 ms "three times the speed of Charlotte" point: four kernel legs
   plus the two interrupt dispatches.  Floors the runtime's screening
   timeouts. *)
let rpc_rtt t =
  Sim.Time.add (Sim.Time.scale t.op_fixed 4) (Sim.Time.scale t.interrupt_cpu 2)
