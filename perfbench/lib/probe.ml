(* The host-speed reference probe.

   Shared two-core machines change speed from second to second: the
   same binary's throughput moves 15-35% between runs minutes apart.  A
   timer signal interrupts the benchmark every [period_s] of wall time,
   wherever it is (inside a long library call too), and runs a fixed
   piece of benchmark-owned work in the style of the simulator's
   allocation-heavy code: bump allocation into a nursery, reads of
   recently written blocks, data-dependent branches and table updates.
   Its mean CPU time over a phase measures how fast the host ran during
   that phase; [Stat.at_reference] divides it out.  Being benchmark
   code, it cannot get faster when the library does.

   The probe allocates nothing on the OCaml heap (an allocating probe
   triggered major-GC slices of the simulator's 400 MB heap inside its
   own ticks, and so measured the simulator instead of the host).  Each
   tick still counts the minor words around it, and delivering a tick
   costs the runtime a few words outside it, so exact allocation counts
   come from a rep run with the probe stopped. *)

open Bigarray

let rounds = 180_000
let period_s = 0.05

(* Probe time on the reference machine, in seconds: the unit the
   normalised host times are expressed in. *)
let ref_s = 0.003

(* How much more the simulator's speed moves than the probe's when the
   host changes speed, in log terms.  Regressing log(worker rate) on
   log(mean tick) over 40 worker processes per workload gave slopes of
   1.5-1.6 (rpc-paper), 1.2-1.4 (farm-open) and 1.3-1.5 (sweep-judged)
   in three series of runs minutes to hours apart; with 1.5 the spread
   of ten runs fell from 4-15% (exponent 1) to 1-4.5%. *)
let exponent = 1.5

(* A 2 MiB nursery (the size of the default minor heap) the probe
   bump-allocates 4-word blocks into, and a 1024-slot table it updates,
   both outside the OCaml heap: the probe never triggers a collection,
   whose cost would depend on the simulator's heap.  Tick times came out
   the same inside rpc-paper (small heap) and farm-open (400 MB heap). *)
let nursery_words = 1 lsl 18
let nursery : (int, int_elt, c_layout) Array1.t = Array1.create int c_layout nursery_words
let table : (int, int_elt, c_layout) Array1.t = Array1.create int c_layout 1024
let () = Array1.fill nursery 0; Array1.fill table 0
let pos = ref 0
let sink = ref 0

let work () =
  let mask = nursery_words - 1 and h = ref !sink in
  for i = 1 to rounds do
    let p = !pos in
    Array1.unsafe_set nursery p 0x400;
    Array1.unsafe_set nursery (p + 1) i;
    Array1.unsafe_set nursery (p + 2) !h;
    Array1.unsafe_set nursery (p + 3) (i * 31);
    pos := (p + 4) land mask;
    (* Follow a "pointer" to a recent block, then branch on it. *)
    let q = (p - (4 * (1 + (!h land 63)))) land mask in
    h := (!h * 0x2545F491) lxor Array1.unsafe_get nursery (q + 2) lxor i;
    let k = !h land 1023 in
    if !h land 1 = 0 then Array1.unsafe_set table k (Array1.unsafe_get table k + 1)
    else Array1.unsafe_set table k (Array1.unsafe_get table k lxor i)
  done;
  sink := !h

(* Accumulators as unboxed float cells: total probe seconds, minor words
   allocated inside ticks, tick count.  [log] keeps each tick's raw
   duration. *)
let acc = Float.Array.make 3 0.
let log_cap = 1 lsl 16
let log = Float.Array.make log_cap 0.

let tick (_ : int) =
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  work ();
  let d = Sys.time () -. t0 in
  let n = int_of_float (Float.Array.get acc 2) in
  if n < log_cap then Float.Array.set log n d;
  Float.Array.set acc 0 (Float.Array.get acc 0 +. d);
  Float.Array.set acc 2 (float_of_int (n + 1));
  Float.Array.set acc 1 (Float.Array.get acc 1 +. (Gc.minor_words () -. w0))

let arm period =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

let start () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
  arm period_s

(* Disarm before dropping the handler: a tick already pending must not
   meet the default action, which would kill the process. *)
let stop () =
  arm 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore

type snap = { p_s : float; p_words : float; p_ticks : int }

let snap () =
  {
    p_s = Float.Array.get acc 0;
    p_words = Float.Array.get acc 1;
    p_ticks = int_of_float (Float.Array.get acc 2);
  }

let diff a b =
  { p_s = b.p_s -. a.p_s; p_words = b.p_words -. a.p_words; p_ticks = b.p_ticks - a.p_ticks }

(* Raw durations of ticks [from, until) in seconds. *)
let durations ~from ~until =
  List.init (max 0 (min until log_cap - from)) (fun k -> Float.Array.get log (from + k))
