(* The benchmark's own arithmetic, kept apart from main.ml so the
   tests in ../test can pin it down. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] in [n] samples: the smallest
   rank whose prefix holds at least a [p] share of the samples.  The
   epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding. *)
let rank ~n p =
  if n < 1 then invalid_arg "Stat.rank: no samples";
  if p <= 0. || p > 1. then invalid_arg "Stat.rank: p outside (0, 1]";
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let percentile a p = a.(rank ~n:(Array.length a) p - 1)

(* Samples strictly above the [p] nearest-rank position. *)
let beyond ~n p = n - rank ~n p

(* A percentile is reported only with at least ten samples beyond it. *)
let reportable ~n p = n >= 1 && beyond ~n p >= 10

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per_op total ~ops =
  if ops <= 0 then invalid_arg "Stat.per_op: no operations";
  total /. float_of_int ops

(* A ratio whose base is zero reads as zero: the layer did no work. *)
let ratio num ~base = if base = 0 then 0. else float_of_int num /. float_of_int base

let failure_share ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Stat.failure_share: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Stat.failure_share: failed outside [0, attempted]";
  float_of_int failed /. float_of_int attempted

(* Operations per second of a worker process. *)
let rate ~ops ~seconds =
  if seconds <= 0. then invalid_arg "Stat.rate: no time measured";
  float_of_int ops /. seconds

(* Host seconds rescaled to the reference machine.  [probe_s] is the
   mean time the fixed reference probe took while the work ran, [ref_s]
   the time it takes on the reference machine.  A host on which the
   probe runs k times slower runs the work k ** [exponent] times slower,
   so the work time is scaled by (ref_s / probe_s) ** exponent and the
   host's speed cancels. *)
let at_reference ~exponent ~work_s ~probe_s ~ref_s =
  if probe_s <= 0. || ref_s <= 0. then
    invalid_arg "Stat.at_reference: probe times must be positive";
  work_s *. ((ref_s /. probe_s) ** exponent)

(* Relative error in percent. *)
let err_pct ~paper measured = Float.abs ((measured -. paper) /. paper) *. 100.
