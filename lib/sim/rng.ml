(* The state is 8 bytes, not a mutable [int64] field: a field holds a
   boxed [int64], so every draw would allocate a fresh box for the new
   state and another for its mix.  Read and written with
   [Bytes.get_int64_le]/[set_int64_le], and with [mix] and [next_int64]
   inlined, the arithmetic stays unboxed and a draw allocates nothing. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (mix (next_int64 t))

(* Pure keyed derivation: child [i] depends only on the parent's
   current state and [i], and the parent does not advance.  [split]
   cannot give per-node streams that survive re-partitioning (the
   number of splits would depend on the partition), so sharded runs key
   every node's stream by its global id instead. *)
let derive t i =
  of_state
    (mix (Int64.add (Bytes.get_int64_le t 0) (Int64.mul golden (Int64.of_int (i + 1)))))

let[@inline] draw62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* Draws are 62-bit ([0, 2^62)); plain [r mod bound] would favour small
   residues whenever bound does not divide 2^62, so draws past the last
   full multiple of [bound] are rejected and retried.  [max_int] is
   2^62 - 1, hence (max_int mod bound + 1) mod bound = 2^62 mod bound.
   The retry is a loop, not a local recursive function, which would be
   a closure built per call. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let rem = ((max_int mod bound) + 1) mod bound in
  let cutoff = max_int - rem in
  let r = ref (draw62 t) in
  while !r > cutoff do
    r := draw62 t
  done;
  !r mod bound

let[@inline] float t =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p
