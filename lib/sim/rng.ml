type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let child_seed = next_int64 t in
  { state = mix child_seed }

(* Pure keyed derivation: child [i] depends only on the parent's
   current state and [i], and the parent does not advance.  [split]
   cannot give per-node streams that survive re-partitioning (the
   number of splits would depend on the partition), so sharded runs key
   every node's stream by its global id instead. *)
let derive t i =
  { state = mix (Int64.add t.state (Int64.mul golden (Int64.of_int (i + 1)))) }

(* Draws are 62-bit ([0, 2^62)); plain [r mod bound] would favour small
   residues whenever bound does not divide 2^62, so draws past the last
   full multiple of [bound] are rejected and retried.  [max_int] is
   2^62 - 1, hence (max_int mod bound + 1) mod bound = 2^62 mod bound. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let rem = ((max_int mod bound) + 1) mod bound in
  let cutoff = max_int - rem in
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    if r > cutoff then go () else r mod bound
  in
  go ()

let float t =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p
