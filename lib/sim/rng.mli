(** Deterministic splitmix64 pseudo-random generator.

    All stochastic behaviour in the simulator (CSMA backoff, broadcast
    loss, workload generation) draws from one of these, so a run is fully
    reproducible from its seed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val split : t -> t
(** Derives an independent child generator; the parent advances once. *)

val derive : t -> int -> t
(** [derive t i] is an independent child stream keyed by [i]; the
    parent does {e not} advance, and the same [(t state, i)] always
    yields the same stream.  Use this instead of {!split} when child
    identity must survive re-partitioning — e.g. per-node streams in a
    sharded run, where the number of [split] calls per shard would
    depend on the shard count. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] — exactly uniform, via
    rejection sampling, not merely modulo-reduced.  Raises
    [Invalid_argument] unless [bound] is positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)
