(** Named counters and latency recorders for instrumentation.

    Kernels and LYNX backends increment counters as they run; benches and
    tests snapshot them afterwards.  Counters are cheap and passive — they
    never affect simulation behaviour. *)

type key
(** An interned counter name.

    - Register each name once, at module initialisation, next to its
      use: [let calls = Stats.key "lynx.calls"].  Registering the same
      name again returns the same key.
    - Registration is thread-safe: the registry is process-wide and
      append-only, shared by every domain, and guarded by a mutex.
    - Key numbering is never observable: every listing below is sorted
      by name, so output does not depend on registration order, [-j] or
      shard count. *)

val key : string -> key

type t
(** A block of counters: an int array indexed by key. *)

val create : unit -> t

val incr : ?by:int -> t -> key -> unit
(** A bounds check and an array store; allocates nothing.  A computed
    [~by] costs the caller the optional argument's 2-word [Some] cell.
    A key registered after [t] was created grows [t] on its first use.
    A counter that was never bumped is {e absent}, which is distinct
    from 0: a counter bumped [~by:0] is listed by {!to_list}. *)

val get : t -> string -> int
(** 0 for a counter that was never incremented. *)

val to_list : t -> (string * int) list
(** Every present counter, sorted by name. *)

val sum : t array -> t
(** A fresh block holding the per-key sums; a counter is present in it
    if it is present in any input. *)

val snapshot : t -> (string * int) list
val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-counter increase between two snapshots, both sorted by name
    (counters that did not change are omitted; counters only in
    [before] are ignored). *)

module Series : sig
  (** Accumulates every observation (virtual durations) for exact summary
      stats.  Memory is O(observations) by design — this is the exact
      nearest-rank oracle the bounded {!Histogram} is tested against; use
      the histogram for population-scale runs.  The sorted form is cached
      across [percentile] calls and invalidated by [add]. *)

  type s

  val create : unit -> s
  val add : s -> Time.t -> unit
  val count : s -> int
  val mean : s -> Time.t
  val min : s -> Time.t
  val max : s -> Time.t
  val percentile : s -> float -> Time.t
  (** [percentile s 0.99]; nearest-rank on the sorted observations. *)

  val pp : Format.formatter -> s -> unit
end

module Histogram : sig
  (** Bounded log-bucketed latency histogram (HDR-style).

      Values below 64 ns are bucketed exactly; above that each power-of-two
      octave is split into 64 linear sub-buckets, so any reported quantile
      is at most one bucket width (≤ 1/64 ≈ 1.6%) above the exact
      nearest-rank value and never below it.  Count, sum, min and max are
      exact.  State is a fixed ~3.7k-slot int array however many
      observations are added, and [merge] is bucket-wise addition —
      commutative and associative, so results are independent of how a
      population was partitioned across shards or domains. *)

  type h

  type summary = {
    h_count : int;
    h_mean : Time.t;
    h_min : Time.t;
    h_max : Time.t;
    h_p50 : Time.t;
    h_p99 : Time.t;
    h_p999 : Time.t;
  }

  val create : unit -> h
  val add : h -> Time.t -> unit
  val count : h -> int

  val merge : h -> h -> h
  (** Fresh histogram holding both inputs' observations. *)

  val mean : h -> Time.t
  val min : h -> Time.t
  val max : h -> Time.t

  val quantile : h -> float -> Time.t
  (** Nearest-rank over bucket counts, reported as the bucket's upper
      bound (clamped to the exact max).  Raises [Invalid_argument] when
      empty, like {!Series.percentile}. *)

  val summary : h -> summary option
  (** [None] when empty. *)

  val pp : Format.formatter -> h -> unit
end
