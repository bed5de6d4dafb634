(** Specialised min-heap for the engine's task queue.

    Identical ordering to {!Heap} — (time, seq) ascending — but each
    entry carries the enqueuer's {!Vclock} inline, so the engine does
    not allocate a wrapper closure per enqueued task to restore the
    ambient clock.  Used only by {!Engine}; everything else should use
    the generic {!Heap}. *)

type entry = {
  time : int;  (** virtual time, ns *)
  seq : int;  (** tie-breaker for same-time entries *)
  clk : Vclock.t;  (** enqueuer's clock, restored as ambient on run *)
  fn : unit -> unit;
}

type t

val create : unit -> t
val length : t -> int
val add : t -> time:int -> seq:int -> clk:Vclock.t -> (unit -> unit) -> unit

val take : t -> entry
(** Removes and returns the entry with the smallest (time, seq) key,
    without allocating: the engine's drain loop calls it once per task.
    The vacated slot is cleared, so a taken entry is not kept reachable
    by the queue.  Raises [Invalid_argument] on an empty queue. *)

val min_time : t -> int
(** Key time of the smallest entry, without allocating.  Raises
    [Invalid_argument] on an empty queue. *)
