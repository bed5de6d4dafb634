(** Sparse vector clocks over fiber ids.

    A clock maps fiber ids to event counters; absent entries are zero.
    Clocks order the structured trace events causally: an event [a]
    happened before [b] iff every component of [a.clock] is at most
    [b.clock]'s and the clocks differ,
    and two events {e race} when their clocks are incomparable
    ({!concurrent}).

    {b Representation.}  A clock is an owner record: the fiber that
    last ticked it (its owner) and that fiber's counter, unpacked, plus
    a tail that holds every other non-zero entry in one word each — the
    fiber id in the high bits, the counter in the low 31 — in
    ascending id order.  An entry thus costs one word, not a cons cell.
    The owner is an implementation detail: clocks with the
    same entries order and print the same whatever their owners.

    {b Immutability.}  Values are never mutated: a tail, once built, is
    shared by every clock that keeps it.  An event, a stamp or a queued
    task keeps a snapshot by holding the pointer, so no operation
    copies a clock to protect one.

    {b Costs} for clocks of width [w]:
    - [tick] by the owner allocates one 4-word record and shares the
      tail, at any width; a tick by another fiber (a spawn) rebuilds
      the tail once, O(w).
    - [merge a b] keeps [a]'s owner.  It returns [a] itself when [a]
      dominates [b] (allocating nothing), the 4-word record over [a]'s
      tail when only [a]'s owner component rises, and otherwise one
      record and one new tail, written in one walk of both tails into
      a per-domain buffer and copied out once.  A tail of more than 256
      entries is allocated in the major heap.  Two snapshots of one
      owner that share their tail merge without a walk.
    - [concurrent] allocates nothing.  It looks up both owners' entries on the other side by bisection,
      which settles most races, and otherwise walks both tails once;
      two snapshots of one owner that share their tail need neither.
    - [get] bisects the tail.

    {b Limits.}  Fiber ids fit in 0..[2^31 - 2] and counters in
    1..[2^31 - 1]; an operation that would leave them raises
    [Invalid_argument] instead of wrapping. *)

type t

val empty : t

val get : t -> int -> int
(** Counter for one fiber id (0 when absent). *)

val tick : t -> int -> t
(** Increment one fiber's component; that fiber becomes the owner.
    Raises [Invalid_argument] when the id or the counter would leave
    its limit. *)

val merge : t -> t -> t
(** Pointwise maximum — the receive/join operation.  The result keeps
    the first argument's owner, and is the first argument itself when
    it already dominates the second. *)

val concurrent : t -> t -> bool
(** Neither clock is pointwise [<=] the other: the events race.  Stops
    as soon as each is seen to exceed the other somewhere. *)

val of_list : (int * int) list -> t
(** The clock with these (fiber id, counter) entries; the first one's
    fiber is its owner.  Raises [Invalid_argument] on a repeated id, an
    id or a counter outside its limit. *)

val to_string : t -> string
(** ["{0:3 2:1}"] — fiber id : counter pairs, ascending by id. *)

(** The limits, for tests that check an operation at them. *)
module For_tests : sig
  val max_id : int
  (** The largest fiber id a clock holds: [2^31 - 2]. *)

  val max_count : int
  (** The largest counter a clock holds: [2^31 - 1]. *)
end
