(** Sparse vector clocks over fiber ids.

    A clock maps fiber ids to event counters; absent entries are zero.
    Clocks order the structured trace events causally: an event [a]
    happened before [b] iff [leq a.clock b.clock] and the clocks differ,
    and two events {e race} when their clocks are incomparable
    ({!concurrent}).

    {b Representation.}  A clock is a list with one block per entry,
    owner first: the head cell holds the component of the fiber that
    last ticked the clock (its owner); the cells after it hold every
    other entry once, in ascending id order.  A fiber's own clock
    therefore keeps its id at the head, which is what makes its ticks
    O(1).  The head is an implementation detail: clocks with the same
    entries compare {!Equal} and print the same whatever their heads.

    {b Immutability.}  Values are never mutated: every operation
    returns a clock that shares the unchanged suffix of its inputs.  An
    event, a stamp or a queued task keeps a snapshot by holding the
    pointer, so no operation copies a clock to protect one.

    {b Costs} for clocks of width [w]:
    - [tick] by the owner allocates one 4-word cell and walks nothing;
      a tick by another fiber (a spawn) rebuilds the list up to both
      ids, O(w).
    - [merge a b] walks both lists once, O(w), and keeps [a]'s head.
      It allocates at most one cell per entry up to the last entry [b]
      raises (the suffix after it is shared with [a] or [b]), and
      returns [a] itself when [b] raises nothing.
    - [get], [leq] and [concurrent] allocate nothing; [leq] follows one
      pointer per entry of each side, plus a look-up of [a]'s owner in
      [b]. *)

type t

val empty : t

val get : t -> int -> int
(** Counter for one fiber id (0 when absent). *)

val tick : t -> int -> t
(** Increment one fiber's component; that fiber becomes the owner. *)

val merge : t -> t -> t
(** Pointwise maximum — the receive/join operation.  The result keeps
    the first argument's owner, and is the first argument itself when
    it already dominates the second. *)

val leq : t -> t -> bool
(** Pointwise [<=]: [leq a b] means every component of [a] is at most
    the corresponding component of [b]. *)

val compare_causal : t -> t -> [ `Equal | `Before | `After | `Concurrent ]
(** Causal relation between the events carrying these clocks. *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]: the events race.  Stops at the
    first of the two that holds. *)

val to_string : t -> string
(** ["{0:3 2:1}"] — fiber id : counter pairs, ascending by id. *)
