(** Binary min-heap keyed by [(time, seq)].

    The sequence number breaks ties between events scheduled for the same
    virtual time, guaranteeing a deterministic FIFO order for simultaneous
    events. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:int -> seq:int -> 'a -> unit

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the entry with the smallest [(time, seq)] key. *)

val take : 'a t -> 'a
(** Removes the entry with the smallest [(time, seq)] key and returns
    its payload, allocating nothing: read {!min_time} first for its
    time.  Raises [Invalid_argument] on an empty heap. *)

val min_time : 'a t -> int
(** Key time of the minimum entry, allocating nothing.  Raises
    [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit
(** Empties the heap and releases the backing storage, so payloads
    (frequently closures pinning large object graphs) become
    collectable immediately. *)
