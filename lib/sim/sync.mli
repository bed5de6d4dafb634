(** Blocking synchronization primitives for fibers.

    Each structure captures its engine at creation time.  All [take]/
    [read]/[wait] operations block the calling effect fiber
    ({!Engine.await_prepared}, with reason ["waitq"]); all producers
    are non-blocking and may be called from scheduler context (e.g.
    from a [schedule_at] task or an interrupt handler). *)

module Ivar : sig
  (** Write-once cell. *)

  type 'a t

  val create : Engine.t -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val fill_error : 'a t -> exn -> unit
  val read : 'a t -> 'a
  (** Blocks until filled; re-raises if filled with an error. *)

  val peek : 'a t -> 'a option
end

module Mailbox : sig
  (** Unbounded FIFO queue with blocking take. *)

  type 'a t

  val create : Engine.t -> 'a t
  val put : 'a t -> 'a -> unit
  val take : 'a t -> 'a
  (** Blocks while empty.  Raises if the mailbox is poisoned and empty. *)

  val take_opt : 'a t -> 'a option
  val peek_opt : 'a t -> 'a option
  val length : 'a t -> int
  val is_empty : 'a t -> bool

  val poison : 'a t -> exn -> unit
  (** Wakes all current and future takers with the exception once the
      queue has drained.  Items already queued are still delivered. *)
end

(** The wait queue behind {!Mailbox}, and a fill that reports whether
    it happened: the operations the Sync-program golden drives. *)
module For_tests : sig
  module Waitq : sig
    (** A bare queue of blocked fibers' handles. *)

    type 'a t

    val create : Engine.t -> 'a t
    val wait : 'a t -> 'a
    (** Blocks until signalled. *)

    val signal : 'a t -> 'a -> bool
    (** Wakes the oldest waiter; false if none was waiting. *)

    val signal_error : 'a t -> exn -> bool
    val broadcast_error : 'a t -> exn -> int
    val waiters : 'a t -> int
  end

  val try_fill : 'a Ivar.t -> 'a -> bool
end
