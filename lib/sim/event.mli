(** Structured, typed trace events with vector-clock timestamps.

    The engine's one event log.  Each event is keyed by the fiber that
    produced it and (for communication events) the kernel object it
    touched, and carries a {!Vclock} snapshot that captures its causal
    past.  Nothing is rendered to text while a run executes: consumers
    read the typed kinds, the engine folds {!kind_tag} into its
    fingerprint, and a human-readable form ({!kind_to_string}) is
    produced on demand — e.g. for a repro dump's trace tail. *)

(** How a send takes part in the race rules, and what it promises about
    its object's lifetime. *)
type send_mode =
  | Ordered
      (** an application send: its arrival order is part of the
          program, so two concurrent ones race *)
  | Unordered
      (** a retransmission under an already-used correlation id, or a
          reply routed by correlation id: excluded from message-race
          pairs on both sides *)
  | Final
      (** an [Ordered] send that is also the last one its object takes:
          the sender promises that no further send enters [obj], so
          once every message on it has been received the object can
          change no finding and a consumer may forget it
          (the race detector does).  A send after a [Final] one breaks
          the promise. *)

type kind =
  | Spawn of { fid : int; name : string }
  | Crash of { fid : int; name : string; error : string }
  | Note of string  (** free-form note ({!Engine.record}) *)
  | Block of { reason : string }  (** a fiber suspended *)
  | Send of { obj : string; op : string; mode : send_mode }
      (** a message entered the queue named [obj].  [mode] is an
          immediate, so a send costs the same words whatever its mode;
          {!kind_tag} ignores it and {!kind_to_string} marks only
          [Unordered] sends, so a [Final] mark moves no fingerprint and
          no trace line *)
  | Receive of { obj : string; op : string }
      (** a message left the queue named [obj] *)
  | Signal of { obj : string; woke : bool }
      (** a wakeup hint was raised on [obj]; [woke] tells whether a
          waiter consumed it immediately *)
  | Signal_seen of { obj : string }
      (** a previously latched signal on [obj] was consumed *)
  | Wait of { obj : string }
      (** a consumer committed to waiting on [obj] (the check-then-block
          point of a lost-signal window) *)
  | Link_move of { obj : string }
      (** a link end of the kernel object [obj] was adopted after moving *)
  | Drop of { obj : string; op : string }
      (** a frame on the transport named [obj] was lost — either an
          injected fault or modeled medium loss (CSMA broadcast) *)
  | Fault of { what : string; obj : string }
      (** a non-drop injected fault fired on [obj]: ["dup"], ["delay"],
          ["partition"], ["crash"], ["restart"], ... *)

type t = {
  ev_time : Time.t;
  ev_fiber : int;  (** emitting fiber id, [-1] in scheduler context *)
  ev_clock : Vclock.t;
  ev_kind : kind;
}

val apply : (Time.t -> int -> Vclock.t -> kind -> 'a) -> t -> 'a
(** [apply f ev] is [f ev.ev_time ev.ev_fiber ev.ev_clock ev.ev_kind]:
    how a retained record is fed to a consumer that takes an event's
    parts ({!Engine.consumer}). *)

val placeholder : t
(** A fill value for fresh event arrays, allocated once; never emitted.
    Seeding a major-heap-sized [Array.make] with a young event instead
    would force a minor collection first. *)

(** {2 Kinds built once per queue}

    A kind is an immutable value, so events may share one.  A channel
    names each of its queues once and keeps a memo slot per queue; a
    [Send] or [Receive] on that queue reuses the slot's kind while the
    message's [op] (and, for a send, [mode]) stay the same, so a steady
    stream of one operation builds its kind once, observed or not. *)

type memo
(** One slot per queue, each holding the last kind built for it. *)

val memo : int -> memo
(** [memo n]: [n] empty slots. *)

val send_kind : memo -> int -> obj:string -> op:string -> mode:send_mode -> kind
(** [send_kind m i ~obj ~op ~mode] is [Send { obj; op; mode }]: the kind
    in slot [i] when it is a [Send] on the very same [obj] (compared
    physically) with an equal [op] and the same [mode], else a fresh one,
    which replaces it. *)

val receive_kind : memo -> int -> obj:string -> op:string -> kind
(** [receive_kind m i ~obj ~op] is [Receive { obj; op }], reused from
    slot [i] on the same terms as {!send_kind}. *)

val obj : t -> string option
(** The kernel object an event is keyed by, if any. *)

val kind_tag : kind -> int
(** Stable small integer per kind (the two [Signal] polarities count as
    distinct kinds), folded into the engine's incremental event-stream
    hash without rendering anything. *)

val kind_to_string : kind -> string
(** Short human-readable form of the kind alone, e.g.
    ["send ep.req req"] — the label streaming analyzers use when citing
    an event they did not retain. *)

(** The rendering the tests' event-stream MD5 goldens are taken over. *)
module For_tests : sig
  val describe : t -> string
  (** Full human-readable form, including the vector clock. *)
end
