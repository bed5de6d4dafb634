(** Structured, typed trace events with vector-clock timestamps.

    The engine's one event log.  Each event is keyed by the fiber that
    produced it and (for communication events) the kernel object it
    touched, and carries a {!Vclock} snapshot that captures its causal
    past.  Nothing is rendered to text while a run executes: consumers
    read the typed kinds, the engine folds {!kind_tag} into its
    fingerprint, and human-readable forms ({!kind_to_string},
    {!describe}) are produced on demand — e.g. for a repro dump's
    trace tail. *)

type kind =
  | Spawn of { fid : int; name : string }
  | Crash of { fid : int; name : string; error : string }
  | Note of string  (** free-form note ({!Engine.record}) *)
  | Block of { reason : string }  (** a fiber suspended *)
  | Send of { obj : string; op : string; unordered : bool }
      (** a message entered the queue named [obj] *)
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

val describe : t -> string
(** Full human-readable form, including the vector clock. *)
