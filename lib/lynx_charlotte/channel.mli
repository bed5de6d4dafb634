(** LYNX channel layer for Charlotte — the run-time package machinery of
    paper §3.2.

    Every LYNX link is one Charlotte link; LYNX request/reply queues are
    multiplexed onto the single receive activity Charlotte allows per
    end.  The module implements the full protocol of §3.2.1–3.2.2:

    - unwanted requests are returned with [Retry], or with
      [Forbid]/[Allow] when a receive must stay posted for an expected
      reply;
    - a LYNX message moving k >= 2 ends becomes a first packet, a
      [Goahead] from the receiver, and k-1 [Enc] packets (figure 2);
    - ends are quiesced (posted receives cancelled) before they may be
      enclosed, and returned enclosures are re-owned on bounces.

    The optional [reply_acks] mode adds the top-level reply
    acknowledgments the paper rejected as too expensive: +50% message
    traffic, in exchange for the reply-abort exception of §3.2.2. *)

type t
(** Per-process channel state. *)

val make :
  ?reply_acks:bool ->
  Charlotte.Kernel.t ->
  Charlotte.Types.pid ->
  stats:Sim.Stats.t ->
  t * Lynx.Backend.ops
(** Creates the channel layer for one process and starts its completion
    pump fiber.  The returned {!Lynx.Backend.ops} plug into
    {!Lynx.Process.make}. *)

val adopt_end : t -> Charlotte.Types.link_end -> int
(** Registers a kernel end this process already owns (bootstrap links
    from {!Lynx.World.link_between}); returns the backend handle. *)
