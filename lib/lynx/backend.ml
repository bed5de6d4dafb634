(** The interface between the LYNX run-time package and a kernel-specific
    channel layer.

    This is the paper's subject: everything above this interface (queue
    semantics, coroutine management, fairness, marshalling, move rules)
    is shared; everything below it differs radically between Charlotte,
    SODA and Chrysalis.  The contract is {e pull}-based: a backend
    buffers arrived messages per (link, kind) and rings the doorbell; at
    its block points the core probes the queues it wants with [b_ready],
    round-robin over its link ids, and takes from the first ready one
    with [b_take].

    A backend must only buffer {e wanted} messages — those matching the
    interest last declared via [b_set_interest].  How it achieves that is
    its own business: Charlotte must bounce unwanted kernel messages with
    retry/forbid traffic (§3.2.1); SODA and Chrysalis simply defer
    acceptance (§6, lesson two). *)

type kind = Request | Reply

let kind_to_string = function Request -> "request" | Reply -> "reply"

(** A received message: payload plus freshly registered handles for any
    link ends that moved with it.

    The payload is a slice — the [rx_len] bytes of [rx_payload] from
    [rx_off] — of the frame the channel received, decoded in place
    rather than copied out.  A slice stays valid for ever: no channel
    reuses or writes into a receive-side buffer, because an [rx] may be
    held and delivered again long after it was taken
    ({!Fault_ops} withholds and duplicates them). *)
type rx = {
  rx_kind : kind;
  rx_corr : int;
      (** correlation id: a reply echoes the id of the request it
          answers, so the runtime can unblock the right coroutine even
          when several calls are outstanding on one link *)
  rx_op : string;
  rx_exn : string option;  (** a reply carrying a remote exception *)
  rx_payload : bytes;
  rx_off : int;
  rx_len : int;
  rx_enclosures : int list;  (** backend handle ids, already owned by us *)
}

(** Outcome of a send.  On failure the backend reports which enclosures
    it recovered; the rest are lost (possible only under Charlotte). *)
type send_result = (unit, send_error) result

and send_error = {
  se_exn : exn;
  se_recovered : int list;  (** enclosure handle ids safely returned to us *)
}

type ops = {
  b_new_link : unit -> int * int;
      (** creates a link with both end handles owned by this process *)
  b_send :
    link:int ->
    kind:kind ->
    corr:int ->
    op:string ->
    retx:bool ->
    exn_msg:string option ->
    values:Value.t list ->
    enclosures:int list ->
    sent:send_result Sim.Engine.handle ->
    unit;
      (** starts a send.  The channel builds the message's frame once,
          here: its frame codec writes the header into one exact-size
          {!Frame.writer} and {!Codec.write} the [values] behind it, and
          a retransmission sends those same bytes again.  [enclosures]
          are the handles of the ends the values enclose, in
          {!Value.links_of_list} order.  [sent] is the sender's
          {!Sim.Engine.prepare}d handle: the channel resumes it once,
          with the outcome, when the message has been received or has
          failed — possibly much later, possibly before [b_send]
          returns.  [retx] marks a retransmission under an already-used
          correlation id (a screened caller's retry, or the dedup cache
          re-answering a duplicate): the same logical message again,
          which transports and detectors must not treat as a fresh
          application send *)
  b_set_interest : link:int -> requests:bool -> replies:bool -> unit;
  b_ready : link:int -> kind:kind -> bool;
      (** whether [b_take ~link ~kind] would find a buffered message.  The
          readiness probe the dispatcher scans links with: it must not
          allocate or change any state *)
  b_take : link:int -> kind:kind -> rx option;
  b_take_dead : unit -> int list;
      (** handles of links newly observed destroyed, each reported once *)
  b_doorbell : unit Sim.Sync.Mailbox.t;
      (** rung whenever readiness or dead state may have changed *)
  b_destroy : link:int -> unit;
  b_shutdown : unit -> unit;  (** process termination: destroy everything *)
  b_stats : Sim.Stats.t;
}

(** Resumes [sent] with a failure that returned [recovered] to us. *)
let fail_send eng sent exn ~recovered =
  Sim.Engine.resume eng sent (Error { se_exn = exn; se_recovered = recovered })

(** A [b_take_dead] for a backend that queues the handles of links it
    has seen die: drains [dead], oldest first. *)
let take_dead (dead : int Queue.t) () =
  if Queue.is_empty dead then []
  else begin
    let rec drain acc =
      match Queue.take_opt dead with
      | Some h -> drain (h :: acc)
      | None -> List.rev acc
    in
    drain []
  end
