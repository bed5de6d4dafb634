(** LYNX channel layer for Charlotte (paper §3.2).

    Every LYNX link is one Charlotte link.  Request and reply queues are
    multiplexed onto the single receive activity Charlotte allows per
    end, which is the root of most of this module's complexity: the
    kernel cannot distinguish requests from replies, so unwanted
    requests must be bounced back with [Retry] or [Forbid]/[Allow]
    traffic, and a receive posted for an expected reply can deliver a
    request instead.  Moving more than one end per LYNX message requires
    the [Goahead]/[Enc] packet protocol of figure 2.

    Compare with {!Lynx_soda.Channel} and {!Lynx_chrysalis.Channel},
    which need none of this machinery — the paper's lesson two. *)

open Sim
module K = Charlotte.Kernel
module CT = Charlotte.Types

type frame = {
  fr_seq : int;
  fr_kind : Lynx.Backend.kind;
  fr_data : bytes;  (* the first packet, built once by [send] *)
  fr_encl : int list;  (* handle ids, first one rides the first packet *)
  fr_sent : Lynx.Backend.send_result Engine.handle;  (* the sender's *)
  mutable fr_encl_sent : int;  (* [Enc] packets delivered so far *)
  mutable fr_awaiting_goahead : bool;
  (* Reply delivered by the kernel, waiting only for its top-level
     [Ack] (reply_acks mode): the link's death cannot undo it. *)
  mutable fr_awaiting_ack : bool;
  mutable fr_completed : bool;
  mutable fr_failed : bool;
}

type carried = Handle of int | Raw of CT.link_end

type outpkt = {
  pk_label : int;  (* the packet's type, as an index in [Packet.labels] *)
  pk_data : bytes;  (* the encoded packet *)
  pk_carry : carried option;  (* the kernel enclosure, if any *)
  pk_frame : frame option;
}

type partial = {
  pa_data : Packet.data_header;
  pa_kind : Lynx.Backend.kind;
  mutable pa_got : CT.link_end list;  (* collected ends, reversed *)
}

type chan = {
  h : int;
  ce : CT.link_end;
  mutable live : bool;
  mutable moving_out : bool;  (* our end is enclosed in an in-flight message *)
  mutable want_requests : bool;
  mutable want_replies : bool;
  mutable recv_posted : bool;
  mutable send_outstanding : outpkt option;
  mutable kicking : bool;  (* a fiber is inside [kick]'s kernel calls *)
  out_q : outpkt Queue.t;
  mutable forbid_received : bool;  (* peer forbade our requests *)
  mutable forbid_sent : bool;  (* we owe the peer an Allow *)
  pending_forbidden : frame Queue.t;
  frames : (int, frame) Hashtbl.t;  (* recent outgoing frames, by seq *)
  mutable awaiting_goaheads : int;
  mutable awaiting_acks : int;
  partials : partial option array;  (* index by kind *)
  in_requests : Lynx.Backend.rx Queue.t;
  in_replies : Lynx.Backend.rx Queue.t;
  rx_objs : string array;  (* our receive queues' event names, by kind *)
  tx_objs : string array;  (* the far end's receive queues' names *)
  rx_kinds : Event.memo;  (* the last Receive kind of each rx queue *)
  tx_kinds : Event.memo;  (* the last Send kind of each tx queue *)
  end_move : Event.kind;  (* the Link_move of this end *)
}

type t = {
  kernel : K.t;
  pid : CT.pid;
  sts : Stats.t;
  reply_acks : bool;
      (* the optional top-level reply acknowledgments of §3.2.2: +50%
         message traffic, but reply senders learn their fate *)
  chans : chan Lynx.Handle_table.t;  (* by handle *)
  by_end : (int, chan) Hashtbl.t;  (* by [end_key] of the link end *)
  doorbell : unit Sync.Mailbox.t;
  dead : int Queue.t;
  mutable next_handle : int;
  mutable next_seq : int;
  mutable closing : bool;
}

(* One int per end, so a lookup builds no tuple. *)
let end_key (e : CT.link_end) = (2 * e.CT.link_id) + e.CT.side

let kind_index = function Lynx.Backend.Request -> 0 | Lynx.Backend.Reply -> 1
let kind_label = function Lynx.Backend.Request -> "req" | Lynx.Backend.Reply -> "rep"
let ring t = Sync.Mailbox.put t.doorbell ()

(* Structured-event object names, built once per registered end.  The
   receive queue of end (L, s) for a message kind is
   "cha.L<id>.s<s>.<kind>"; both parties can compute it (the sender
   targets the far side of its own end), so Send and Receive events for
   one message meet on the same name, and a per-message stamp keyed by
   that queue and the sender's frame seq carries the sender's clock
   across the passive queue to the consumer. *)
let queue_objs (e : CT.link_end) ~side =
  Array.map
    (fun kind -> Printf.sprintf "cha.L%d.s%d.%s" e.CT.link_id side (kind_label kind))
    [| Lynx.Backend.Request; Lynx.Backend.Reply |]

let stamp_key (e : CT.link_end) ~side kind ~seq =
  Engine.stamp_key ~layer:1
    ~obj:((((e.CT.link_id lsl 1) lor side) lsl 1) lor kind_index kind)
    ~seq

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let register t (ce : CT.link_end) =
  let h = fresh_handle t in
  let c =
    {
      h;
      ce;
      live = true;
      moving_out = false;
      want_requests = false;
      want_replies = false;
      recv_posted = false;
      send_outstanding = None;
      kicking = false;
      out_q = Queue.create ();
      forbid_received = false;
      forbid_sent = false;
      pending_forbidden = Queue.create ();
      frames = Hashtbl.create 8;
      awaiting_goaheads = 0;
      awaiting_acks = 0;
      partials = Array.make 2 None;
      in_requests = Queue.create ();
      in_replies = Queue.create ();
      rx_objs = queue_objs ce ~side:ce.CT.side;
      tx_objs = queue_objs ce ~side:(1 - ce.CT.side);
      rx_kinds = Event.memo 2;
      tx_kinds = Event.memo 2;
      end_move =
        Event.Link_move { obj = Printf.sprintf "cha.L%d.s%d" ce.CT.link_id ce.CT.side };
    }
  in
  Lynx.Handle_table.replace t.chans h c;
  Hashtbl.replace t.by_end (end_key ce) c;
  c

let chan_of_end t (e : CT.link_end) =
  Hashtbl.find_opt t.by_end (end_key e)

module Key = struct
  let bounce_unknown_seq = Stats.key "lynx_charlotte.bounce_unknown_seq"
  let cancel_failed = Stats.key "lynx_charlotte.cancel_failed"
  let enclosures_lost = Stats.key "lynx_charlotte.enclosures_lost"
  let malformed = Stats.key "lynx_charlotte.malformed"
  let orphan_acks = Stats.key "lynx_charlotte.orphan_acks"
  let orphan_completions = Stats.key "lynx_charlotte.orphan_completions"
  let orphan_enc = Stats.key "lynx_charlotte.orphan_enc"
  let orphan_goahead = Stats.key "lynx_charlotte.orphan_goahead"
  let orphan_sent = Stats.key "lynx_charlotte.orphan_sent"
  let send_errors = Stats.key "lynx_charlotte.send_errors"
  let unwanted_received = Stats.key "lynx_charlotte.unwanted_received"
end

(* Per-packet counter keys, one per direction and packet type. *)
let pkt_counters dir =
  Array.map
    (fun l -> Stats.key (Printf.sprintf "lynx_charlotte.pkt_%s.%s" dir l))
    Packet.labels

let sent_counters = pkt_counters "sent"
let received_counters = pkt_counters "received"

let count_pkt t counters (h : Packet.header) =
  Stats.incr t.sts counters.(Packet.label_index h)

(* A control packet, encoded when it is queued. *)
let control ?carry ?frame (h : Packet.header) =
  {
    pk_label = Packet.label_index h;
    pk_data = Packet.encode h;
    pk_carry = carry;
    pk_frame = frame;
  }

(* ---- Frame completion and failure ------------------------------------ *)

(* A moved end has definitively left us. *)
let finalize_moved t h =
  match Lynx.Handle_table.find_opt t.chans h with
  | Some ec ->
    ec.live <- false;
    Hashtbl.remove t.by_end (end_key ec.ce)
  | None -> ()

let complete_frame t (c : chan) (fr : frame) =
  if not (fr.fr_completed || fr.fr_failed) then begin
    fr.fr_completed <- true;
    List.iter (finalize_moved t) fr.fr_encl;
    ignore c;
    Engine.resume (K.engine t.kernel) fr.fr_sent (Ok ())
  end

let fail_frame t (c : chan) (fr : frame) =
  if not (fr.fr_completed || fr.fr_failed) then begin
    fr.fr_failed <- true;
    (* Enclosures whose chans we still hold (in by_end) are recovered;
       ends that were transferred and not returned are lost — the
       §3.2.2 deviation. *)
    let recovered =
      List.filter
        (fun h ->
          match Lynx.Handle_table.find_opt t.chans h with
          | Some ec -> Hashtbl.mem t.by_end (end_key ec.ce)
          | None -> false)
        fr.fr_encl
    in
    List.iter
      (fun h ->
        if not (List.mem h recovered) then
          Stats.incr t.sts Key.enclosures_lost)
      fr.fr_encl;
    ignore c;
    Lynx.Backend.fail_send (K.engine t.kernel) fr.fr_sent
      Lynx.Excn.Link_destroyed ~recovered
  end

let on_dead t (c : chan) =
  if c.live then begin
    c.live <- false;
    Hashtbl.remove t.by_end (end_key c.ce);
    Hashtbl.iter
      (fun _ fr ->
        if fr.fr_awaiting_ack then complete_frame t c fr else fail_frame t c fr)
      c.frames;
    Queue.iter
      (fun pk -> match pk.pk_frame with Some fr -> fail_frame t c fr | None -> ())
      c.out_q;
    Queue.clear c.out_q;
    Queue.iter (fun fr -> fail_frame t c fr) c.pending_forbidden;
    Queue.clear c.pending_forbidden;
    Queue.add c.h t.dead;
    ring t
  end

(* ---- Enclosure readiness ------------------------------------------------ *)

(* A Charlotte end may only be enclosed when it has no outstanding
   activities, so before a data packet carrying an end can be issued we
   must quiesce the enclosed end: cancel its posted receive if possible.
   If the cancel fails the kernel is already delivering a message to it;
   we wait (the pump will re-kick us). *)
let enclosure_ready t (ec : chan) =
  if not ec.live then true  (* will fail at send time *)
  else if ec.send_outstanding <> None || not (Queue.is_empty ec.out_q) then false
  else if ec.recv_posted then begin
    match K.cancel t.kernel t.pid ec.ce CT.Received with
    | CT.Ok_done ->
      ec.recv_posted <- false;
      true
    | CT.E_busy ->
      Stats.incr t.sts Key.cancel_failed;
      false
    | CT.E_destroyed ->
      on_dead t ec;
      true
    | _ -> true
  end
  else true

let carry_ready t (pk : outpkt) =
  match pk.pk_carry with
  | None | Some (Raw _) -> true
  | Some (Handle h) -> (
    match Lynx.Handle_table.find_opt t.chans h with
    | Some ec -> enclosure_ready t ec
    | None -> true)

(* ---- The transmit pump -------------------------------------------------- *)

let rec kick t (c : chan) =
  (* The kernel calls below sleep, so another coroutine could re-enter
     [kick] for the same end; the [kicking] flag serializes them. *)
  if c.live && c.send_outstanding = None && not c.kicking then
    match Queue.peek_opt c.out_q with
    | None -> ()
    | Some pk ->
      c.kicking <- true;
      let ready = try carry_ready t pk with e -> c.kicking <- false; raise e in
      if not ready then c.kicking <- false
      else begin
        ignore (Queue.pop c.out_q);
        (* Claim the slot before the (sleeping) kernel call. *)
        c.send_outstanding <- Some pk;
        let enclosure =
          match pk.pk_carry with
          | None -> None
          | Some (Raw e) -> Some e
          | Some (Handle h) -> (
            match Lynx.Handle_table.find_opt t.chans h with
            | Some ec ->
              ec.moving_out <- true;
              Some ec.ce
            | None -> None)
        in
        Stats.incr t.sts sent_counters.(pk.pk_label);
        let status = K.send t.kernel t.pid c.ce ?enclosure pk.pk_data in
        c.kicking <- false;
        match status with
        | CT.Ok_done -> ()
        | CT.E_destroyed ->
          c.send_outstanding <- None;
          (match pk.pk_frame with Some fr -> fail_frame t c fr | None -> ());
          on_dead t c
        | st ->
          c.send_outstanding <- None;
          Stats.incr t.sts Key.send_errors;
          Engine.record (K.engine t.kernel)
            (Printf.sprintf "charlotte send error: %s" (CT.status_to_string st));
          (match pk.pk_frame with Some fr -> fail_frame t c fr | None -> ());
          kick t c
      end

let enqueue_pkt t (c : chan) pk =
  Queue.add pk c.out_q;
  kick t c

(* Queue the [Enc] packets for a multi-enclosure frame (all but the
   first end, which rode the first packet). *)
let enqueue_enc_packets t (c : chan) (fr : frame) =
  List.iteri
    (fun i h ->
      if i > 0 then
        enqueue_pkt t c
          (control ~carry:(Handle h) ~frame:fr
             (Packet.Enc { e_seq = fr.fr_seq; e_kind = fr.fr_kind; e_index = i })))
    fr.fr_encl

let enqueue_first_packet t (c : chan) (fr : frame) =
  let carry =
    match fr.fr_encl with [] -> None | h :: _ -> Some (Handle h)
  in
  enqueue_pkt t c
    {
      pk_label = Packet.data_label fr.fr_kind;
      pk_data = fr.fr_data;
      pk_carry = carry;
      pk_frame = Some fr;
    }

(* ---- Receive management -------------------------------------------------- *)

let recv_desired (c : chan) =
  c.live
  && (not c.moving_out)
  && (c.want_requests || c.want_replies || c.forbid_received
     || c.awaiting_goaheads > 0
     || c.awaiting_acks > 0
     || Array.exists Option.is_some c.partials)

let rec ensure_recv t (c : chan) =
  if c.live then begin
    let desired = recv_desired c in
    (* "A process that has sent a forbid message sends an allow as soon
       as it is either willing to receive requests or has no Receive
       outstanding" (§3.2.1). *)
    if c.forbid_sent && (c.want_requests || not desired) then begin
      c.forbid_sent <- false;
      enqueue_pkt t c (control Packet.Allow)
    end;
    if desired && not c.recv_posted then begin
      match K.receive t.kernel t.pid c.ce ~max_len:65536 with
      | CT.Ok_done -> c.recv_posted <- true
      | CT.E_destroyed -> on_dead t c
      | CT.E_busy -> c.recv_posted <- true  (* already posted *)
      | _ -> ()
    end
    else if (not desired) && c.recv_posted then begin
      match K.cancel t.kernel t.pid c.ce CT.Received with
      | CT.Ok_done ->
        c.recv_posted <- false;
        (* Cancelling may enable a pending Allow. *)
        if c.forbid_sent then ensure_recv t c
      | CT.E_busy -> Stats.incr t.sts Key.cancel_failed
      | CT.E_destroyed -> on_dead t c
      | _ -> ()
    end
  end

(* ---- Incoming packet processing ------------------------------------------ *)

let finalize_incoming t (c : chan) kind (d : Packet.data_header)
    (ends : CT.link_end list) =
  let eng = K.engine t.kernel in
  Engine.adopt eng (stamp_key c.ce ~side:c.ce.CT.side kind ~seq:d.Packet.d_seq);
  let ki = kind_index kind in
  Engine.emit eng (Event.receive_kind c.rx_kinds ki ~obj:c.rx_objs.(ki) ~op:d.Packet.d_op);
  let handles = List.map (fun e -> (register t e).h) ends in
  let rx =
    {
      Lynx.Backend.rx_kind = kind;
      rx_corr = d.Packet.d_corr;
      rx_op = d.Packet.d_op;
      rx_exn = d.Packet.d_exn;
      rx_payload = d.Packet.d_payload;
      rx_off = d.Packet.d_off;
      rx_len = d.Packet.d_len;
      rx_enclosures = handles;
    }
  in
  (match kind with
  | Lynx.Backend.Request -> Queue.add rx c.in_requests
  | Lynx.Backend.Reply ->
    Queue.add rx c.in_replies;
    if t.reply_acks then
      enqueue_pkt t c (control (Packet.Ack { k_seq = d.Packet.d_seq })));
  ring t

(* An unwanted request must be returned to its sender (§3.2.1): with
   [Forbid] if we must keep a receive posted (a reply is expected, so a
   plain retransmission would come straight back), else with [Retry]. *)
let bounce_request t (c : chan) (d : Packet.data_header) enclosure =
  Stats.incr t.sts Key.unwanted_received;
  let carry = Option.map (fun e -> Raw e) enclosure in
  if c.want_replies then begin
    c.forbid_sent <- true;
    enqueue_pkt t c (control ?carry (Packet.Forbid { f_seq = d.Packet.d_seq }))
  end
  else enqueue_pkt t c (control ?carry (Packet.Retry { r_seq = d.Packet.d_seq }))

(* The peer returned one of our requests.  The enclosure (if any) came
   back with the bounce and is ours again; requeue the frame. *)
let revive_frame t (c : chan) seq ~resend =
  match Hashtbl.find_opt c.frames seq with
  | None -> Stats.incr t.sts Key.bounce_unknown_seq
  | Some fr ->
    if not fr.fr_failed then begin
      (* Returned first enclosure: we own its end again. *)
      (match fr.fr_encl with
      | h :: _ -> (
        match Lynx.Handle_table.find_opt t.chans h with
        | Some ec ->
          ec.live <- true;
          ec.moving_out <- false;
          Hashtbl.replace t.by_end (end_key ec.ce) ec
        | None -> ())
      | [] -> ());
      if resend then enqueue_first_packet t c fr
      else Queue.add fr c.pending_forbidden
    end

let handle_data_packet t (c : chan) kind (d : Packet.data_header) enclosure =
  let wanted =
    match kind with
    | Lynx.Backend.Request -> c.want_requests
    | Lynx.Backend.Reply -> true  (* a reply is always wanted *)
  in
  if not wanted then bounce_request t c d enclosure
  else if d.Packet.d_n_encl >= 2 then begin
    c.partials.(kind_index kind) <-
      Some
        {
          pa_data = d;
          pa_kind = kind;
          pa_got = (match enclosure with Some e -> [ e ] | None -> []);
        };
    (* For requests the sender holds the remaining ends until we say
       the message is wanted (figure 2); replies need no goahead. *)
    if kind = Lynx.Backend.Request then
      enqueue_pkt t c (control (Packet.Goahead { g_seq = d.Packet.d_seq }))
  end
  else
    finalize_incoming t c kind d
      (match enclosure with Some e -> [ e ] | None -> [])

let handle_enc_packet t (c : chan) kind _seq enclosure =
  match c.partials.(kind_index kind) with
  | None -> Stats.incr t.sts Key.orphan_enc
  | Some pa ->
    (match enclosure with
    | Some e -> pa.pa_got <- e :: pa.pa_got
    | None -> ());
    if List.length pa.pa_got = pa.pa_data.Packet.d_n_encl then begin
      c.partials.(kind_index kind) <- None;
      finalize_incoming t c kind pa.pa_data (List.rev pa.pa_got)
    end

let handle_received t (c : chan) (comp : CT.completion) =
  c.recv_posted <- false;
  match Packet.decode comp.CT.c_data with
  | exception Packet.Malformed -> Stats.incr t.sts Key.malformed
  | header ->
    count_pkt t received_counters header;
    (match header with
    | Packet.Req_first d ->
      handle_data_packet t c Lynx.Backend.Request d comp.CT.c_enclosure
    | Packet.Rep_first d ->
      handle_data_packet t c Lynx.Backend.Reply d comp.CT.c_enclosure
    | Packet.Enc { e_seq; e_kind; e_index = _ } ->
      handle_enc_packet t c e_kind e_seq comp.CT.c_enclosure
    | Packet.Goahead { g_seq } -> (
      match Hashtbl.find_opt c.frames g_seq with
      | Some fr when fr.fr_awaiting_goahead ->
        fr.fr_awaiting_goahead <- false;
        c.awaiting_goaheads <- c.awaiting_goaheads - 1;
        enqueue_enc_packets t c fr
      | _ -> Stats.incr t.sts Key.orphan_goahead)
    | Packet.Retry { r_seq } ->
      (* Resend at once: the kernel will delay the retransmission until
         the peer posts a receive again. *)
      revive_frame t c r_seq ~resend:true
    | Packet.Forbid { f_seq } ->
      c.forbid_received <- true;
      revive_frame t c f_seq ~resend:false
    | Packet.Ack { k_seq } -> (
      match Hashtbl.find_opt c.frames k_seq with
      | Some fr when not (fr.fr_completed || fr.fr_failed) ->
        c.awaiting_acks <- max 0 (c.awaiting_acks - 1);
        complete_frame t c fr
      | _ -> Stats.incr t.sts Key.orphan_acks)
    | Packet.Allow ->
      c.forbid_received <- false;
      let rec drain () =
        match Queue.take_opt c.pending_forbidden with
        | Some fr ->
          enqueue_first_packet t c fr;
          drain ()
        | None -> ()
      in
      drain ());
    ensure_recv t c

let await_ack t (c : chan) (fr : frame) =
  fr.fr_awaiting_ack <- true;
  c.awaiting_acks <- c.awaiting_acks + 1;
  ensure_recv t c

let handle_sent t (c : chan) (comp : CT.completion) =
  match c.send_outstanding with
  | None -> Stats.incr t.sts Key.orphan_sent
  | Some pk ->
    c.send_outstanding <- None;
    (if comp.CT.c_status = CT.E_destroyed then (
       match pk.pk_frame with
       | Some fr -> fail_frame t c fr
       | None -> ())
     else
       match pk.pk_frame with
       | Some fr when pk.pk_label <> Packet.enc_label ->
         let n = List.length fr.fr_encl in
         if n >= 2 then
           if fr.fr_kind = Lynx.Backend.Request then begin
             fr.fr_awaiting_goahead <- true;
             c.awaiting_goaheads <- c.awaiting_goaheads + 1;
             ensure_recv t c
           end
           else enqueue_enc_packets t c fr
         else if t.reply_acks && fr.fr_kind = Lynx.Backend.Reply then
           await_ack t c fr
         else complete_frame t c fr
       | Some fr ->
         fr.fr_encl_sent <- fr.fr_encl_sent + 1;
         if fr.fr_encl_sent = List.length fr.fr_encl - 1 then begin
           if t.reply_acks && fr.fr_kind = Lynx.Backend.Reply then
             await_ack t c fr
           else complete_frame t c fr
         end
       | None -> ());
    kick t c

let handle_completion t (comp : CT.completion) =
  match chan_of_end t comp.CT.c_end with
  | None -> Stats.incr t.sts Key.orphan_completions
  | Some c -> (
    if comp.CT.c_status = CT.E_destroyed then begin
      (match comp.CT.c_dir with
      | CT.Sent -> handle_sent t c comp
      | CT.Received -> c.recv_posted <- false);
      on_dead t c
    end
    else
      match comp.CT.c_dir with
      | CT.Sent -> handle_sent t c comp
      | CT.Received -> handle_received t c comp)

let pump t () =
  try
    while not t.closing do
      let comp = K.wait t.kernel t.pid in
      handle_completion t comp
    done
  with K.Process_exit -> ()

(* ---- Backend operations ---------------------------------------------------- *)

let send t ~link ~kind ~corr ~op ~retx ~exn_msg ~values ~enclosures ~sent =
  match Lynx.Handle_table.find_opt t.chans link with
  | None ->
    (* The link died and was released before the core processed the
       death notice; surface the failure through the handle. *)
    Lynx.Backend.fail_send (K.engine t.kernel) sent Lynx.Excn.Link_destroyed
      ~recovered:enclosures
  | Some c ->
    let seq = fresh_seq t in
    let w =
      Packet.data_writer ~kind ~seq ~corr ~op ~exn_msg
        ~n_encl:(List.length enclosures) ~len:(Lynx.Value.size_list values)
    in
    Lynx.Codec.write w values;
    let fr =
      {
        fr_seq = seq;
        fr_kind = kind;
        fr_data = Lynx.Frame.finish w;
        fr_encl = enclosures;
        fr_sent = sent;
        fr_encl_sent = 0;
        fr_awaiting_goahead = false;
        fr_awaiting_ack = false;
        fr_completed = false;
        fr_failed = false;
      }
    in
    if not c.live then fail_frame t c fr
    else begin
      let eng = K.engine t.kernel in
      let ki = kind_index kind in
      Engine.emit eng
        (Event.send_kind c.tx_kinds ki ~obj:c.tx_objs.(ki) ~op
           ~mode:
             (if retx || kind = Lynx.Backend.Reply then Event.Unordered
              else Event.Ordered));
      Engine.stamp eng (stamp_key c.ce ~side:(1 - c.ce.CT.side) kind ~seq:fr.fr_seq);
      List.iter
        (fun h ->
          match Lynx.Handle_table.find_opt t.chans h with
          | Some ec -> Engine.emit eng ec.end_move
          | None -> ())
        enclosures;
      Hashtbl.replace c.frames fr.fr_seq fr;
      (* Bound the bounce-lookup table. *)
      if Hashtbl.length c.frames > 128 then begin
        let threshold = fr.fr_seq - 256 in
        let old =
          Hashtbl.fold (fun s _ acc -> if s < threshold then s :: acc else acc)
            c.frames []
        in
        List.iter (Hashtbl.remove c.frames) old
      end;
      if c.forbid_received && kind = Lynx.Backend.Request then
        Queue.add fr c.pending_forbidden
      else enqueue_first_packet t c fr
    end

let set_interest t ~link ~requests ~replies =
  match Lynx.Handle_table.find_opt t.chans link with
  | None -> ()
  | Some c ->
    let newly =
      (requests && not c.want_requests) || (replies && not c.want_replies)
    in
    c.want_requests <- requests;
    c.want_replies <- replies;
    ensure_recv t c;
    if newly then ring t

let ready t ~link ~kind =
  match Lynx.Handle_table.find_opt t.chans link with
  | Some c -> (
    match kind with
    | Lynx.Backend.Request -> not (Queue.is_empty c.in_requests)
    | Lynx.Backend.Reply -> not (Queue.is_empty c.in_replies))
  | None -> false

let take t ~link ~kind =
  match Lynx.Handle_table.find_opt t.chans link with
  | None -> None
  | Some c -> (
    match kind with
    | Lynx.Backend.Request -> Queue.take_opt c.in_requests
    | Lynx.Backend.Reply -> Queue.take_opt c.in_replies)

let new_link t () =
  match K.make_link t.kernel t.pid with
  | None -> invalid_arg "lynx_charlotte.new_link: dead process"
  | Some (e0, e1) -> ((register t e0).h, (register t e1).h)

let destroy t ~link =
  match Lynx.Handle_table.find_opt t.chans link with
  | None -> ()
  | Some c ->
    if c.live then begin
      ignore (K.destroy t.kernel t.pid c.ce);
      on_dead t c
    end

let shutdown t () =
  if not t.closing then begin
    t.closing <- true;
    let all = Lynx.Handle_table.fold (fun h _ acc -> h :: acc) t.chans [] in
    List.iter (fun h -> destroy t ~link:h) all
  end

(* Bootstrap for [Lynx.World.link_between]. *)
let adopt_end t (e : CT.link_end) = (register t e).h

let make ?(reply_acks = false) kernel pid ~stats =
  let eng = K.engine kernel in
  let t =
    {
      kernel;
      pid;
      sts = stats;
      reply_acks;
      chans = Lynx.Handle_table.create 16;
      by_end = Hashtbl.create 16;
      doorbell = Sync.Mailbox.create eng;
      dead = Queue.create ();
      next_handle = 0;
      next_seq = 0;
      closing = false;
    }
  in
  ignore
    (Engine.spawn eng ~name:(Printf.sprintf "charlotte.pump.%d" pid) ~daemon:true
       (pump t));
  let ops =
    {
      Lynx.Backend.b_new_link = new_link t;
      b_send =
        (fun ~link ~kind ~corr ~op ~retx ~exn_msg ~values ~enclosures ~sent ->
          send t ~link ~kind ~corr ~op ~retx ~exn_msg ~values ~enclosures ~sent);
      b_set_interest =
        (fun ~link ~requests ~replies -> set_interest t ~link ~requests ~replies);
      b_ready = (fun ~link ~kind -> ready t ~link ~kind);
      b_take = (fun ~link ~kind -> take t ~link ~kind);
      b_take_dead = Lynx.Backend.take_dead t.dead;
      b_doorbell = t.doorbell;
      b_destroy = (fun ~link -> destroy t ~link);
      b_shutdown = shutdown t;
      b_stats = stats;
    }
  in
  (t, ops)
