(** LYNX channel layer for Chrysalis (paper §5.2).

    Every process owns one dual queue and one event block through which
    it hears about messages sent and received.  A link is a shared memory
    object holding four message slots (request/reply in each direction),
    a flag word, and the dual-queue names of the two owners.  Flag bits
    are the ground truth about message availability; dual-queue notices
    are only hints and are validated against the flags before being
    believed.  Moving an end passes the object's name in a message; the
    recipient maps the object, rewrites its side's dual-queue name
    (non-atomically — the protocol tolerates a stale read because the
    writer re-inspects the flags afterwards), and self-posts notices for
    any flags already set. *)

open Sim
module K = Chrysalis.Kernel

type frame = {
  f_kind : Lynx.Backend.kind;
  f_data : bytes;  (* the slot's frame, length prefix included *)
  f_encl : int list;  (* handle ids *)
  f_sent : Lynx.Backend.send_result Engine.handle;  (* the sender's *)
}

type chan = {
  h : int;  (* core handle id *)
  obj : Chrysalis.Types.obj_name;
  side : int;
  mutable live : bool;
  mutable want_requests : bool;
  mutable want_replies : bool;
  (* Sending: one in-flight message per slot (the link object has a
     single buffer per direction and kind), plus a local queue. *)
  mutable inflight : frame option array;  (* index: 0 = request, 1 = reply *)
  out_q : frame Queue.t array;
  (* Receiving: local mirror of which inbound slots look occupied. *)
  mutable in_present : bool array;  (* index: 0 = request, 1 = reply *)
  in_order : Lynx.Backend.kind Queue.t;  (* arrival order of the above *)
  slot_objs : string array;  (* the link object's slot queues' event names *)
  slot_kinds : Event.memo;  (* their last Send/Receive kinds, by slot *)
  end_move : Event.kind;  (* the Link_move of this end *)
}

type t = {
  kernel : K.t;
  pid : Chrysalis.Types.pid;
  sts : Stats.t;
  my_dq : Chrysalis.Types.dualq_name;
  my_ev : Chrysalis.Types.event_name;
  chans : chan Lynx.Handle_table.t;  (* by handle *)
  by_end : (int, chan) Hashtbl.t;  (* by [end_key obj side] *)
  doorbell : unit Sync.Mailbox.t;
  dead : int Queue.t;
  mutable next_handle : int;
  mutable closing : bool;
}

(* One int per end, so a lookup builds no tuple. *)
let end_key obj side = (2 * obj) + side

let notice_shutdown = 14

let kind_index = function Lynx.Backend.Request -> 0 | Lynx.Backend.Reply -> 1

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

let ring t = Sync.Mailbox.put t.doorbell ()

(* Structured-event object names, built once per registered end.  A
   message slot of the shared link object is "chry.o<obj>.slot<n>" (the
   slot index encodes sender side and kind, so it names one direction's
   queue); the per-message stamp adds the correlation id so queued
   frames do not overwrite each other's clocks while a slot is busy. *)
let slot_stamp_key obj slot corr =
  Engine.stamp_key ~layer:3 ~obj:((obj lsl 2) lor slot) ~seq:corr

(* ---- Flag helpers ------------------------------------------------------ *)

let read_flags t (c : chan) = K.read16 t.kernel t.pid c.obj ~off:Layout.flags_off

let set_flag t (c : chan) bit =
  ignore (K.atomic_or16 t.kernel t.pid c.obj ~off:Layout.flags_off bit)

let clear_flag t (c : chan) bit =
  ignore (K.atomic_and16 t.kernel t.pid c.obj ~off:Layout.flags_off (lnot bit land 0xffff))

let peer_dq t (c : chan) =
  K.read32 t.kernel t.pid c.obj ~off:(Layout.dq_name_off (1 - c.side))

module Key = struct
  let destroys = Stats.key "lynx_chrysalis.destroys"
  let discarded_notices = Stats.key "lynx_chrysalis.discarded_notices"
  let ends_adopted = Stats.key "lynx_chrysalis.ends_adopted"
  let links_made = Stats.key "lynx_chrysalis.links_made"
  let malformed = Stats.key "lynx_chrysalis.malformed"
  let msgs_taken = Stats.key "lynx_chrysalis.msgs_taken"
  let msgs_written = Stats.key "lynx_chrysalis.msgs_written"
  let spurious_free_notices = Stats.key "lynx_chrysalis.spurious_free_notices"
  let stale_mirror = Stats.key "lynx_chrysalis.stale_mirror"
  let stale_notices = Stats.key "lynx_chrysalis.stale_notices"
end

(* Post a notice on the peer's dual queue.  The name we read may be stale
   or torn (it is written non-atomically when the end moves); a notice to
   a wrong queue is harmless — notices are hints — and flag inspection by
   the new owner covers the gap. *)
let notify_peer t (c : chan) datum =
  let dq = peer_dq t c in
  match K.dq_enqueue t.kernel t.pid dq datum with
  | () -> ()
  | exception Chrysalis.Types.Memory_fault _ ->
    Stats.incr t.sts Key.stale_notices

let self_notice t datum =
  try K.dq_enqueue t.kernel t.pid t.my_dq datum
  with Chrysalis.Types.Memory_fault _ -> ()

(* ---- Registering link ends --------------------------------------------- *)

let register t ~obj ~side ~handle =
  let c =
    {
      h = handle;
      obj;
      side;
      live = true;
      want_requests = false;
      want_replies = false;
      inflight = Array.make 2 None;
      out_q = [| Queue.create (); Queue.create () |];
      in_present = Array.make 2 false;
      in_order = Queue.create ();
      slot_objs = Array.init 4 (Printf.sprintf "chry.o%d.slot%d" obj);
      slot_kinds = Event.memo 4;
      end_move = Event.Link_move { obj = Printf.sprintf "chry.end.o%d.s%d" obj side };
    }
  in
  Lynx.Handle_table.replace t.chans handle c;
  Hashtbl.replace t.by_end (end_key obj side) c;
  c

(* Adopt an end that just moved to us: map the object, claim our side's
   dual-queue slot, then inspect the flags and self-post notices for
   anything already there (§5.2: "since the recipient completes its
   update of the dual-queue name before inspecting the flags, changes
   are never overlooked"). *)
let adopt t ~obj ~side =
  let h = fresh_handle t in
  K.map_object t.kernel t.pid obj;
  let c = register t ~obj ~side ~handle:h in
  K.write32_nonatomic t.kernel t.pid obj ~off:(Layout.dq_name_off side) t.my_dq;
  let flags = read_flags t c in
  for slot = 0 to 3 do
    if flags land Layout.present_bit slot <> 0 then
      self_notice t (Layout.notice_msg ~obj ~slot)
  done;
  if flags land Layout.destroyed_bit <> 0 then
    self_notice t (Layout.notice_destroy ~obj);
  Stats.incr t.sts Key.ends_adopted;
  c

(* ---- Sending ------------------------------------------------------------ *)

(* Write the frame into our outbound slot, set the flag, notify.  Must
   only be called when the slot is free. *)
let transmit t (c : chan) (fr : frame) =
  let ki = kind_index fr.f_kind in
  c.inflight.(ki) <- Some fr;
  let slot = Layout.slot ~side:c.side ~kind:fr.f_kind in
  K.write_bytes t.kernel t.pid c.obj ~off:(Layout.slot_off slot) fr.f_data;
  set_flag t c (Layout.present_bit slot);
  Stats.incr t.sts Key.msgs_written;
  notify_peer t c (Layout.notice_msg ~obj:c.obj ~slot)

let fail_frame t (fr : frame) exn =
  Lynx.Backend.fail_send (K.engine t.kernel) fr.f_sent exn ~recovered:fr.f_encl

(* The frame of a message, built once: length-prefixed, so the receiver
   copies only what was written.  The enclosures travel as the encoded
   names of their link objects. *)
let build_frame t ~kind ~corr ~op ~exn_msg ~values ~enclosures ~sent =
  let w =
    Layout.slot_writer ~corr ~op ~exn_msg
      ~enclosures:
        (List.map
           (fun h ->
             let ec = Lynx.Handle_table.find t.chans h in
             (ec.obj lsl 1) lor ec.side)
           enclosures)
      ~len:(Lynx.Value.size_list values)
  in
  Lynx.Codec.write w values;
  { f_kind = kind; f_data = Lynx.Frame.finish w; f_encl = enclosures; f_sent = sent }

let send t ~link ~kind ~corr ~op ~retx ~exn_msg ~values ~enclosures ~sent =
  match Lynx.Handle_table.find_opt t.chans link with
  | Some c when c.live ->
    let eng = K.engine t.kernel in
    let slot = Layout.slot ~side:c.side ~kind in
    Engine.emit eng
      (Event.send_kind c.slot_kinds slot ~obj:c.slot_objs.(slot) ~op
         ~mode:
           (if retx || kind = Lynx.Backend.Reply then Event.Unordered
            else Event.Ordered));
    Engine.stamp eng (slot_stamp_key c.obj slot corr);
    List.iter
      (fun h ->
        match Lynx.Handle_table.find_opt t.chans h with
        | Some ec -> Engine.emit eng ec.end_move
        | None -> ())
      enclosures;
    let fr = build_frame t ~kind ~corr ~op ~exn_msg ~values ~enclosures ~sent in
    let ki = kind_index kind in
    if c.inflight.(ki) = None then transmit t c fr
    else Queue.add fr c.out_q.(ki)
  | _ ->
    (* The link died, or died and was released before the core
       processed the death notice; surface the failure through the
       handle. *)
    Lynx.Backend.fail_send (K.engine t.kernel) sent Lynx.Excn.Link_destroyed
      ~recovered:enclosures

(* The peer consumed our slot: complete the send, release moved ends,
   start the next queued frame. *)
let on_slot_freed t (c : chan) kind =
  let ki = kind_index kind in
  match c.inflight.(ki) with
  | None -> Stats.incr t.sts Key.spurious_free_notices
  | Some fr ->
    c.inflight.(ki) <- None;
    (* Moved ends leave our address space now that the peer has them. *)
    List.iter
      (fun h ->
        match Lynx.Handle_table.find_opt t.chans h with
        | Some ec ->
          ec.live <- false;
          Lynx.Handle_table.remove t.chans h;
          Hashtbl.remove t.by_end (end_key ec.obj ec.side);
          (try K.unmap_object t.kernel t.pid ec.obj
           with Chrysalis.Types.Memory_fault _ -> ())
        | None -> ())
      fr.f_encl;
    Engine.resume (K.engine t.kernel) fr.f_sent (Ok ());
    (match Queue.take_opt c.out_q.(ki) with
    | Some next -> if c.live then transmit t c next else fail_frame t next Lynx.Excn.Link_destroyed
    | None -> ())

(* ---- Receiving ----------------------------------------------------------- *)

(* A validated incoming-message notice: record it in the local mirror. *)
let on_incoming t (c : chan) kind =
  let ki = kind_index kind in
  if not c.in_present.(ki) then begin
    c.in_present.(ki) <- true;
    Queue.add kind c.in_order;
    ring t
  end

(* Marks the slot's message taken: clears its present bit and tells the
   sender, whose [transmit] then completes. *)
let consume_slot t (c : chan) ~ki ~slot =
  c.in_present.(ki) <- false;
  clear_flag t c (Layout.present_bit slot);
  notify_peer t c (Layout.notice_msg ~obj:c.obj ~slot)

let take t ~link ~kind =
  match Lynx.Handle_table.find_opt t.chans link with
  | None -> None
  | Some c ->
    let ki = kind_index kind in
    if not c.in_present.(ki) then None
    else begin
      let slot = Layout.slot ~side:(1 - c.side) ~kind in
      let bit = Layout.present_bit slot in
      (* The flags are the truth; the mirror is a cached hint. *)
      if read_flags t c land bit = 0 then begin
        c.in_present.(ki) <- false;
        Stats.incr t.sts Key.stale_mirror;
        None
      end
      else begin
        let hdr =
          K.read_bytes t.kernel t.pid c.obj ~off:(Layout.slot_off slot) ~len:4
        in
        let raw =
          K.read_bytes t.kernel t.pid c.obj
            ~off:(Layout.slot_off slot + 4)
            ~len:(Layout.decode_length hdr)
        in
        match Layout.decode_slot raw with
        | exception Layout.Malformed ->
          (* Taken and dropped, as the other channels drop theirs. *)
          Stats.incr t.sts Key.malformed;
          consume_slot t c ~ki ~slot;
          None
        | d ->
          let eng = K.engine t.kernel in
          Engine.adopt eng (slot_stamp_key c.obj slot d.Layout.d_corr);
          Engine.emit eng
            (Event.receive_kind c.slot_kinds slot ~obj:c.slot_objs.(slot)
               ~op:d.Layout.d_op);
          consume_slot t c ~ki ~slot;
          Stats.incr t.sts Key.msgs_taken;
          (* Adopt any moved ends. *)
          let encl_handles =
            List.map
              (fun word ->
                let obj = word lsr 1 and side = word land 1 in
                (adopt t ~obj ~side).h)
              d.Layout.d_enclosures
          in
          Some
            {
              Lynx.Backend.rx_kind = kind;
              rx_corr = d.Layout.d_corr;
              rx_op = d.Layout.d_op;
              rx_exn = d.Layout.d_exn;
              rx_payload = d.Layout.d_payload;
              rx_off = d.Layout.d_off;
              rx_len = d.Layout.d_len;
              rx_enclosures = encl_handles;
            }
      end
    end

let ready t ~link ~kind =
  match Lynx.Handle_table.find_opt t.chans link with
  | Some c ->
    c.live
    && c.in_present.(kind_index kind)
    &&
    (match kind with
    | Lynx.Backend.Request -> c.want_requests
    | Lynx.Backend.Reply -> c.want_replies)
  | None -> false

(* ---- Destruction ---------------------------------------------------------- *)

let fail_all_sends t (c : chan) =
  Array.iteri
    (fun ki fr ->
      match fr with
      | Some fr ->
        c.inflight.(ki) <- None;
        fail_frame t fr Lynx.Excn.Link_destroyed
      | None -> ())
    c.inflight;
  Array.iter
    (fun q ->
      Queue.iter (fun fr -> fail_frame t fr Lynx.Excn.Link_destroyed) q;
      Queue.clear q)
    c.out_q

let release t (c : chan) =
  c.live <- false;
  Lynx.Handle_table.remove t.chans c.h;
  Hashtbl.remove t.by_end (end_key c.obj c.side);
  fail_all_sends t c;
  (try K.unmap_object t.kernel t.pid c.obj
   with Chrysalis.Types.Memory_fault _ -> ());
  try K.mark_for_deletion t.kernel t.pid c.obj
  with Chrysalis.Types.Memory_fault _ -> ()

let destroy t ~link =
  match Lynx.Handle_table.find_opt t.chans link with
  | None -> ()
  | Some c ->
    if c.live then begin
      Stats.incr t.sts Key.destroys;
      set_flag t c Layout.destroyed_bit;
      notify_peer t c (Layout.notice_destroy ~obj:c.obj);
      release t c
    end

(* Peer destroyed the link (validated against the flag). *)
let on_destroyed t (c : chan) =
  if c.live then begin
    release t c;
    Queue.add c.h t.dead;
    ring t
  end

(* ---- The notice pump ------------------------------------------------------ *)

let handle_notice t datum =
  let obj = Layout.notice_obj datum and tag = Layout.notice_tag datum in
  let discard () = Stats.incr t.sts Key.discarded_notices in
  if tag = notice_shutdown then ()
  else if tag = 15 then begin
    (* Destruction hint: believe it only if the flag agrees, for every
       end of the object we still own. *)
    let check side =
      match Hashtbl.find_opt t.by_end (end_key obj side) with
      | Some c when c.live ->
        if read_flags t c land Layout.destroyed_bit <> 0 then on_destroyed t c
        else discard ()
      | _ -> ()
    in
    check 0;
    check 1
  end
  else if tag < 4 then begin
    let slot = tag in
    let sender_side = Layout.side_of_slot slot in
    let kind = Layout.kind_of_slot slot in
    (* The notice may mean "message available" (we own the receiving
       end) or "your slot was freed" (we own the sending end); validate
       each possibility against the flags (§5.2: every notice is a
       hint). *)
    match Hashtbl.find_opt t.by_end (end_key obj (1 - sender_side)) with
    | Some c when c.live && read_flags t c land Layout.present_bit slot <> 0 ->
      on_incoming t c kind
    | _ -> (
      match Hashtbl.find_opt t.by_end (end_key obj sender_side) with
      | Some c when c.live ->
        let flags = read_flags t c in
        if flags land Layout.present_bit slot = 0 && c.inflight.(kind_index kind) <> None
        then on_slot_freed t c kind
        else begin
          discard ();
          if flags land Layout.destroyed_bit <> 0 then on_destroyed t c
        end
      | _ -> discard ())
  end
  else discard ()

let pump t () =
  let rec loop () =
    if not t.closing then begin
      let datum =
        match K.dq_dequeue t.kernel t.pid t.my_dq ~ev:t.my_ev with
        | Some d -> d
        | None -> K.event_wait t.kernel t.pid t.my_ev
      in
      if Layout.notice_tag datum = notice_shutdown then ()
      else begin
        handle_notice t datum;
        loop ()
      end
    end
  in
  try loop () with Chrysalis.Types.Memory_fault _ -> ()

(* ---- Backend ops ----------------------------------------------------------- *)

let new_link t () =
  let obj = K.make_object t.kernel t.pid ~size:Layout.object_size in
  (* Both ends start here: both dual-queue names are ours. *)
  K.write32_nonatomic t.kernel t.pid obj ~off:(Layout.dq_name_off 0) t.my_dq;
  K.write32_nonatomic t.kernel t.pid obj ~off:(Layout.dq_name_off 1) t.my_dq;
  K.map_object t.kernel t.pid obj;  (* one mapping per end *)
  let h0 = fresh_handle t in
  ignore (register t ~obj ~side:0 ~handle:h0);
  let h1 = fresh_handle t in
  ignore (register t ~obj ~side:1 ~handle:h1);
  Stats.incr t.sts Key.links_made;
  (h0, h1)

let set_interest t ~link ~requests ~replies =
  match Lynx.Handle_table.find_opt t.chans link with
  | None -> ()
  | Some c ->
    let newly =
      (requests && not c.want_requests) || (replies && not c.want_replies)
    in
    c.want_requests <- requests;
    c.want_replies <- replies;
    if newly then ring t

let shutdown t () =
  if not t.closing then begin
    t.closing <- true;
    let all = Lynx.Handle_table.fold (fun h _ acc -> h :: acc) t.chans [] in
    List.iter (fun h -> destroy t ~link:h) all;
    self_notice t notice_shutdown
  end

(* Bootstrap: create a link whose ends start in two different processes.
   Used only by [Lynx.World.link_between] to model links inherited from a
   parent or a name server; ordinary ends move by enclosure. *)
let bootstrap_pair (a : t) (b : t) =
  let obj = K.make_object a.kernel a.pid ~size:Layout.object_size in
  K.write32_nonatomic a.kernel a.pid obj ~off:(Layout.dq_name_off 0) a.my_dq;
  K.write32_nonatomic a.kernel a.pid obj ~off:(Layout.dq_name_off 1) b.my_dq;
  let ha = fresh_handle a in
  ignore (register a ~obj ~side:0 ~handle:ha);
  K.map_object b.kernel b.pid obj;
  let hb = fresh_handle b in
  ignore (register b ~obj ~side:1 ~handle:hb);
  (ha, hb)

let make kernel pid ~stats =
  let eng = K.engine kernel in
  let my_dq = K.make_dualq kernel pid ~capacity:512 in
  let my_ev = K.make_event kernel pid in
  let t =
    {
      kernel;
      pid;
      sts = stats;
      my_dq;
      my_ev;
      chans = Lynx.Handle_table.create 16;
      by_end = Hashtbl.create 16;
      doorbell = Sync.Mailbox.create eng;
      dead = Queue.create ();
      next_handle = 0;
      closing = false;
    }
  in
  ignore
    (Engine.spawn eng
       ~name:(Printf.sprintf "chrysalis.pump.%d" pid)
       ~daemon:true (pump t));
  K.at_termination kernel pid (fun () -> shutdown t ());
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
