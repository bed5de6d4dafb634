open Sim
open Types

exception Process_exit
(* Raised by a process body to terminate itself early; treated as a
   normal exit. *)

type send_act = {
  s_data : bytes;
  s_enclosure : link_end option;
  mutable s_matched : bool;
}

type recv_act = { r_max_len : int; mutable r_matched : bool }

type end_state = {
  e_end : link_end;
  mutable e_owner : pid option;  (* None while the end is in transit *)
  mutable e_send : send_act option;
  mutable e_recv : recv_act option;
}

type link = {
  l_id : int;
  l_obj : string;  (* event-object name, "cha.L<id>" *)
  l_ends : end_state array;  (* index = side *)
  mutable l_destroyed : bool;
}

type process = {
  p_id : pid;
  p_node : node;
  mutable p_alive : bool;
  p_completions : completion Sync.Mailbox.t;
  mutable p_owned : link_end list;
}

type t = {
  eng : Engine.t;
  cst : Costs.t;
  sts : Stats.t;
  ring : Netmodel.Token_ring.t;
  inj : Faults.Injector.t option;
  links : (int, link) Hashtbl.t;
  procs : (int, process) Hashtbl.t;
  mutable next_link : int;
  mutable next_pid : int;
}

let create eng ?(costs = Costs.default) ?stats ?faults ~nodes () =
  let sts = match stats with Some s -> s | None -> Stats.create () in
  {
    eng;
    cst = costs;
    sts;
    ring = Netmodel.Token_ring.create eng ~stats:sts ~stations:nodes ();
    inj = faults;
    links = Hashtbl.create 64;
    procs = Hashtbl.create 16;
    next_link = 0;
    next_pid = 0;
  }

let engine t = t.eng
let stats t = t.sts
let costs t = t.cst
let nodes t = Netmodel.Token_ring.stations t.ring

(* Lookups use [Hashtbl.find]: [find_opt] would allocate its option on
   every kernel call. *)
let proc t pid =
  match Hashtbl.find t.procs pid with
  | p -> p
  | exception Not_found -> invalid_arg (Printf.sprintf "charlotte: unknown pid %d" pid)

let process_alive t pid = (proc t pid).p_alive
let process_node t pid = (proc t pid).p_node

let owned_by es pid = match es.e_owner with Some o -> o = pid | None -> false

module Key = struct
  let bytes = Stats.key "charlotte.bytes"
  let cancels = Stats.key "charlotte.cancels"
  let cancels_failed = Stats.key "charlotte.cancels_failed"
  let completions_to_dead = Stats.key "charlotte.completions_to_dead"
  let kernel_calls = Stats.key "charlotte.kernel_calls"
  let kernel_msgs = Stats.key "charlotte.kernel_msgs"
  let links_destroyed = Stats.key "charlotte.links_destroyed"
  let links_made = Stats.key "charlotte.links_made"
  let move_protocol_msgs = Stats.key "charlotte.move_protocol_msgs"
  let receives = Stats.key "charlotte.receives"
  let sends = Stats.key "charlotte.sends"
  let terminations = Stats.key "charlotte.terminations"
end

(* Charge the calling fiber the kernel-call CPU cost.  This includes the
   argument checking that the paper's end-to-end discussion calls
   redundant for a careful runtime package. *)
let charge t =
  Stats.incr t.sts Key.kernel_calls;
  Engine.sleep t.eng t.cst.Costs.call_cpu

let deliver t pid completion =
  match Hashtbl.find t.procs pid with
  | p when p.p_alive -> Sync.Mailbox.put p.p_completions completion
  | _ | (exception Not_found) -> Stats.incr t.sts Key.completions_to_dead

let remove_owned p e =
  p.p_owned <- List.filter (fun o -> o <> e) p.p_owned

let add_owned p e = p.p_owned <- e :: p.p_owned

(* Transfer ownership of an enclosed end to [pid] (or back to a sender
   whose message failed). *)
let assign_end t (e : link_end) pid =
  match Hashtbl.find t.links e.link_id with
  | exception Not_found -> ()
  | l ->
    let es = l.l_ends.(e.side) in
    (match es.e_owner with
    | Some old -> remove_owned (proc t old) e
    | None -> ());
    es.e_owner <- Some pid;
    add_owned (proc t pid) e

(* Attempt to match a send on one side with a receive on the other; if
   matched, schedule the network transfer and the two completions. *)
let rec try_match t (l : link) =
  if not l.l_destroyed then
    Array.iter
      (fun (src : end_state) ->
        let dst = l.l_ends.(1 - src.e_end.side) in
        match (src.e_send, dst.e_recv, src.e_owner, dst.e_owner) with
        | Some s, Some r, Some src_pid, Some dst_pid
          when (not s.s_matched) && not r.r_matched ->
          s.s_matched <- true;
          r.r_matched <- true;
          start_transfer t l ~src ~dst ~s ~r ~src_pid ~dst_pid
        | _ -> ())
      l.l_ends

and start_transfer t l ~src ~dst ~s ~r ~src_pid ~dst_pid =
  let bytes = Bytes.length s.s_data in
  let duration = Costs.transfer_time t.cst ~bytes in
  let duration =
    match s.s_enclosure with
    | None -> duration
    | Some _ ->
      (* The real kernel runs a three-party agreement protocol to move a
         link end; we charge its latency and message count. *)
      Stats.incr t.sts Key.move_protocol_msgs
        ~by:t.cst.Costs.move_protocol_msgs;
      Time.add duration t.cst.Costs.move_extra
  in
  Stats.incr t.sts Key.kernel_msgs;
  Stats.incr t.sts Key.bytes ~by:bytes;
  let src_node = process_node t src_pid and dst_node = process_node t dst_pid in
  (* Injected transport faults sit between the ring and the link-state
     update: a duplicated delivery is absorbed by the staleness guards
     below (the first copy consumed the activities), drops retransmit —
     Charlotte links are reliable once established (§2.2). *)
  Netmodel.Token_ring.transmit t.ring ~src:src_node ~dst:dst_node ~duration
    ~on_delivered:
      (Faults.Injector.wrap_delivery t.inj ~src:src_node ~dst:dst_node
         ~obj:l.l_obj
         ~op:"transfer"
      @@ fun () ->
      (* Stale if the link was destroyed (destroy already completed the
         activities) or the activities were replaced. *)
      let current_s = match src.e_send with Some s' -> s' == s | None -> false in
      let current_r = match dst.e_recv with Some r' -> r' == r | None -> false in
      if (not l.l_destroyed) && current_s && current_r then begin
        src.e_send <- None;
        dst.e_recv <- None;
        let status, data =
          if Bytes.length s.s_data > r.r_max_len then
            (E_too_long, Bytes.sub s.s_data 0 r.r_max_len)
          else (Ok_done, s.s_data)
        in
        (match s.s_enclosure with
        | None -> ()
        | Some enc -> assign_end t enc dst_pid);
        deliver t src_pid
          {
            c_end = src.e_end;
            c_dir = Sent;
            c_status = Ok_done;
            c_data = Bytes.empty;
            c_length = Bytes.length s.s_data;
            c_enclosure = None;
          };
        deliver t dst_pid
          {
            c_end = dst.e_end;
            c_dir = Received;
            c_status = status;
            c_data = data;
            c_length = Bytes.length data;
            c_enclosure = s.s_enclosure;
          };
        (* New activities may have become matchable is impossible here
           (both slots are now empty), but a queued send on the other
           side may match a fresh receive later; nothing to do. *)
        ignore l
      end)

(* Destroy a link: abort the activities of both ends, return in-transit
   enclosures to their senders, notify owners. *)
let rec destroy_link t (l : link) =
  if not l.l_destroyed then begin
    l.l_destroyed <- true;
    Stats.incr t.sts Key.links_destroyed;
    Array.iter
      (fun (es : end_state) ->
        (match es.e_send with
        | Some s ->
          es.e_send <- None;
          (match es.e_owner with
          | Some owner_pid ->
            (* The enclosure travels back to the sender (the kernel never
               loses an end; the LYNX-level loss happens above the
               kernel, see §3.2.2). *)
            (match s.s_enclosure with
            | Some enc when process_alive t owner_pid -> assign_end t enc owner_pid
            | Some enc -> (
              (* Sender died too: the enclosed link is collateral damage. *)
              match Hashtbl.find_opt t.links enc.link_id with
              | Some enc_link -> destroy_link_deferred t enc_link
              | None -> ())
            | None -> ());
            deliver t owner_pid
              {
                c_end = es.e_end;
                c_dir = Sent;
                c_status = E_destroyed;
                c_data = Bytes.empty;
                c_length = 0;
                c_enclosure = s.s_enclosure;
              }
          | None -> ())
        | None -> ());
        (match es.e_recv with
        | Some _ ->
          es.e_recv <- None;
          (match es.e_owner with
          | Some owner_pid ->
            deliver t owner_pid
              {
                c_end = es.e_end;
                c_dir = Received;
                c_status = E_destroyed;
                c_data = Bytes.empty;
                c_length = 0;
                c_enclosure = None;
              }
          | None -> ())
        | None -> ());
        (match es.e_owner with
        | Some owner_pid -> remove_owned (proc t owner_pid) es.e_end
        | None -> ());
        es.e_owner <- None)
      l.l_ends
  end

and destroy_link_deferred t l =
  Engine.schedule_after t.eng Time.zero (fun () -> destroy_link t l)

(* ---- Kernel calls ---------------------------------------------------- *)

let make_link t pid =
  charge t;
  let p = proc t pid in
  if not p.p_alive then None
  else begin
    let id = t.next_link in
    t.next_link <- id + 1;
    let e0 = { link_id = id; side = 0 } and e1 = { link_id = id; side = 1 } in
    let mk e = { e_end = e; e_owner = Some pid; e_send = None; e_recv = None } in
    let l =
      { l_id = id; l_obj = Printf.sprintf "cha.L%d" id; l_ends = [| mk e0; mk e1 |];
        l_destroyed = false }
    in
    Hashtbl.add t.links id l;
    add_owned p e0;
    add_owned p e1;
    Stats.incr t.sts Key.links_made;
    Some (e0, e1)
  end

(* Why a caller may not act on an end: the status its call returns. *)
exception Refused of status

(* The link of end [e], which [pid] owns; raises [Refused] otherwise. *)
let validate t pid (e : link_end) =
  match Hashtbl.find t.links e.link_id with
  | exception Not_found -> raise (Refused E_bad_end)
  | l ->
    if l.l_destroyed then raise (Refused E_destroyed)
    else if not (owned_by l.l_ends.(e.side) pid) then raise (Refused E_bad_end)
    else l

let destroy t pid e =
  charge t;
  match validate t pid e with
  | exception Refused s -> s
  | l ->
    destroy_link t l;
    Ok_done

let send t pid e ?enclosure data =
  charge t;
  match validate t pid e with
  | exception Refused s -> s
  | l -> (
    let es = l.l_ends.(e.side) in
    if es.e_send <> None then E_busy
    else
      let enc_check =
        match enclosure with
        | None -> Ok_done
        | Some enc ->
          if enc.link_id = e.link_id then E_enclosure_self
          else (
            match validate t pid enc with
            | exception Refused s -> s
            | enc_l ->
              let enc_es = enc_l.l_ends.(enc.side) in
              if enc_es.e_send <> None || enc_es.e_recv <> None then
                E_enclosure_busy
              else Ok_done)
      in
      match enc_check with
      | Ok_done ->
        (* Detach the enclosure: it is in transit until delivery. *)
        (match enclosure with
        | Some enc -> (
          match Hashtbl.find t.links enc.link_id with
          | enc_l ->
            let enc_es = enc_l.l_ends.(enc.side) in
            (match enc_es.e_owner with
            | Some o -> remove_owned (proc t o) enc
            | None -> ());
            enc_es.e_owner <- None
          | exception Not_found -> ())
        | None -> ());
        es.e_send <-
          Some { s_data = data; s_enclosure = enclosure; s_matched = false };
        Stats.incr t.sts Key.sends;
        try_match t l;
        Ok_done
      | s -> s)

let receive t pid e ~max_len =
  charge t;
  match validate t pid e with
  | exception Refused s -> s
  | l ->
    let es = l.l_ends.(e.side) in
    if es.e_recv <> None then E_busy
    else begin
      es.e_recv <- Some { r_max_len = max_len; r_matched = false };
      Stats.incr t.sts Key.receives;
      try_match t l;
      Ok_done
    end

let cancel t pid e dir =
  charge t;
  Stats.incr t.sts Key.cancels;
  match validate t pid e with
  | exception Refused s -> s
  | l -> (
    let es = l.l_ends.(e.side) in
    match dir with
    | Sent -> (
      match es.e_send with
      | None -> E_no_activity
      | Some s ->
        if s.s_matched then begin
          Stats.incr t.sts Key.cancels_failed;
          E_busy
        end
        else begin
          (* Return the enclosure to the canceller. *)
          (match s.s_enclosure with
          | Some enc -> assign_end t enc pid
          | None -> ());
          es.e_send <- None;
          Ok_done
        end)
    | Received -> (
      match es.e_recv with
      | None -> E_no_activity
      | Some r ->
        if r.r_matched then begin
          Stats.incr t.sts Key.cancels_failed;
          E_busy
        end
        else begin
          es.e_recv <- None;
          Ok_done
        end))

let wait t pid =
  charge t;
  let p = proc t pid in
  Sync.Mailbox.take p.p_completions

let poll t pid =
  let p = proc t pid in
  Sync.Mailbox.take_opt p.p_completions

let terminate t pid =
  let p = proc t pid in
  if p.p_alive then begin
    p.p_alive <- false;
    Stats.incr t.sts Key.terminations;
    let owned = p.p_owned in
    p.p_owned <- [];
    List.iter
      (fun (e : link_end) ->
        match Hashtbl.find_opt t.links e.link_id with
        | Some l -> destroy_link t l
        | None -> ())
      owned;
    Sync.Mailbox.poison p.p_completions Process_exit
  end

let transfer_end t (e : link_end) ~to_ =
  match Hashtbl.find t.links e.link_id with
  | exception Not_found -> invalid_arg "charlotte.transfer_end: no such end"
  | l ->
    let es = l.l_ends.(e.side) in
    if l.l_destroyed then invalid_arg "charlotte.transfer_end: destroyed";
    if es.e_send <> None || es.e_recv <> None then
      invalid_arg "charlotte.transfer_end: end has activities";
    assign_end t e to_

let spawn_process t ?(daemon = false) ~node ~name body =
  if node < 0 || node >= nodes t then invalid_arg "charlotte: bad node";
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let p =
    {
      p_id = pid;
      p_node = node;
      p_alive = true;
      p_completions = Sync.Mailbox.create t.eng;
      p_owned = [];
    }
  in
  Hashtbl.add t.procs pid p;
  ignore
    (Engine.spawn t.eng ~name ~daemon (fun () ->
         (try body pid with Process_exit -> ());
         terminate t pid));
  pid

module For_tests = struct
  let owner_of t (e : link_end) =
    match Hashtbl.find t.links e.link_id with
    | l -> l.l_ends.(e.side).e_owner
    | exception Not_found -> None
end
