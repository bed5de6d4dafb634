open Sim

type incoming = {
  in_link : Link.t;
  in_op : string;
  in_args : Value.t list;
  in_reply : Value.t list -> unit;
}

type t = {
  eng : Engine.t;
  pname : string;
  costs : Costs.t;
  sts : Stats.t;
  ops : Backend.ops;
  slots : Slot.t Handle_table.t;  (* every end we hold, by lid *)
  refresh_cb : int -> Slot.t -> unit;
      (* [refresh_interest] as a [Handle_table.iter] callback, built once *)
  mutable next_corr : int;
  mutable req_waiters : incoming Slot.waiter list;  (* oldest first *)
  screening : Faults.Plan.screening option;
      (* per-request timeout/backoff/budget; also arms request dedup *)
  rereply_name : string;  (* thread name of dedup-cache re-answers *)
  mutable rr_last : int;  (* fairness cursor over link ids *)
  mutable link_hooks : (Link.t -> unit) list;
  mutable terminated : bool;
  mutable thread_failures : (string * exn) list;
  mutable thread_seq : int;
}

let name t = t.pname
let engine t = t.eng
let stats t = t.sts
let failures t = List.rev t.thread_failures

let live_links t =
  let acc = ref [] in
  for lid = Handle_table.bound t.slots - 1 downto 0 do
    match Handle_table.find_opt t.slots lid with
    | Some s when Link.is_usable s.Slot.link -> acc := s.Slot.link :: !acc
    | _ -> ()
  done;
  !acc

let slot t lid =
  match Handle_table.find_opt t.slots lid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "%s: unknown link %d" t.pname lid)

(* ---- Interest: which queues are open, as seen by the backend ---------- *)

let refresh_interest t (l : Link.t) =
  if Link.is_usable l then
    t.ops.Backend.b_set_interest ~link:l.lid
      ~requests:
        (l.request_queue_open || Slot.any_waiter_wants l.lid t.req_waiters)
      ~replies:(l.replies_expected > 0)

(* In the table's iteration order, not lid order: it fixes the order of
   the backend's kernel calls, and so the schedule. *)
let refresh_all_interest t = Handle_table.iter t.refresh_cb t.slots

let register_link t lid =
  let l = Link.make lid in
  Handle_table.replace t.slots lid (Slot.make l);
  (* A thread already blocked in an unfiltered [await_request] wants
     requests on this brand-new end too. *)
  refresh_interest t l;
  List.iter (fun hook -> hook l) t.link_hooks;
  l

module Key = struct
  let call_budget_exhausted = Stats.key "lynx.call_budget_exhausted"
  let call_retries = Stats.key "lynx.call_retries"
  let call_timeouts = Stats.key "lynx.call_timeouts"
  let calls = Stats.key "lynx.calls"
  let dup_replies_resent = Stats.key "lynx.dup_replies_resent"
  let dup_requests_dropped = Stats.key "lynx.dup_requests_dropped"
  let enclosures_lost = Stats.key "lynx.enclosures_lost"
  let ends_adopted = Stats.key "lynx.ends_adopted"
  let ends_moved_out = Stats.key "lynx.ends_moved_out"
  let handler_errors = Stats.key "lynx.handler_errors"
  let links_dead = Stats.key "lynx.links_dead"
  let links_destroyed = Stats.key "lynx.links_destroyed"
  let links_made = Stats.key "lynx.links_made"
  let messages_delivered = Stats.key "lynx.messages_delivered"
  let messages_received = Stats.key "lynx.messages_received"
  let messages_sent = Stats.key "lynx.messages_sent"
  let orphan_replies = Stats.key "lynx.orphan_replies"
  let processes = Stats.key "lynx.processes"
  let processes_finished = Stats.key "lynx.processes_finished"
  let requests_handled = Stats.key "lynx.requests_handled"
  let thread_exceptions = Stats.key "lynx.thread_exceptions"
  let thread_exceptions_clean = Stats.key "lynx.thread_exceptions_clean"
  let thread_exceptions_dirty = Stats.key "lynx.thread_exceptions_dirty"
  let threads = Stats.key "lynx.threads"
  let type_errors = Stats.key "lynx.type_errors"
  let unknown_operations = Stats.key "lynx.unknown_operations"
end

(* An enclosure arriving in a message: an end that moved here gets a
   fresh handle.  Every adoption must balance against an [ends_moved_out]
   at some sender — link ends are conserved across moves. *)
let adopt_enclosure t lid =
  match Handle_table.find_opt t.slots lid with
  | Some s -> s.Slot.link
  | None ->
    Stats.incr t.sts Key.ends_adopted;
    register_link t lid

let adopt_enclosures t = function
  | [] -> [||]
  | [ lid ] -> [| adopt_enclosure t lid |]
  | lids -> Array.of_list (List.map (adopt_enclosure t) lids)

(* ---- Death and termination ------------------------------------------- *)

let fresh_corr t =
  let c = t.next_corr in
  t.next_corr <- c + 1;
  c

let usable_lid t lid =
  match Handle_table.find_opt t.slots lid with
  | Some s -> Link.is_usable s.Slot.link
  | None -> false

let not_done (w : _ Slot.waiter) = not w.w_done

(* Release request waiters that can never complete: every link in their
   filter is gone. *)
let prune_req_waiters t =
  let hopeless (w : _ Slot.waiter) =
    (not w.w_done)
    &&
    match w.w_filter with
    | Some lids -> not (List.exists (usable_lid t) lids)
    | None ->
      not
        (Handle_table.fold
           (fun _ s acc -> acc || Link.is_usable s.Slot.link)
           t.slots false)
  in
  List.iter
    (fun (w : _ Slot.waiter) ->
      if hopeless w then begin
        w.w_done <- true;
        Sync.Ivar.fill_error w.w_ivar Excn.Link_destroyed
      end)
    t.req_waiters;
  t.req_waiters <- List.filter not_done t.req_waiters

let mark_dead t lid =
  match Handle_table.find_opt t.slots lid with
  | None -> ()
  | Some s ->
    let l = s.Slot.link in
    if l.Link.l_state = Link.Live || l.Link.l_state = Link.Moving then begin
      l.Link.l_state <- Link.Dead;
      Stats.incr t.sts Key.links_dead;
      s.Slot.seen <- None;
      (* Threads waiting for replies on this link feel the exception. *)
      Slot.fail_replies t.eng s Excn.Link_destroyed;
      prune_req_waiters t
    end

let rec mark_all_dead t = function
  | [] -> ()
  | lid :: rest ->
    mark_dead t lid;
    mark_all_dead t rest

let finish t =
  if not t.terminated then begin
    t.terminated <- true;
    Stats.incr t.sts Key.processes_finished;
    t.ops.Backend.b_shutdown ();
    Handle_table.iter
      (fun _ (s : Slot.t) ->
        s.seen <- None;
        if Link.is_usable s.link then begin
          s.link.Link.l_state <- Link.Dead;
          Slot.fail_replies t.eng s Excn.Process_terminated
        end)
      t.slots;
    List.iter
      (fun (w : _ Slot.waiter) ->
        if not w.w_done then begin
          w.w_done <- true;
          Sync.Ivar.fill_error w.w_ivar Excn.Process_terminated
        end)
      t.req_waiters;
    t.req_waiters <- [];
    Sync.Mailbox.poison t.ops.Backend.b_doorbell Excn.Process_terminated
  end

(* ---- Threads ----------------------------------------------------------- *)

let spawn_thread t ?tname f =
  let tname =
    match tname with
    | Some n -> n
    | None ->
      t.thread_seq <- t.thread_seq + 1;
      Printf.sprintf "%s.t%d" t.pname t.thread_seq
  in
  Stats.incr t.sts Key.threads;
  ignore
    (Engine.spawn t.eng ~name:tname ~daemon:true (fun () ->
         try f () with
         | Excn.Process_terminated -> ()
         | e ->
           Stats.incr t.sts Key.thread_exceptions;
           Stats.incr t.sts
             (if Excn.is_lynx e then Key.thread_exceptions_clean
              else Key.thread_exceptions_dirty);
           Engine.record t.eng
             (Printf.sprintf "%s aborted: %s" tname (Excn.to_string e));
           t.thread_failures <- (tname, e) :: t.thread_failures))

let sleep t d = Engine.sleep t.eng d

(* ---- Sending ----------------------------------------------------------- *)

let usable_or_raise (l : Link.t) =
  match l.Link.l_state with
  | Link.Live -> ()
  | Link.Dead -> raise Excn.Link_destroyed
  | Link.Moving | Link.Moved | Link.Lost -> raise Excn.Invalid_link

(* Move rules for an end enclosed in a message sent on [l]. *)
let check_enclosure (l : Link.t) (e : Link.t) =
  if e.Link.lid = l.Link.lid then
    raise (Excn.Move_violation "cannot enclose the end used for sending");
  match Link.move_obstacle e with
  | Some why -> raise (Excn.Move_violation why)
  | None -> ()

(* The reasons this runtime blocks for, each kind built once. *)
let waitq_block = Engine.reason "waitq"
let park_block = Engine.reason "park"

(* Send one message and block the calling thread until it has been
   received at the far end (LYNX is stop-and-wait above the kernel:
   "each message blocks the sending coroutine").  The values are
   marshalled once, by the backend, into the frame that carries them;
   the thread waits on its own prepared handle, and does not block at
   all when the backend settled the send before returning. *)
let send_message t (l : Link.t) ~kind ~corr ~op ?(retx = false) ?exn_msg
    (vs : Value.t list) =
  usable_or_raise l;
  let encls = Value.links_of_list vs in
  (* Move rules, checked before anything is handed to the backend. *)
  if encls <> [] then List.iter (check_enclosure l) encls;
  (* Charge the run-time package's gather cost. *)
  Engine.sleep t.eng
    (Costs.message_cpu t.costs ~bytes:(Value.size_list vs) ~side:`Send);
  List.iter (fun (e : Link.t) -> e.Link.l_state <- Link.Moving) encls;
  l.Link.unreceived_sends <- l.Link.unreceived_sends + 1;
  Stats.incr t.sts Key.messages_sent;
  let sent = Engine.prepare t.eng in
  t.ops.Backend.b_send ~link:l.Link.lid ~kind ~corr ~op ~retx ~exn_msg
    ~values:vs
    ~enclosures:(List.map (fun (e : Link.t) -> e.Link.lid) encls)
    ~sent;
  let result = Engine.await_prepared t.eng ~reason:waitq_block sent in
  l.Link.unreceived_sends <- max 0 (l.Link.unreceived_sends - 1);
  match result with
  | Ok () ->
    List.iter (fun (e : Link.t) -> e.Link.l_state <- Link.Moved) encls;
    if encls <> [] then
      Stats.incr t.sts ~by:(List.length encls) Key.ends_moved_out;
    Stats.incr t.sts Key.messages_delivered
  | Error { Backend.se_exn; se_recovered } ->
    List.iter
      (fun (e : Link.t) ->
        if List.mem e.Link.lid se_recovered then e.Link.l_state <- Link.Live
        else begin
          e.Link.l_state <- Link.Lost;
          Stats.incr t.sts Key.enclosures_lost
        end)
      encls;
    raise se_exn

(* ---- Client side: call ------------------------------------------------- *)

(* One request/reply exchange.  The reply queue opens as soon as the
   request is sent (§3.2.1); the caller's prepared handle is registered
   first so the dispatcher can never see a reply without a consumer.
   With [timeout], a timer fails the handle if no reply landed in time
   — the screened caller retries under the {e same} correlation id, so
   the server's dedup cache recognises the retransmission. *)
let unexpect t (l : Link.t) ~corr =
  l.Link.replies_expected <- max 0 (l.Link.replies_expected - 1);
  Slot.forget_reply (slot t l.Link.lid) corr;
  if Link.is_usable l then refresh_interest t l

let call_attempt t (l : Link.t) ~op ~corr ?(retx = false) ?timeout vs =
  let reply = Engine.prepare t.eng in
  Slot.expect_reply (slot t l.Link.lid) corr reply;
  l.Link.replies_expected <- l.Link.replies_expected + 1;
  refresh_interest t l;
  (try send_message t l ~kind:Backend.Request ~corr ~op ~retx vs
   with e ->
     unexpect t l ~corr;
     raise e);
  (* Armed only after the send completed: the timeout screens the reply
     wait, not the (blocking, reliable) send. *)
  (match timeout with
  | None -> ()
  | Some d ->
    Engine.schedule_after t.eng d (fun () ->
        if not (Engine.woken reply) then begin
          Stats.incr t.sts Key.call_timeouts;
          Engine.resume_error t.eng reply (Excn.Timeout op)
        end));
  let rx =
    try Engine.await_prepared t.eng ~reason:waitq_block reply
    with e ->
      unexpect t l ~corr;
      raise e
  in
  unexpect t l ~corr;
  rx

let decode_reply t ~op ?expect (rx : Backend.rx) =
  match rx.Backend.rx_exn with
  | Some msg -> raise (Excn.Remote_error msg)
  | None -> (
    let results =
      try
        Codec.decode_sub rx.Backend.rx_payload ~off:rx.Backend.rx_off
          ~len:rx.Backend.rx_len
          ~enclosures:(adopt_enclosures t rx.Backend.rx_enclosures)
      with Codec.Malformed m -> raise (Excn.Type_error ("malformed reply: " ^ m))
    in
    match expect with
    | Some tys when not (Value.check_list tys results) ->
      raise
        (Excn.Type_error
           (Printf.sprintf "reply to %s does not match %s" op
              (Ty.list_to_string tys)))
    | _ -> results)

(* Attempt [n] of a screened call, retried with a growing timeout.  A
   top-level function, so a call allocates no retry closure. *)
let rec screened_attempt t l ~op ~corr vs sp n timeout =
  match call_attempt t l ~op ~corr ~retx:(n > 1) ~timeout vs with
  | rx -> rx
  | exception Excn.Timeout _ ->
    if n >= sp.Faults.Plan.s_budget then begin
      Stats.incr t.sts Key.call_budget_exhausted;
      raise
        (Excn.Timeout (Printf.sprintf "%s: no reply after %d attempts" op n))
    end;
    Stats.incr t.sts Key.call_retries;
    screened_attempt t l ~op ~corr vs sp (n + 1)
      (Time.min
         (Time.scale timeout sp.Faults.Plan.s_backoff)
         sp.Faults.Plan.s_timeout_cap)

let call t (l : Link.t) ~op ?expect vs =
  usable_or_raise l;
  Stats.incr t.sts Key.calls;
  let corr = fresh_corr t in
  let rx =
    match t.screening with
    | None -> call_attempt t l ~op ~corr vs
    | Some sp ->
      (* A call that encloses link ends must not blindly retransmit:
         the ends move with the first copy.  It still gets a (generous)
         timeout, so an unreachable server surfaces as an exception
         rather than a hang. *)
      if Value.links_of_list vs <> [] then
        call_attempt t l ~op ~corr ~timeout:sp.Faults.Plan.s_timeout_cap vs
      else screened_attempt t l ~op ~corr vs sp 1 sp.Faults.Plan.s_timeout
  in
  decode_reply t ~op ?expect rx

(* ---- Server side ------------------------------------------------------- *)

let note_served t (l : Link.t) ~corr served =
  if t.screening <> None then
    Slot.note_seen (slot t l.Link.lid) corr (Slot.Served served)

(* The reply half of an [incoming]: [replied] guards the exactly-once
   rule. *)
let send_reply t (l : Link.t) (rx : Backend.rx) replied results =
  if !replied then invalid_arg "incoming.reply: already replied";
  replied := true;
  match
    send_message t l ~kind:Backend.Reply ~corr:rx.Backend.rx_corr
      ~op:rx.Backend.rx_op results
  with
  | () ->
    note_served t l ~corr:rx.Backend.rx_corr
      (if Value.links_of_list results = [] then Slot.Reply_vals results
       else Slot.Reply_opaque);
    l.Link.owed_replies <- max 0 (l.Link.owed_replies - 1)
  | exception e ->
    l.Link.owed_replies <- max 0 (l.Link.owed_replies - 1);
    raise e

(* Build the [incoming] record for a received request. *)
let make_incoming t (l : Link.t) (rx : Backend.rx) =
  let args =
    try
      Codec.decode_sub rx.Backend.rx_payload ~off:rx.Backend.rx_off
        ~len:rx.Backend.rx_len
        ~enclosures:(adopt_enclosures t rx.Backend.rx_enclosures)
    with Codec.Malformed m -> raise (Excn.Type_error ("malformed request: " ^ m))
  in
  l.Link.owed_replies <- l.Link.owed_replies + 1;
  let replied = ref false in
  {
    in_link = l;
    in_op = rx.Backend.rx_op;
    in_args = args;
    in_reply = send_reply t l rx replied;
  }

let send_exn_reply t (l : Link.t) ~corr ~op msg =
  l.Link.owed_replies <- max 0 (l.Link.owed_replies - 1);
  try
    send_message t l ~kind:Backend.Reply ~corr ~op ~exn_msg:msg [];
    note_served t l ~corr (Slot.Reply_exn msg)
  with Excn.Link_destroyed | Excn.Process_terminated -> ()

(* Run a registered handler for a request in its own thread. *)
let run_handler t (l : Link.t) (h : Slot.handler) ~corr (inc : incoming) =
  spawn_thread t ~tname:h.Slot.h_tname (fun () ->
      let check_or_exn tys vs what =
        if not (Value.check_list tys vs) then begin
          Stats.incr t.sts Key.type_errors;
          raise
            (Excn.Type_error
               (Printf.sprintf "%s of %s does not match %s" what inc.in_op
                  (Ty.list_to_string tys)))
        end
      in
      match
        match h.Slot.h_sg with
        | Some sg ->
          check_or_exn sg.Ty.sg_args inc.in_args "arguments";
          let results = h.Slot.h_fn inc.in_args in
          check_or_exn sg.Ty.sg_results results "results";
          results
        | None -> h.Slot.h_fn inc.in_args
      with
      | results ->
        Stats.incr t.sts Key.requests_handled;
        inc.in_reply results
      | exception e ->
        Stats.incr t.sts Key.handler_errors;
        (* The incoming still owes a reply; answer with the exception. *)
        send_exn_reply t l ~corr ~op:inc.in_op (Excn.to_string e))

(* ---- Dispatcher --------------------------------------------------------- *)

let dispatch_reply t (s : Slot.t) (rx : Backend.rx) =
  match Slot.take_reply s rx.Backend.rx_corr with
  | caller -> Engine.resume t.eng caller rx
  | exception Not_found -> Stats.incr t.sts Key.orphan_replies

(* Answer a duplicate of an already-served request from the dedup cache:
   the reply the client missed is retransmitted, the handler does not
   run again. *)
let resend_cached t (l : Link.t) ~corr ~op served =
  Stats.incr t.sts Key.dup_replies_resent;
  spawn_thread t ~tname:t.rereply_name (fun () ->
      try
        match served with
        | Slot.Reply_vals vs ->
          send_message t l ~kind:Backend.Reply ~corr ~op ~retx:true vs
        | Slot.Reply_exn m ->
          send_message t l ~kind:Backend.Reply ~corr ~op ~retx:true ~exn_msg:m
            []
        | Slot.Reply_opaque -> ()
      with
      | Excn.Link_destroyed | Excn.Invalid_link | Excn.Process_terminated -> ())

(* At-most-once: when screening is armed, a request id (link, corr) the
   process has already seen is never dispatched again — in flight it is
   dropped, served it is re-answered from the cache (§5: duplicate
   suppression is the runtime's job on an at-least-once transport). *)
let screen_duplicate t (s : Slot.t) (rx : Backend.rx) =
  match t.screening with
  | None -> false
  | Some _ -> (
    match Slot.seen_state s rx.Backend.rx_corr with
    | Slot.In_progress ->
      Stats.incr t.sts Key.dup_requests_dropped;
      true
    | Slot.Served served ->
      Stats.incr t.sts Key.dup_requests_dropped;
      resend_cached t s.Slot.link ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op
        served;
      true
    | exception Not_found ->
      Slot.note_seen s rx.Backend.rx_corr Slot.In_progress;
      false)

let dispatch_request t (s : Slot.t) (rx : Backend.rx) =
  let l = s.Slot.link in
  if screen_duplicate t s rx then ()
  else
  match Slot.from_waiter_for l.Link.lid t.req_waiters with
  | w :: _ -> (
    (* Consume the waiter before registering any enclosed ends, so the
       fresh ends do not inherit its interest (they are not part of any
       open queue yet). *)
    w.w_done <- true;
    match make_incoming t l rx with
    | inc ->
      t.req_waiters <- List.filter not_done t.req_waiters;
      refresh_all_interest t;
      Sync.Ivar.fill w.w_ivar inc
    | exception Excn.Type_error m ->
      w.w_done <- false;
      spawn_thread t (fun () ->
          send_exn_reply t l ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op m))
  | [] -> (
    match Slot.find_handler rx.Backend.rx_op s.Slot.handlers with
    | Some h -> (
      match make_incoming t l rx with
      | inc -> run_handler t l h ~corr:rx.Backend.rx_corr inc
      | exception Excn.Type_error m ->
        spawn_thread t (fun () ->
            send_exn_reply t l ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op m))
    | None ->
      Stats.incr t.sts Key.unknown_operations;
      (* The queue was open but nobody serves this operation. *)
      l.Link.owed_replies <- l.Link.owed_replies + 1;
      spawn_thread t (fun () ->
          send_exn_reply t l ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op
            (Printf.sprintf "no such operation %s" rx.Backend.rx_op)))

(* Service the next wanted, ready queue, if any (see {!Slot.pick}). *)
let dispatcher_step t =
  mark_all_dead t (t.ops.Backend.b_take_dead ());
  let ready = t.ops.Backend.b_ready in
  match Slot.pick t.slots ~waiters:t.req_waiters ready ~rr_last:t.rr_last with
  | -1 -> false
  | lid -> (
    let kind = Slot.pick_kind t.slots ready lid in
    t.rr_last <- lid;
    match t.ops.Backend.b_take ~link:lid ~kind with
    | None -> true  (* raced away; rescan *)
    | Some rx ->
      let s = slot t lid in
      (* Run-time package cost of receiving: scatter, tables, checks. *)
      Engine.sleep t.eng
        (Time.add t.costs.Costs.dispatch
           (Costs.message_cpu t.costs
              ~bytes:rx.Backend.rx_len
              ~side:`Recv));
      Stats.incr t.sts Key.messages_received;
      (match kind with
      | Backend.Reply -> dispatch_reply t s rx
      | Backend.Request -> dispatch_request t s rx);
      true)

let rec dispatcher_loop t =
  if not t.terminated then
    if dispatcher_step t then begin
      (* Let woken threads run before servicing the next message. *)
      Engine.yield t.eng;
      dispatcher_loop t
    end
    else begin
      match Sync.Mailbox.take t.ops.Backend.b_doorbell with
      | () -> dispatcher_loop t
      | exception Excn.Process_terminated -> ()
    end

(* ---- Public link / queue operations ------------------------------------ *)

let new_link t =
  let lid_a, lid_b = t.ops.Backend.b_new_link () in
  Stats.incr t.sts Key.links_made;
  (register_link t lid_a, register_link t lid_b)

let adopt_link t lid =
  match Handle_table.find_opt t.slots lid with
  | Some s -> s.Slot.link
  | None -> register_link t lid

let on_new_link t hook = t.link_hooks <- hook :: t.link_hooks

let park t =
  if t.terminated then raise Excn.Process_terminated;
  (* Blocked on a handle nobody keeps: never woken. *)
  Engine.await_prepared t.eng ~reason:park_block (Engine.prepare t.eng)

let destroy_link t (l : Link.t) =
  usable_or_raise l;
  Stats.incr t.sts Key.links_destroyed;
  t.ops.Backend.b_destroy ~link:l.Link.lid;
  mark_dead t l.Link.lid

let open_queue t (l : Link.t) =
  usable_or_raise l;
  l.Link.request_queue_open <- true;
  refresh_interest t l

let close_queue t (l : Link.t) =
  usable_or_raise l;
  l.Link.request_queue_open <- false;
  refresh_interest t l

let serve t (l : Link.t) ~op ?sg fn =
  usable_or_raise l;
  Slot.add_handler (slot t l.Link.lid)
    { Slot.h_op = op; h_sg = sg; h_fn = fn; h_tname = t.pname ^ "." ^ op };
  l.Link.request_queue_open <- true;
  refresh_interest t l

(* The waiter [w] is gone, served or not. *)
let withdraw t (w : _ Slot.waiter) =
  w.w_done <- true;
  t.req_waiters <- List.filter not_done t.req_waiters;
  if not t.terminated then refresh_all_interest t

let await_request t ?links () =
  let filter =
    Option.map (List.map (fun (l : Link.t) -> l.Link.lid)) links
  in
  (match links with
  | Some ls -> List.iter usable_or_raise ls
  | None -> ());
  let w =
    { Slot.w_filter = filter; w_ivar = Sync.Ivar.create t.eng; w_done = false }
  in
  t.req_waiters <- t.req_waiters @ [ w ];
  refresh_all_interest t;
  (* Ring the doorbell: messages may already be buffered. *)
  Sync.Mailbox.put t.ops.Backend.b_doorbell ();
  match Sync.Ivar.read w.w_ivar with
  | inc ->
    withdraw t w;
    inc
  | exception e ->
    withdraw t w;
    raise e

(* ---- Construction ------------------------------------------------------- *)

let make eng ~name:pname ~costs ~stats:sts ?screening ops =
  let rec t =
    {
      eng;
      pname;
      costs;
      sts;
      ops;
      slots = Handle_table.create 16;
      refresh_cb = (fun _ s -> refresh_interest t s.Slot.link);
      next_corr = 0;
      req_waiters = [];
      screening;
      rereply_name = pname ^ ".rereply";
      rr_last = -1;
      link_hooks = [];
      terminated = false;
      thread_failures = [];
      thread_seq = 0;
    }
  in
  Stats.incr sts Key.processes;
  ignore
    (Engine.spawn eng ~name:(pname ^ ".dispatch") ~daemon:true (fun () ->
         dispatcher_loop t));
  t
