open Sim

type incoming = {
  in_link : Link.t;
  in_op : string;
  in_args : Value.t list;
  in_reply : Value.t list -> unit;
}

type handler = {
  h_sg : Ty.signature option;
  h_fn : Value.t list -> Value.t list;
  h_tname : string;  (* "<pname>.<op>", the name of each handler thread *)
}

type req_waiter = {
  w_filter : int list option;  (* lids; None = any live link *)
  w_ivar : incoming Sync.Ivar.t;
  mutable w_done : bool;
}

(* What we answered a screened request with, for at-most-once dedup: a
   duplicate of an already-served request is answered from this cache
   (the handler must not run twice).  Replies that moved link ends
   cannot be replayed — the ends are gone — so their duplicates are
   dropped; the first copy's delivery is the transport's problem. *)
type served =
  | Reply_vals of Value.t list
  | Reply_exn of string
  | Reply_opaque

type seen_state = In_progress | Served of served

type t = {
  eng : Engine.t;
  pname : string;
  costs : Costs.t;
  sts : Stats.t;
  ops : Backend.ops;
  links : (int, Link.t) Hashtbl.t;
  reply_waiters : (int, (int, Backend.rx Sync.Ivar.t) Hashtbl.t) Hashtbl.t;
      (* per link: correlation id -> waiting caller *)
  mutable next_corr : int;
  mutable req_waiters : req_waiter list;  (* oldest first *)
  handlers : (int * string, handler) Hashtbl.t;
  screening : Faults.Plan.screening option;
      (* per-request timeout/backoff/budget; also arms request dedup *)
  seen : (int * int, seen_state) Hashtbl.t;
      (* (lid, corr) of screened requests we have seen *)
  mutable rr_last : int;  (* fairness cursor over link ids *)
  mutable link_hooks : (Link.t -> unit) list;
  mutable terminated : bool;
  mutable thread_failures : (string * exn) list;
  mutable thread_seq : int;
}

let name t = t.pname
let engine t = t.eng
let stats t = t.sts
let alive t = not t.terminated
let failures t = List.rev t.thread_failures

let live_links t =
  Hashtbl.fold
    (fun _ l acc -> if Link.is_usable l then l :: acc else acc)
    t.links []
  |> List.sort (fun a b -> compare a.Link.lid b.Link.lid)

let get_link t lid =
  match Hashtbl.find_opt t.links lid with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "%s: unknown link %d" t.pname lid)

(* ---- Interest: which queues are open, as seen by the backend ---------- *)

let waiter_wants w lid =
  (not w.w_done)
  && match w.w_filter with None -> true | Some lids -> List.mem lid lids

let requests_wanted t (l : Link.t) =
  Link.is_usable l
  && (l.request_queue_open || List.exists (fun w -> waiter_wants w l.lid) t.req_waiters)

let refresh_interest t (l : Link.t) =
  if Link.is_usable l then
    t.ops.Backend.b_set_interest ~link:l.lid ~requests:(requests_wanted t l)
      ~replies:(l.replies_expected > 0)

let refresh_all_interest t =
  Hashtbl.iter (fun _ l -> refresh_interest t l) t.links

let register_link t lid =
  let l = Link.make lid in
  Hashtbl.replace t.links lid l;
  (* A thread already blocked in an unfiltered [await_request] wants
     requests on this brand-new end too. *)
  refresh_interest t l;
  List.iter (fun hook -> hook l) t.link_hooks;
  l

(* An enclosure arriving in a message: an end that moved here gets a
   fresh handle.  Every adoption must balance against an [ends_moved_out]
   at some sender — link ends are conserved across moves. *)
let adopt_enclosure t lid =
  match Hashtbl.find_opt t.links lid with
  | Some l -> l
  | None ->
    Stats.incr t.sts "lynx.ends_adopted";
    register_link t lid

(* ---- Death and termination ------------------------------------------- *)

let reply_tbl t lid =
  match Hashtbl.find_opt t.reply_waiters lid with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 4 in
    Hashtbl.add t.reply_waiters lid tbl;
    tbl

let fresh_corr t =
  let c = t.next_corr in
  t.next_corr <- c + 1;
  c

(* Release request waiters that can never complete: every link in their
   filter is gone. *)
let prune_req_waiters t =
  let hopeless w =
    (not w.w_done)
    &&
    match w.w_filter with
    | Some lids ->
      List.for_all
        (fun lid ->
          match Hashtbl.find_opt t.links lid with
          | Some l -> not (Link.is_usable l)
          | None -> true)
        lids
    | None -> not (Hashtbl.fold (fun _ l acc -> acc || Link.is_usable l) t.links false)
  in
  List.iter
    (fun w ->
      if hopeless w then begin
        w.w_done <- true;
        Sync.Ivar.fill_error w.w_ivar Excn.Link_destroyed
      end)
    t.req_waiters;
  t.req_waiters <- List.filter (fun w -> not w.w_done) t.req_waiters

let prune_seen t lid =
  if Hashtbl.length t.seen > 0 then begin
    let stale =
      Hashtbl.fold
        (fun ((klid, _) as key) _ acc -> if klid = lid then key :: acc else acc)
        t.seen []
    in
    List.iter (Hashtbl.remove t.seen) stale
  end

let mark_dead t lid =
  match Hashtbl.find_opt t.links lid with
  | None -> ()
  | Some l ->
    if l.Link.l_state = Link.Live || l.Link.l_state = Link.Moving then begin
      l.Link.l_state <- Link.Dead;
      Stats.incr t.sts "lynx.links_dead";
      prune_seen t lid;
      (* Threads waiting for replies on this link feel the exception. *)
      let tbl = reply_tbl t lid in
      Hashtbl.iter
        (fun _ ivar ->
          if not (Sync.Ivar.is_filled ivar) then
            Sync.Ivar.fill_error ivar Excn.Link_destroyed)
        tbl;
      Hashtbl.reset tbl;
      prune_req_waiters t
    end

let finish t =
  if not t.terminated then begin
    t.terminated <- true;
    Stats.incr t.sts "lynx.processes_finished";
    t.ops.Backend.b_shutdown ();
    Hashtbl.iter
      (fun lid l ->
        if Link.is_usable l then begin
          l.Link.l_state <- Link.Dead;
          let tbl = reply_tbl t lid in
          Hashtbl.iter
            (fun _ ivar ->
              if not (Sync.Ivar.is_filled ivar) then
                Sync.Ivar.fill_error ivar Excn.Process_terminated)
            tbl;
          Hashtbl.reset tbl
        end)
      t.links;
    List.iter
      (fun w ->
        if not w.w_done then begin
          w.w_done <- true;
          Sync.Ivar.fill_error w.w_ivar Excn.Process_terminated
        end)
      t.req_waiters;
    t.req_waiters <- [];
    Hashtbl.reset t.seen;
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
  Stats.incr t.sts "lynx.threads";
  ignore
    (Engine.spawn t.eng ~name:tname ~daemon:true (fun () ->
         try f () with
         | Excn.Process_terminated -> ()
         | e ->
           Stats.incr t.sts "lynx.thread_exceptions";
           Stats.incr t.sts
             (if Excn.is_lynx e then "lynx.thread_exceptions_clean"
              else "lynx.thread_exceptions_dirty");
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

(* Send one message and block the calling thread until it has been
   received at the far end (LYNX is stop-and-wait above the kernel:
   "each message blocks the sending coroutine"). *)
let send_message t (l : Link.t) ~kind ~corr ~op ?(retx = false) ?exn_msg
    (vs : Value.t list) =
  usable_or_raise l;
  let payload, encls = Codec.encode vs in
  (* Move rules, checked before anything is handed to the backend. *)
  List.iter
    (fun (e : Link.t) ->
      if e.Link.lid = l.Link.lid then
        raise (Excn.Move_violation "cannot enclose the end used for sending");
      match Link.move_obstacle e with
      | Some why -> raise (Excn.Move_violation why)
      | None -> ())
    encls;
  (* Charge the run-time package's gather cost. *)
  Engine.sleep t.eng
    (Costs.message_cpu t.costs ~bytes:(Bytes.length payload) ~side:`Send);
  List.iter (fun (e : Link.t) -> e.Link.l_state <- Link.Moving) encls;
  l.Link.unreceived_sends <- l.Link.unreceived_sends + 1;
  Stats.incr t.sts "lynx.messages_sent";
  let done_ivar = Sync.Ivar.create t.eng in
  t.ops.Backend.b_send ~link:l.Link.lid ~kind ~corr ~op ~retx ~exn_msg ~payload
    ~enclosures:(List.map (fun (e : Link.t) -> e.Link.lid) encls)
    ~completion:(fun r -> Sync.Ivar.fill done_ivar r);
  let result = Sync.Ivar.read done_ivar in
  l.Link.unreceived_sends <- max 0 (l.Link.unreceived_sends - 1);
  match result with
  | Ok () ->
    List.iter (fun (e : Link.t) -> e.Link.l_state <- Link.Moved) encls;
    if encls <> [] then
      Stats.incr t.sts ~by:(List.length encls) "lynx.ends_moved_out";
    Stats.incr t.sts "lynx.messages_delivered"
  | Error { Backend.se_exn; se_recovered } ->
    List.iter
      (fun (e : Link.t) ->
        if List.mem e.Link.lid se_recovered then e.Link.l_state <- Link.Live
        else begin
          e.Link.l_state <- Link.Lost;
          Stats.incr t.sts "lynx.enclosures_lost"
        end)
      encls;
    raise se_exn

(* ---- Client side: call ------------------------------------------------- *)

(* One request/reply exchange.  The reply queue opens as soon as the
   request is sent (§3.2.1); the waiter is registered first so the
   dispatcher can never see a reply without a consumer.  With [timeout],
   a timer error-fills the waiter if no reply landed in time — the
   screened caller retries under the {e same} correlation id, so the
   server's dedup cache recognises the retransmission. *)
let call_attempt t (l : Link.t) ~op ~corr ?(retx = false) ?timeout vs =
  let ivar = Sync.Ivar.create t.eng in
  Hashtbl.replace (reply_tbl t l.Link.lid) corr ivar;
  l.Link.replies_expected <- l.Link.replies_expected + 1;
  refresh_interest t l;
  let unexpect () =
    l.Link.replies_expected <- max 0 (l.Link.replies_expected - 1);
    (match Hashtbl.find_opt t.reply_waiters l.Link.lid with
    | Some tbl -> Hashtbl.remove tbl corr
    | None -> ());
    if Link.is_usable l then refresh_interest t l
  in
  (try send_message t l ~kind:Backend.Request ~corr ~op ~retx vs
   with e ->
     unexpect ();
     raise e);
  (* Armed only after the send completed: the timeout screens the reply
     wait, not the (blocking, reliable) send. *)
  (match timeout with
  | None -> ()
  | Some d ->
    Engine.schedule_after t.eng d (fun () ->
        if not (Sync.Ivar.is_filled ivar) then begin
          Stats.incr t.sts "lynx.call_timeouts";
          Sync.Ivar.fill_error ivar (Excn.Timeout op)
        end));
  let rx =
    try Sync.Ivar.read ivar
    with e ->
      unexpect ();
      raise e
  in
  unexpect ();
  rx

let decode_reply t ~op ?expect (rx : Backend.rx) =
  match rx.Backend.rx_exn with
  | Some msg -> raise (Excn.Remote_error msg)
  | None -> (
    let encl_links =
      Array.of_list
        (List.map (fun lid -> adopt_enclosure t lid) rx.Backend.rx_enclosures)
    in
    let results =
      try Codec.decode rx.Backend.rx_payload ~enclosures:encl_links
      with Codec.Malformed m -> raise (Excn.Type_error ("malformed reply: " ^ m))
    in
    match expect with
    | Some tys when not (Value.check_list tys results) ->
      raise
        (Excn.Type_error
           (Printf.sprintf "reply to %s does not match %s" op
              (Ty.list_to_string tys)))
    | _ -> results)

let call t (l : Link.t) ~op ?expect vs =
  usable_or_raise l;
  Stats.incr t.sts "lynx.calls";
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
      else begin
        let rec attempt n ~timeout =
          match call_attempt t l ~op ~corr ~retx:(n > 1) ~timeout vs with
          | rx -> rx
          | exception Excn.Timeout _ ->
            if n >= sp.Faults.Plan.s_budget then begin
              Stats.incr t.sts "lynx.call_budget_exhausted";
              raise
                (Excn.Timeout
                   (Printf.sprintf "%s: no reply after %d attempts" op n))
            end;
            Stats.incr t.sts "lynx.call_retries";
            attempt (n + 1)
              ~timeout:
                (Time.min
                   (Time.scale timeout sp.Faults.Plan.s_backoff)
                   sp.Faults.Plan.s_timeout_cap)
        in
        attempt 1 ~timeout:sp.Faults.Plan.s_timeout
      end
  in
  decode_reply t ~op ?expect rx

(* ---- Server side ------------------------------------------------------- *)

let note_served t (l : Link.t) ~corr served =
  if t.screening <> None then
    Hashtbl.replace t.seen (l.Link.lid, corr) (Served served)

(* Build the [incoming] record for a received request. *)
let make_incoming t (l : Link.t) (rx : Backend.rx) =
  let encl_links =
    Array.of_list
      (List.map (fun lid -> adopt_enclosure t lid) rx.Backend.rx_enclosures)
  in
  let args =
    try Codec.decode rx.Backend.rx_payload ~enclosures:encl_links
    with Codec.Malformed m -> raise (Excn.Type_error ("malformed request: " ^ m))
  in
  l.Link.owed_replies <- l.Link.owed_replies + 1;
  let replied = ref false in
  let reply results =
    if !replied then invalid_arg "incoming.reply: already replied";
    replied := true;
    Fun.protect
      ~finally:(fun () ->
        l.Link.owed_replies <- max 0 (l.Link.owed_replies - 1))
      (fun () ->
        send_message t l ~kind:Backend.Reply ~corr:rx.Backend.rx_corr
          ~op:rx.Backend.rx_op results;
        note_served t l ~corr:rx.Backend.rx_corr
          (if Value.links_of_list results = [] then Reply_vals results
           else Reply_opaque))
  in
  { in_link = l; in_op = rx.Backend.rx_op; in_args = args; in_reply = reply }

let send_exn_reply t (l : Link.t) ~corr ~op msg =
  l.Link.owed_replies <- max 0 (l.Link.owed_replies - 1);
  try
    send_message t l ~kind:Backend.Reply ~corr ~op ~exn_msg:msg [];
    note_served t l ~corr (Reply_exn msg)
  with Excn.Link_destroyed | Excn.Process_terminated -> ()

(* Run a registered handler for a request in its own thread. *)
let run_handler t (l : Link.t) (h : handler) ~corr (inc : incoming) =
  spawn_thread t ~tname:h.h_tname (fun () ->
      let check_or_exn tys vs what =
        if not (Value.check_list tys vs) then begin
          Stats.incr t.sts "lynx.type_errors";
          raise
            (Excn.Type_error
               (Printf.sprintf "%s of %s does not match %s" what inc.in_op
                  (Ty.list_to_string tys)))
        end
      in
      match
        match h.h_sg with
        | Some sg ->
          check_or_exn sg.Ty.sg_args inc.in_args "arguments";
          let results = h.h_fn inc.in_args in
          check_or_exn sg.Ty.sg_results results "results";
          results
        | None -> h.h_fn inc.in_args
      with
      | results ->
        Stats.incr t.sts "lynx.requests_handled";
        inc.in_reply results
      | exception e ->
        Stats.incr t.sts "lynx.handler_errors";
        (* The incoming still owes a reply; answer with the exception. *)
        send_exn_reply t l ~corr ~op:inc.in_op (Excn.to_string e))

(* ---- Dispatcher --------------------------------------------------------- *)

(* Pick the next (link, kind) to service among readable queues, fairly:
   round-robin on link id, replies preferred within a link (a reply is
   always wanted; fairness concerns request queues). *)
let pick_candidate t =
  let readable = t.ops.Backend.b_readable () in
  (* A buffered request is only consumed when somebody will actually
     handle it: a thread blocked in [await_request] or a registered
     handler.  An open queue with no consumer (open_queue before a block
     point) leaves messages queued at the link. *)
  let has_consumer lid =
    List.exists (fun w -> waiter_wants w lid) t.req_waiters
    || Hashtbl.fold
         (fun (hlid, _) _ acc -> acc || hlid = lid)
         t.handlers false
  in
  let wanted (lid, kind) =
    match Hashtbl.find_opt t.links lid with
    | None -> false
    | Some l -> (
      match kind with
      | Backend.Reply -> Hashtbl.length (reply_tbl t lid) > 0
      | Backend.Request -> requests_wanted t l && has_consumer lid)
  in
  let cands = List.filter wanted readable in
  let dedup =
    List.sort_uniq
      (fun (a, ka) (b, kb) ->
        match compare a b with
        | 0 -> compare (ka = Backend.Request) (kb = Backend.Request)
        | c -> c)
      cands
  in
  match dedup with
  | [] -> None
  | _ ->
    let after = List.filter (fun (lid, _) -> lid > t.rr_last) dedup in
    let chosen = match after with c :: _ -> c | [] -> List.hd dedup in
    let lid, _ = chosen in
    t.rr_last <- lid;
    Some chosen

let dispatch_reply t (l : Link.t) (rx : Backend.rx) =
  let tbl = reply_tbl t l.Link.lid in
  match Hashtbl.find_opt tbl rx.Backend.rx_corr with
  | Some ivar ->
    Hashtbl.remove tbl rx.Backend.rx_corr;
    Sync.Ivar.fill ivar rx
  | None -> Stats.incr t.sts "lynx.orphan_replies"

(* Answer a duplicate of an already-served request from the dedup cache:
   the reply the client missed is retransmitted, the handler does not
   run again. *)
let resend_cached t (l : Link.t) ~corr ~op served =
  Stats.incr t.sts "lynx.dup_replies_resent";
  spawn_thread t ~tname:(Printf.sprintf "%s.rereply" t.pname) (fun () ->
      try
        match served with
        | Reply_vals vs ->
          send_message t l ~kind:Backend.Reply ~corr ~op ~retx:true vs
        | Reply_exn m ->
          send_message t l ~kind:Backend.Reply ~corr ~op ~retx:true ~exn_msg:m
            []
        | Reply_opaque -> ()
      with
      | Excn.Link_destroyed | Excn.Invalid_link | Excn.Process_terminated -> ())

(* At-most-once: when screening is armed, a request id (link, corr) the
   process has already seen is never dispatched again — in flight it is
   dropped, served it is re-answered from the cache (§5: duplicate
   suppression is the runtime's job on an at-least-once transport). *)
let screen_duplicate t (l : Link.t) (rx : Backend.rx) =
  match t.screening with
  | None -> false
  | Some _ -> (
    let key = (l.Link.lid, rx.Backend.rx_corr) in
    match Hashtbl.find_opt t.seen key with
    | Some In_progress ->
      Stats.incr t.sts "lynx.dup_requests_dropped";
      true
    | Some (Served served) ->
      Stats.incr t.sts "lynx.dup_requests_dropped";
      resend_cached t l ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op served;
      true
    | None ->
      Hashtbl.replace t.seen key In_progress;
      false)

let dispatch_request t (l : Link.t) (rx : Backend.rx) =
  if screen_duplicate t l rx then ()
  else
  match
    List.find_opt (fun w -> waiter_wants w l.Link.lid) t.req_waiters
  with
  | Some w -> (
    (* Consume the waiter before registering any enclosed ends, so the
       fresh ends do not inherit its interest (they are not part of any
       open queue yet). *)
    w.w_done <- true;
    match make_incoming t l rx with
    | inc ->
      t.req_waiters <- List.filter (fun w' -> not w'.w_done) t.req_waiters;
      refresh_all_interest t;
      Sync.Ivar.fill w.w_ivar inc
    | exception Excn.Type_error m ->
      w.w_done <- false;
      spawn_thread t (fun () ->
          send_exn_reply t l ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op m))
  | None -> (
    match Hashtbl.find_opt t.handlers (l.Link.lid, rx.Backend.rx_op) with
    | Some h -> (
      match make_incoming t l rx with
      | inc -> run_handler t l h ~corr:rx.Backend.rx_corr inc
      | exception Excn.Type_error m ->
        spawn_thread t (fun () ->
            send_exn_reply t l ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op m))
    | None ->
      Stats.incr t.sts "lynx.unknown_operations";
      (* The queue was open but nobody serves this operation. *)
      l.Link.owed_replies <- l.Link.owed_replies + 1;
      spawn_thread t (fun () ->
          send_exn_reply t l ~corr:rx.Backend.rx_corr ~op:rx.Backend.rx_op
            (Printf.sprintf "no such operation %s" rx.Backend.rx_op)))

let dispatcher_step t =
  List.iter (fun lid -> mark_dead t lid) (t.ops.Backend.b_take_dead ());
  match pick_candidate t with
  | None -> false
  | Some (lid, kind) -> (
    match t.ops.Backend.b_take ~link:lid ~kind with
    | None -> true  (* raced away; rescan *)
    | Some rx ->
      let l = get_link t lid in
      (* Run-time package cost of receiving: scatter, tables, checks. *)
      Engine.sleep t.eng
        (Time.add t.costs.Costs.dispatch
           (Costs.message_cpu t.costs
              ~bytes:(Bytes.length rx.Backend.rx_payload)
              ~side:`Recv));
      Stats.incr t.sts "lynx.messages_received";
      (match kind with
      | Backend.Reply -> dispatch_reply t l rx
      | Backend.Request -> dispatch_request t l rx);
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
  Stats.incr t.sts "lynx.links_made";
  (register_link t lid_a, register_link t lid_b)

let adopt_link t lid =
  match Hashtbl.find_opt t.links lid with
  | Some l -> l
  | None -> register_link t lid

let on_new_link t hook = t.link_hooks <- hook :: t.link_hooks

let park t =
  if t.terminated then raise Excn.Process_terminated;
  Engine.suspend t.eng ~reason:"park" (fun _waker -> ())

let destroy_link t (l : Link.t) =
  usable_or_raise l;
  Stats.incr t.sts "lynx.links_destroyed";
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
  Hashtbl.replace t.handlers (l.Link.lid, op)
    { h_sg = sg; h_fn = fn; h_tname = t.pname ^ "." ^ op };
  l.Link.request_queue_open <- true;
  refresh_interest t l

let await_request t ?links () =
  let filter =
    Option.map (List.map (fun (l : Link.t) -> l.Link.lid)) links
  in
  (match links with
  | Some ls -> List.iter usable_or_raise ls
  | None -> ());
  let w = { w_filter = filter; w_ivar = Sync.Ivar.create t.eng; w_done = false } in
  t.req_waiters <- t.req_waiters @ [ w ];
  refresh_all_interest t;
  (* Ring the doorbell: messages may already be buffered. *)
  Sync.Mailbox.put t.ops.Backend.b_doorbell ();
  Fun.protect
    ~finally:(fun () ->
      w.w_done <- true;
      t.req_waiters <- List.filter (fun w' -> not w'.w_done) t.req_waiters;
      if not t.terminated then refresh_all_interest t)
    (fun () -> Sync.Ivar.read w.w_ivar)

(* ---- Construction ------------------------------------------------------- *)

let make eng ~name:pname ~costs ~stats:sts ?screening ops =
  let t =
    {
      eng;
      pname;
      costs;
      sts;
      ops;
      links = Hashtbl.create 16;
      reply_waiters = Hashtbl.create 16;
      next_corr = 0;
      req_waiters = [];
      handlers = Hashtbl.create 16;
      screening;
      seen = Hashtbl.create 16;
      rr_last = -1;
      link_hooks = [];
      terminated = false;
      thread_failures = [];
      thread_seq = 0;
    }
  in
  Stats.incr sts "lynx.processes";
  ignore
    (Engine.spawn eng ~name:(pname ^ ".dispatch") ~daemon:true (fun () ->
         dispatcher_loop t));
  t
