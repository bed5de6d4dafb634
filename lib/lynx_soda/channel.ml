(** LYNX channel layer for SODA (paper §4.2).

    A link is a pair of unique names, one per end; the owner of an end
    advertises its name.  Every process keeps a {e hint} for the far
    end's location; hints can be wrong, and the protocol recovers: a put
    to a stale location is answered with a redirect ([Moved] accept), a
    put to a process that has forgotten the name fails and triggers
    [discover] (unreliable broadcast) and, as a last resort, the
    freeze/unfreeze absolute search of §4.2.

    Receiving is deferred-accept: an incoming put sits at the kernel
    until this process reaches a block point and actually wants it, so
    no unwanted message is ever received — the machinery Charlotte needs
    (retry/forbid/allow) simply does not exist here (lesson two). *)

open Sim
module S = Soda.Kernel
module ST = Soda.Types

type pend_in = { p_req : ST.req_id; p_from : ST.pid }

type chan = {
  h : int;
  my_name : int;
  far_name : int;
  mutable hint : ST.pid;
  mutable live : bool;
  mutable moving_out : bool;
  mutable want_requests : bool;
  mutable want_replies : bool;
  mutable sig_out : (ST.req_id * ST.pid) option;
      (* our status signal at the peer: (request id, destination) *)
  mutable peer_sigs : ST.req_id list;  (* peer signals pending at us *)
  in_q : pend_in Queue.t array;  (* indexed by kind *)
  rx_objs : string array;  (* our receive queues' event names, by kind *)
  tx_objs : string array;  (* the far end's receive queues' names *)
  end_obj : string;
}

type out_msg = {
  o_chan : chan;
  o_kind : Lynx.Backend.kind;
  o_body : bytes;
  o_encl : int list;  (* handle ids *)
  o_completion : Lynx.Backend.send_result -> unit;
  mutable o_dst : ST.pid;
  mutable o_done : bool;
}

type out_entry =
  | O_msg of out_msg
  | O_sig of chan
  | O_freeze of (Wire.acc_oob option) Sync.Mailbox.t
  | O_unfreeze

type t = {
  kernel : S.t;
  pid : ST.pid;
  sts : Stats.t;
  chans : (int, chan) Hashtbl.t;  (* by handle *)
  by_name : (int, chan) Hashtbl.t;  (* my_name -> chan *)
  forward : (int, ST.pid) Hashtbl.t;  (* cache: moved-end name -> new owner *)
  out_by_req : (ST.req_id, out_entry) Hashtbl.t;
  in_by_req : (ST.req_id, chan * int) Hashtbl.t;  (* for withdrawals *)
  work : ST.interrupt Sync.Mailbox.t;
  doorbell : unit Sync.Mailbox.t;
  dead : int Queue.t;
  frozen_q : out_msg Queue.t;
  sigs_by_dst : (ST.pid, int) Hashtbl.t;
      (* our outstanding status signals per destination, tracked
         synchronously so they can be budgeted (§4.2.1) *)
  signal_budget : bool;
      (* false disables the budget, demonstrating the §4.2.1 deadlock *)
  mutable frozen : bool;
  mutable next_handle : int;
  mutable closing : bool;
}

let kind_index = function Lynx.Backend.Request -> 0 | Lynx.Backend.Reply -> 1
let kind_of_index = function 0 -> Lynx.Backend.Request | _ -> Lynx.Backend.Reply
let kind_label = function Lynx.Backend.Request -> "req" | Lynx.Backend.Reply -> "rep"
let ring t = Sync.Mailbox.put t.doorbell ()
let engine t = S.engine t.kernel

(* Structured-event object names, built once per registered end.  A
   SODA end's receive queue is named after the end's kernel-global
   name, which both parties know (the sender holds it as [far_name]);
   the per-message stamp rides the kernel-global request id, re-stamped
   on every retry so redirects keep the sender's clock attached. *)
let queue_objs name =
  Array.init 2 (fun ki ->
      Printf.sprintf "soda.n%d.%s" name (kind_label (kind_of_index ki)))

let req_key req = Engine.stamp_key ~layer:2 ~obj:req ~seq:0

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

let register t ~my_name ~far_name ~hint =
  let h = fresh_handle t in
  let c =
    {
      h;
      my_name;
      far_name;
      hint;
      live = true;
      moving_out = false;
      want_requests = false;
      want_replies = false;
      sig_out = None;
      peer_sigs = [];
      in_q = [| Queue.create (); Queue.create () |];
      rx_objs = queue_objs my_name;
      tx_objs = queue_objs far_name;
      end_obj = Printf.sprintf "soda.n%d" my_name;
    }
  in
  Hashtbl.replace t.chans h c;
  Hashtbl.replace t.by_name my_name c;
  S.advertise t.kernel t.pid my_name;
  c

(* ---- Outgoing data puts -------------------------------------------------- *)

let fail_msg (m : out_msg) exn =
  if not m.o_done then begin
    m.o_done <- true;
    m.o_completion
      (Error { Lynx.Backend.se_exn = exn; se_recovered = m.o_encl })
  end

let sigs_at t dst =
  Option.value ~default:0 (Hashtbl.find_opt t.sigs_by_dst dst)

let sig_slot_release t dst =
  Hashtbl.replace t.sigs_by_dst dst (max 0 (sigs_at t dst - 1))


(* Accept everything still pending on an end that is being destroyed or
   has moved away, telling the other side what happened (§4.2: "we
   require a process that destroys a link to accept any previously-
   posted status signal on its end, mentioning the destruction in the
   out-of-band information...").  Runs in a fiber. *)
let flush_pending t (c : chan) (acc : Wire.acc_oob) =
  let oob = Wire.encode_acc_oob acc in
  List.iter
    (fun req ->
      ignore (S.accept t.kernel t.pid ~req ~oob ~data:Bytes.empty ~recv_max:0))
    c.peer_sigs;
  c.peer_sigs <- [];
  Array.iter
    (fun q ->
      Queue.iter
        (fun (p : pend_in) ->
          Hashtbl.remove t.in_by_req p.p_req;
          ignore
            (S.accept t.kernel t.pid ~req:p.p_req ~oob ~data:Bytes.empty
               ~recv_max:0))
        q;
      Queue.clear q)
    c.in_q

let on_dead t (c : chan) ~by_peer =
  if c.live then begin
    c.live <- false;
    Hashtbl.remove t.by_name c.my_name;
    S.unadvertise t.kernel t.pid c.my_name;
    (* Outstanding sends on this link can never complete. *)
    Hashtbl.iter
      (fun req entry ->
        match entry with
        | O_msg m when m.o_chan == c ->
          ignore (S.withdraw t.kernel t.pid req);
          fail_msg m Lynx.Excn.Link_destroyed
        | O_sig sc when sc == c -> ignore (S.withdraw t.kernel t.pid req)
        | _ -> ())
      t.out_by_req;
    (match c.sig_out with
    | Some (_, dst) -> sig_slot_release t dst
    | None -> ());
    c.sig_out <- None;
    if by_peer then begin
      Queue.add c.h t.dead;
      ring t
    end
  end

let rec post_msg t (m : out_msg) =
  if not m.o_done then
    if not m.o_chan.live then fail_msg m Lynx.Excn.Link_destroyed
    else if t.frozen then Queue.add m t.frozen_q
    else begin
      m.o_dst <- m.o_chan.hint;
      match
        S.request t.kernel t.pid ~dst:m.o_dst ~name:m.o_chan.far_name
          ~oob:(Wire.encode_req_oob (Wire.Msg m.o_kind))
          ~data:m.o_body ~recv_max:0
      with
      | Ok req ->
        Stats.incr t.sts "lynx_soda.data_puts";
        Engine.stamp (engine t) (req_key req);
        Hashtbl.replace t.out_by_req req (O_msg m)
      | Error `Pair_limit ->
        (* Too many outstanding requests to this destination (§4.2.1);
           back off and retry from a fresh fiber. *)
        Stats.incr t.sts "lynx_soda.pair_limit_backoffs";
        ignore
          (Engine.spawn (engine t) ~name:"soda.backoff" ~daemon:true (fun () ->
               Engine.sleep (engine t) (Time.ms 2);
               post_msg t m))
      | Error `Oob_too_big -> assert false
    end

(* Post our status signal at the peer so we hear about destruction,
   crashes and moves (§4.2).  Signals must not exhaust the per-pair
   outstanding-request budget: with many links between one pair of
   processes that would deadlock the data puts — exactly the §4.2.1
   hazard.  We reserve two slots for data ("the implementation could
   make do with two outstanding requests per link and a single extra
   for replies"). *)
let rec post_signal t (c : chan) =
  if c.live && c.sig_out = None && not t.closing then begin
    (* Budget: signals pend indefinitely, so left unchecked they would
       eat the whole per-pair request allowance and deadlock the data
       puts when many links connect one pair of processes — the §4.2.1
       hazard.  Reserve two slots for data.  The count is tracked
       locally and bumped before the (sleeping) kernel call so that
       concurrent coroutines cannot over-commit. *)
    let budget = (S.costs t.kernel).Soda.Costs.pair_limit - 2 in
    let dst = c.hint in
    if t.signal_budget && sigs_at t dst >= budget then begin
      Stats.incr t.sts "lynx_soda.signal_budget_deferrals";
      ignore
        (Engine.spawn (engine t) ~name:"soda.sig-budget" ~daemon:true
           (fun () ->
             Engine.sleep (engine t) (Time.ms 20);
             post_signal t c))
    end
    else begin
      Hashtbl.replace t.sigs_by_dst dst (sigs_at t dst + 1);
      match
        S.request t.kernel t.pid ~dst ~name:c.far_name
          ~oob:(Wire.encode_req_oob Wire.Sig) ~data:Bytes.empty ~recv_max:0
      with
      | Ok req ->
        c.sig_out <- Some (req, dst);
        Hashtbl.replace t.out_by_req req (O_sig c)
      | Error `Pair_limit ->
        sig_slot_release t dst;
        Stats.incr t.sts "lynx_soda.pair_limit_backoffs";
        ignore
          (Engine.spawn (engine t) ~name:"soda.sig-backoff" ~daemon:true
             (fun () ->
               Engine.sleep (engine t) (Time.ms 5);
               post_signal t c))
      | Error `Oob_too_big -> assert false
    end
  end

(* ---- Hint repair ---------------------------------------------------------- *)

(* The freeze/unfreeze absolute search (§4.2): ask every process, while
   it pauses its own sends, whether it knows where [name] lives. *)
let freeze_search t name =
  Stats.incr t.sts "lynx_soda.freeze_searches";
  let mb = Sync.Mailbox.create (engine t) in
  let targets =
    List.filter
      (fun pid -> pid <> t.pid && S.process_alive t.kernel pid)
      (S.pids t.kernel)
  in
  let asked =
    List.filter_map
      (fun pid ->
        match
          S.request t.kernel t.pid ~dst:pid ~name:(Wire.freeze_name pid)
            ~oob:(Wire.encode_req_oob (Wire.Freeze name))
            ~data:Bytes.empty ~recv_max:0
        with
        | Ok req ->
          Hashtbl.replace t.out_by_req req (O_freeze mb);
          Some pid
        | Error _ -> None)
      targets
  in
  let hint = ref None in
  List.iter
    (fun _ ->
      match Sync.Mailbox.take mb with
      | Some (Wire.Hint pid) -> if !hint = None then hint := Some pid
      | _ -> ())
    asked;
  (* Release everyone. *)
  List.iter
    (fun pid ->
      match
        S.request t.kernel t.pid ~dst:pid ~name:(Wire.freeze_name pid)
          ~oob:(Wire.encode_req_oob Wire.Unfreeze) ~data:Bytes.empty ~recv_max:0
      with
      | Ok req -> Hashtbl.replace t.out_by_req req O_unfreeze
      | Error _ -> ())
    asked;
  !hint

(* Find the owner of a far end whose advertiser rejected us: caching
   processes answer discover; the freeze search is the fallback.  Runs
   in its own fiber. *)
let resolve_far_end t (c : chan) =
  let rec disc k =
    if k = 0 then None
    else begin
      Stats.incr t.sts "lynx_soda.discover_attempts";
      match S.discover t.kernel t.pid c.far_name with
      | Some pid -> Some pid
      | None -> disc (k - 1)
    end
  in
  match disc 3 with Some pid -> Some pid | None -> freeze_search t c.far_name

let repair_and_retry t (c : chan) ~retry ~give_up =
  ignore
    (Engine.spawn (engine t) ~name:"soda.repair" ~daemon:true (fun () ->
         match resolve_far_end t c with
         | Some pid ->
           Stats.incr t.sts "lynx_soda.hints_repaired";
           c.hint <- pid;
           retry ()
         | None ->
           (* Nobody knows the far end: the link is gone (§4.2: "a
              process that is unable to find the far end of a link must
              assume it has been destroyed").  The operation that
              triggered the search fails explicitly — it was already
              detached from the outstanding-request table. *)
           Stats.incr t.sts "lynx_soda.links_presumed_destroyed";
           on_dead t c ~by_peer:true;
           give_up ()))

(* ---- Enclosure move completion -------------------------------------------- *)

(* Our message (possibly carrying ends) was accepted by [dst]: the moved
   ends now live there.  Keep their names advertised with a forwarding
   entry (the cache of §4.2) and answer everything still pending on them
   with a redirect. *)
let finish_move t (m : out_msg) =
  List.iter
    (fun h ->
      match Hashtbl.find_opt t.chans h with
      | None -> ()
      | Some ec ->
        ec.live <- false;
        Hashtbl.remove t.chans h;
        Hashtbl.remove t.by_name ec.my_name;
        Hashtbl.replace t.forward ec.my_name m.o_dst;
        Stats.incr t.sts "lynx_soda.ends_moved_out";
        (match ec.sig_out with
        | Some (req, dst) ->
          ignore (S.withdraw t.kernel t.pid req);
          sig_slot_release t dst;
          ec.sig_out <- None
        | None -> ());
        flush_pending t ec (Wire.Moved m.o_dst))
    m.o_encl

(* ---- The pump -------------------------------------------------------------- *)

let accept_zero t req acc =
  ignore
    (S.accept t.kernel t.pid ~req ~oob:(Wire.encode_acc_oob acc)
       ~data:Bytes.empty ~recv_max:0)

let handle_request t (inc : ST.incoming) =
  if inc.ST.i_name = Wire.freeze_name t.pid then (
    match Wire.decode_req_oob inc.ST.i_oob with
    | Some (Wire.Freeze sought) ->
      Stats.incr t.sts "lynx_soda.freezes_received";
      t.frozen <- true;
      let answer =
        match Hashtbl.find_opt t.by_name sought with
        | Some _ -> Wire.Hint t.pid
        | None -> (
          match Hashtbl.find_opt t.forward sought with
          | Some pid -> Wire.Hint pid
          | None -> Wire.No_hint)
      in
      accept_zero t inc.ST.i_id answer
    | Some Wire.Unfreeze ->
      accept_zero t inc.ST.i_id Wire.Ok_taken;
      t.frozen <- false;
      let rec drain () =
        match Queue.take_opt t.frozen_q with
        | Some m ->
          post_msg t m;
          drain ()
        | None -> ()
      in
      drain ()
    | _ -> accept_zero t inc.ST.i_id Wire.No_hint)
  else
    match Hashtbl.find_opt t.by_name inc.ST.i_name with
    | Some c -> (
      (* Whoever puts to our end owns the far end: free hint refresh. *)
      c.hint <- inc.ST.i_from;
      match Wire.decode_req_oob inc.ST.i_oob with
      | Some (Wire.Msg kind) ->
        Stats.incr t.sts "lynx_soda.msgs_queued";
        Queue.add
          { p_req = inc.ST.i_id; p_from = inc.ST.i_from }
          c.in_q.(kind_index kind);
        Hashtbl.replace t.in_by_req inc.ST.i_id (c, kind_index kind);
        ring t
      | Some Wire.Sig -> c.peer_sigs <- inc.ST.i_id :: c.peer_sigs
      | _ -> accept_zero t inc.ST.i_id Wire.No_hint)
    | None -> (
      match Hashtbl.find_opt t.forward inc.ST.i_name with
      | Some fwd ->
        Stats.incr t.sts "lynx_soda.redirects_served";
        accept_zero t inc.ST.i_id (Wire.Moved fwd)
      | None ->
        (* A name we have forgotten entirely: destroyed long ago. *)
        accept_zero t inc.ST.i_id Wire.Destroyed)

let handle_completed t (comp : ST.completion) =
  match Hashtbl.find_opt t.out_by_req comp.ST.c_id with
  | None -> Stats.incr t.sts "lynx_soda.orphan_completions"
  | Some entry -> (
    Hashtbl.remove t.out_by_req comp.ST.c_id;
    match entry with
    | O_msg m -> (
      match Wire.decode_acc_oob comp.ST.c_oob with
      | Some Wire.Ok_taken ->
        if not m.o_done then begin
          m.o_done <- true;
          finish_move t m;
          m.o_completion (Ok ())
        end
      | Some Wire.Destroyed ->
        on_dead t m.o_chan ~by_peer:true;
        fail_msg m Lynx.Excn.Link_destroyed
      | Some (Wire.Moved pid) ->
        Stats.incr t.sts "lynx_soda.moved_redirects";
        m.o_chan.hint <- pid;
        post_msg t m
      | _ -> fail_msg m (Lynx.Excn.Remote_error "bad accept oob"))
    | O_sig c -> (
      (match c.sig_out with
      | Some (_, dst) -> sig_slot_release t dst
      | None -> ());
      c.sig_out <- None;
      match Wire.decode_acc_oob comp.ST.c_oob with
      | Some Wire.Destroyed -> on_dead t c ~by_peer:true
      | Some (Wire.Moved pid) ->
        c.hint <- pid;
        post_signal t c
      | _ -> post_signal t c)
    | O_freeze mb -> Sync.Mailbox.put mb (Wire.decode_acc_oob comp.ST.c_oob)
    | O_unfreeze -> ())

let handle_aborted t a_id (reason : ST.abort_reason) =
  match Hashtbl.find_opt t.out_by_req a_id with
  | None -> ()
  | Some entry -> (
    Hashtbl.remove t.out_by_req a_id;
    match entry with
    | O_msg m -> (
      match reason with
      | ST.Peer_crashed | ST.Name_not_advertised ->
        (* The hint may merely be stale (the far end moved on, or the
           caching process died).  Search before giving up: if nobody
           knows the name, the link is presumed destroyed (§4.2). *)
        Stats.incr t.sts "lynx_soda.stale_hints";
        repair_and_retry t m.o_chan
          ~retry:(fun () -> post_msg t m)
          ~give_up:(fun () -> fail_msg m Lynx.Excn.Link_destroyed)
      | ST.Request_withdrawn -> ())
    | O_sig c -> (
      (match c.sig_out with
      | Some (_, dst) -> sig_slot_release t dst
      | None -> ());
      c.sig_out <- None;
      match reason with
      | ST.Peer_crashed | ST.Name_not_advertised ->
        Stats.incr t.sts "lynx_soda.stale_hints";
        repair_and_retry t c
          ~retry:(fun () -> post_signal t c)
          ~give_up:(fun () -> ())
      | ST.Request_withdrawn -> ())
    | O_freeze mb -> Sync.Mailbox.put mb None
    | O_unfreeze -> ())

let handle_withdrawn t w_id =
  match Hashtbl.find_opt t.in_by_req w_id with
  | None -> ()
  | Some (c, ki) ->
    Hashtbl.remove t.in_by_req w_id;
    let keep = Queue.create () in
    Queue.iter
      (fun (p : pend_in) -> if p.p_req <> w_id then Queue.add p keep)
      c.in_q.(ki);
    Queue.clear c.in_q.(ki);
    Queue.transfer keep c.in_q.(ki)

let pump t () =
  try
    while not t.closing do
      match Sync.Mailbox.take t.work with
      | ST.Request inc -> handle_request t inc
      | ST.Completed comp -> handle_completed t comp
      | ST.Aborted { a_id; a_reason } -> handle_aborted t a_id a_reason
      | ST.Withdrawn { w_id } -> handle_withdrawn t w_id
    done
  with S.Process_exit | Lynx.Excn.Process_terminated -> ()

(* ---- Backend operations ----------------------------------------------------- *)

let new_link t () =
  let n0 = S.new_name t.kernel t.pid and n1 = S.new_name t.kernel t.pid in
  let c0 = register t ~my_name:n0 ~far_name:n1 ~hint:t.pid in
  let c1 = register t ~my_name:n1 ~far_name:n0 ~hint:t.pid in
  Stats.incr t.sts "lynx_soda.links_made";
  (c0.h, c1.h)

let send t ~link ~kind ~corr ~op ~retx ~exn_msg ~payload ~enclosures ~completion =
  match Hashtbl.find_opt t.chans link with
  | None ->
    (* The link died and was released before the core processed the
       death notice; surface the failure through the completion. *)
    ignore (kind, op, exn_msg, payload);
    completion
      (Error
         { Lynx.Backend.se_exn = Lynx.Excn.Link_destroyed;
            se_recovered = enclosures })
  | Some c ->
    let encl_chans =
      List.map
        (fun h ->
          match Hashtbl.find_opt t.chans h with
          | Some ec ->
            ec.moving_out <- true;
            ec
          | None -> invalid_arg "lynx_soda.send: unknown enclosure")
        enclosures
    in
    let encl_desc =
      List.map
        (fun ec ->
          { Wire.e_my_name = ec.my_name; e_far_name = ec.far_name; e_hint = ec.hint })
        encl_chans
    in
    let body =
      Wire.encode_body
        {
          Wire.b_corr = corr;
          b_op = op;
          b_exn = exn_msg;
          b_encl = encl_desc;
          b_payload = payload;
        }
    in
    let m =
      {
        o_chan = c;
        o_kind = kind;
        o_body = body;
        o_encl = enclosures;
        o_completion = completion;
        o_dst = c.hint;
        o_done = false;
      }
    in
    Engine.emit (engine t)
      (Event.Send
         {
           obj = c.tx_objs.(kind_index kind);
           op;
           unordered = retx || kind = Lynx.Backend.Reply;
         });
    List.iter
      (fun ec -> Engine.emit (engine t) (Event.Link_move { obj = ec.end_obj }))
      encl_chans;
    post_msg t m

let set_interest t ~link ~requests ~replies =
  match Hashtbl.find_opt t.chans link with
  | None -> ()
  | Some c ->
    let newly =
      (requests && not c.want_requests) || (replies && not c.want_replies)
    in
    c.want_requests <- requests;
    c.want_replies <- replies;
    if (requests || replies) && c.sig_out = None then post_signal t c;
    if newly then ring t

let readable t () =
  Hashtbl.fold
    (fun h (c : chan) acc ->
      if not c.live then acc
      else begin
        let add ki acc =
          if Queue.is_empty c.in_q.(ki) then acc else (h, kind_of_index ki) :: acc
        in
        add 1 (add 0 acc)
      end)
    t.chans []
  |> List.sort compare

let take t ~link ~kind =
  match Hashtbl.find_opt t.chans link with
  | None -> None
  | Some c -> (
    match Queue.take_opt c.in_q.(kind_index kind) with
    | None -> None
    | Some p -> (
      Hashtbl.remove t.in_by_req p.p_req;
      match
        S.accept t.kernel t.pid ~req:p.p_req
          ~oob:(Wire.encode_acc_oob Wire.Ok_taken)
          ~data:Bytes.empty ~recv_max:1_000_000
      with
      | Error `Requester_gone ->
        on_dead t c ~by_peer:true;
        None
      | Error `Unknown -> None
      | Ok raw -> (
        match Wire.decode_body raw with
        | exception Wire.Malformed ->
          Stats.incr t.sts "lynx_soda.malformed";
          None
        | body ->
          Engine.adopt (engine t) (req_key p.p_req);
          Engine.emit (engine t)
            (Event.Receive
               { obj = c.rx_objs.(kind_index kind); op = body.Wire.b_op });
          let handles =
            List.map
              (fun (e : Wire.encl) ->
                let ec =
                  register t ~my_name:e.Wire.e_my_name ~far_name:e.Wire.e_far_name
                    ~hint:e.Wire.e_hint
                in
                Stats.incr t.sts "lynx_soda.ends_adopted";
                ec.h)
              body.Wire.b_encl
          in
          Some
            {
              Lynx.Backend.rx_kind = kind;
              rx_corr = body.Wire.b_corr;
              rx_op = body.Wire.b_op;
              rx_exn = body.Wire.b_exn;
              rx_payload = body.Wire.b_payload;
              rx_enclosures = handles;
            })))

let take_dead t () =
  let rec drain acc =
    match Queue.take_opt t.dead with
    | Some h -> drain (h :: acc)
    | None -> List.rev acc
  in
  drain []

let destroy t ~link =
  match Hashtbl.find_opt t.chans link with
  | None -> ()
  | Some c ->
    if c.live then begin
      Stats.incr t.sts "lynx_soda.destroys";
      flush_pending t c Wire.Destroyed;
      on_dead t c ~by_peer:false
    end

let shutdown t () =
  if not t.closing then begin
    let all = Hashtbl.fold (fun h _ acc -> h :: acc) t.chans [] in
    List.iter (fun h -> destroy t ~link:h) all;
    t.closing <- true;
    Sync.Mailbox.poison t.work Lynx.Excn.Process_terminated
  end

let make ?(signal_budget = true) kernel pid ~stats =
  let eng = S.engine kernel in
  let t =
    {
      kernel;
      pid;
      sts = stats;
      chans = Hashtbl.create 16;
      by_name = Hashtbl.create 16;
      forward = Hashtbl.create 16;
      out_by_req = Hashtbl.create 16;
      in_by_req = Hashtbl.create 16;
      work = Sync.Mailbox.create eng;
      doorbell = Sync.Mailbox.create eng;
      dead = Queue.create ();
      frozen_q = Queue.create ();
      sigs_by_dst = Hashtbl.create 8;
      signal_budget;
      frozen = false;
      next_handle = 0;
      closing = false;
    }
  in
  S.advertise kernel pid (Wire.freeze_name pid);
  (* The software-interrupt handler must not block: it only records the
     interrupt; the pump fiber does the real work (§4.1: "the
     interrupted process is free to save the information for future
     reference"). *)
  S.set_handler kernel pid (fun intr -> Sync.Mailbox.put t.work intr);
  ignore
    (Engine.spawn eng ~name:(Printf.sprintf "soda.pump.%d" pid) ~daemon:true
       (pump t));
  let ops =
    {
      Lynx.Backend.b_new_link = new_link t;
      b_send =
        (fun ~link ~kind ~corr ~op ~retx ~exn_msg ~payload ~enclosures ~completion ->
          send t ~link ~kind ~corr ~op ~retx ~exn_msg ~payload ~enclosures
            ~completion);
      b_set_interest =
        (fun ~link ~requests ~replies -> set_interest t ~link ~requests ~replies);
      b_readable = readable t;
      b_take = (fun ~link ~kind -> take t ~link ~kind);
      b_take_dead = take_dead t;
      b_doorbell = t.doorbell;
      b_destroy = (fun ~link -> destroy t ~link);
      b_shutdown = shutdown t;
      b_stats = stats;
    }
  in
  (t, ops)

(* Bootstrap for [World.link_between]: create the name pair locally in
   process A, and adopt the far name in process B. *)
let bootstrap_pair (a : t) (b : t) =
  let n0 = S.new_name a.kernel a.pid and n1 = S.new_name a.kernel a.pid in
  let ca = register a ~my_name:n0 ~far_name:n1 ~hint:b.pid in
  let cb = register b ~my_name:n1 ~far_name:n0 ~hint:a.pid in
  (ca.h, cb.h)
