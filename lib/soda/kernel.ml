open Sim
open Types

exception Process_exit

type req_state = In_flight | Presented | Finished

type req = {
  q_id : req_id;
  q_src : pid;
  q_dst : pid;
  q_name : name;
  q_oob : oob;
  q_data : bytes;
  q_recv_max : int;
  mutable q_state : req_state;
}

(* The interrupt object's event kinds never change, so they are built
   with the process: delivering or draining an interrupt allocates no
   kind. *)
type process = {
  p_id : pid;
  p_node : node;
  p_label : string;
  p_intr_woke : Event.kind;  (* on the event object "soda.int<pid>" *)
  p_intr_latched : Event.kind;
  p_intr_seen : Event.kind;
  mutable p_alive : bool;
  mutable p_handler : (interrupt -> unit) option;
  p_queued : interrupt Queue.t;  (* completions queued while no handler is set *)
  p_advertised : (name, unit) Hashtbl.t;
  p_presented : (req_id, req) Hashtbl.t;  (* requests awaiting our accept *)
}

type t = {
  eng : Engine.t;
  cst : Costs.t;
  sts : Stats.t;
  bus : Netmodel.Csma_bus.t;
  procs : (pid, process) Hashtbl.t;
  reqs : (req_id, req) Hashtbl.t;
  pair_count : (int, int ref) Hashtbl.t;  (* by [pair_key] *)
  mutable next_pid : int;
  mutable next_name : int;
  mutable next_req : int;
}

let create eng ?(costs = Costs.default) ?stats ?faults ~nodes () =
  let sts = match stats with Some s -> s | None -> Stats.create () in
  (* All SODA kernel traffic — request, accept, discover — crosses the
     bus, so injecting there covers every rendezvous leg.  SODA requests
     are unreliable and retransmitted below the language runtime (§3.2),
     which is exactly the drop-then-retransmit model the injector
     implements. *)
  {
    eng;
    cst = costs;
    sts;
    bus =
      Netmodel.Csma_bus.create eng ~stats:sts ~rng:(Rng.split (Engine.rng eng))
        ~broadcast_loss:costs.Costs.broadcast_loss ?faults ~stations:nodes ();
    procs = Hashtbl.create 16;
    reqs = Hashtbl.create 64;
    pair_count = Hashtbl.create 32;
    next_pid = 0;
    next_name = 0;
    next_req = 0;
  }

let engine t = t.eng
let stats t = t.sts
let costs t = t.cst
let nodes t = Netmodel.Csma_bus.stations t.bus

(* Lookups use [Hashtbl.find]: [find_opt] would allocate its option on
   every kernel call. *)
let proc t pid =
  match Hashtbl.find t.procs pid with
  | p -> p
  | exception Not_found -> invalid_arg (Printf.sprintf "soda: unknown pid %d" pid)

let process_alive t pid = (proc t pid).p_alive
let process_node t pid = (proc t pid).p_node
let pids t = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.procs [] |> List.sort compare

(* One int per (source, destination) pair, so a lookup builds no
   tuple.  Pids count up from 0, and a destination read off the wire is
   an unsigned 32-bit field. *)
let pair_key src dst = (src lsl 32) lor dst

let pair t src dst =
  let key = pair_key src dst in
  match Hashtbl.find t.pair_count key with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t.pair_count key r;
    r

(* Client-processor cost of issuing a kernel call or fielding an
   interrupt; the kernel processor runs concurrently, so this is small. *)
let charge t = Engine.sleep t.eng t.cst.Costs.interrupt_cpu

module Key = struct
  let aborts = Stats.key "soda.aborts"
  let accepts = Stats.key "soda.accepts"
  let discovers = Stats.key "soda.discovers"
  let interrupts = Stats.key "soda.interrupts"
  let interrupts_queued = Stats.key "soda.interrupts_queued"
  let pair_limit_hits = Stats.key "soda.pair_limit_hits"
  let request_retries = Stats.key "soda.request_retries"
  let requests = Stats.key "soda.requests"
  let terminations = Stats.key "soda.terminations"
  let withdrawals = Stats.key "soda.withdrawals"
end

(* Deliver an interrupt to a process's handler.  Runs in scheduler
   context; handlers must not block (they may only record state and wake
   fibers), mirroring SODA's interrupt discipline. *)
let deliver t p intr =
  if p.p_alive then begin
    match (p.p_handler, intr) with
    | Some h, _ ->
      Stats.incr t.sts Key.interrupts;
      Engine.emit t.eng p.p_intr_woke;
      h intr
    | None, (Completed _ | Aborted _ | Withdrawn _) ->
      Stats.incr t.sts Key.interrupts_queued;
      (* The software-interrupt window: the completion arrived before
         the handler was set, so it only sits in the queue — it is seen
         again (Signal_seen) when the drain runs, or never. *)
      Engine.emit t.eng p.p_intr_latched;
      Queue.add intr p.p_queued
    | None, Request _ ->
      (* Requests are never queued at the target without a handler:
         the requesting kernel retries them (handled in [present]). *)
      assert false
  end

(* ---- Names ----------------------------------------------------------- *)

let new_name t _pid =
  let n = t.next_name in
  t.next_name <- n + 1;
  n

let advertise t pid name_ =
  let p = proc t pid in
  Hashtbl.replace p.p_advertised name_ ()

let unadvertise t pid name_ =
  let p = proc t pid in
  Hashtbl.remove p.p_advertised name_

(* ---- Requests --------------------------------------------------------- *)

(* A finished request leaves the table: only [withdraw] and [terminate]
   read it, and both skip finished requests. *)
let finish_req t (q : req) =
  if q.q_state <> Finished then begin
    q.q_state <- Finished;
    Hashtbl.remove t.reqs q.q_id;
    let r = pair t q.q_src q.q_dst in
    decr r
  end

let abort_req t (q : req) reason =
  if q.q_state <> Finished then begin
    finish_req t q;
    Stats.incr t.sts Key.aborts;
    (match Hashtbl.find_opt t.procs q.q_src with
    | Some src when src.p_alive ->
      deliver t src (Aborted { a_id = q.q_id; a_reason = reason })
    | _ -> ())
  end

(* Present a request at its destination, retrying while the destination
   has no handler yet (the requesting kernel's periodic retry). *)
let rec present t (q : req) =
  if q.q_state = In_flight then begin
    match Hashtbl.find t.procs q.q_dst with
    | exception Not_found -> abort_req t q Peer_crashed
    | dst ->
      if not dst.p_alive then abort_req t q Peer_crashed
      else if not (Hashtbl.mem dst.p_advertised q.q_name) then
        abort_req t q Name_not_advertised
      else if dst.p_handler = None then begin
        Stats.incr t.sts Key.request_retries;
        Engine.schedule_after t.eng t.cst.Costs.retry_interval (fun () ->
            present t q)
      end
      else begin
        q.q_state <- Presented;
        Hashtbl.replace dst.p_presented q.q_id q;
        deliver t dst
          (Request
             {
               i_id = q.q_id;
               i_from = q.q_src;
               i_name = q.q_name;
               i_oob = q.q_oob;
               i_send_len = Bytes.length q.q_data;
               i_recv_max = q.q_recv_max;
             })
      end
  end

let request t pid ~dst ~name:name_ ~oob ~data ~recv_max =
  charge t;
  let src = proc t pid in
  if not src.p_alive then invalid_arg "soda.request: dead caller";
  if Bytes.length oob > t.cst.Costs.oob_limit then Error `Oob_too_big
  else begin
    let counter = pair t pid dst in
    if !counter >= t.cst.Costs.pair_limit then begin
      Stats.incr t.sts Key.pair_limit_hits;
      Error `Pair_limit
    end
    else begin
      incr counter;
      let id = t.next_req in
      t.next_req <- id + 1;
      let q =
        {
          q_id = id;
          q_src = pid;
          q_dst = dst;
          q_name = name_;
          q_oob = oob;
          q_data = data;
          q_recv_max = recv_max;
          q_state = In_flight;
        }
      in
      Hashtbl.add t.reqs id q;
      Stats.incr t.sts Key.requests;
      (* Request leg: kernel processing + a small frame on the bus. *)
      let dst_node =
        match Hashtbl.find t.procs dst with
        | p -> p.p_node
        | exception Not_found -> src.p_node
      in
      let duration =
        Time.add t.cst.Costs.op_fixed
          (Costs.transfer_time t.cst ~bytes:(Bytes.length oob))
      in
      Netmodel.Csma_bus.transmit t.bus ~src:src.p_node ~dst:dst_node ~duration
        ~on_delivered:(fun () -> present t q);
      Ok id
    end
  end

let accept t pid ~req ~oob ~data ~recv_max =
  charge t;
  let p = proc t pid in
  if Bytes.length oob > t.cst.Costs.oob_limit then
    invalid_arg "soda.accept: oob too big";
  match Hashtbl.find p.p_presented req with
  | exception Not_found -> Error `Unknown
  | q ->
    Hashtbl.remove p.p_presented req;
    if q.q_state <> Presented then Error `Unknown
    else (
      match Hashtbl.find t.procs q.q_src with
      | src when src.p_alive ->
        finish_req t q;
        Stats.incr t.sts Key.accepts;
        let taken = min (Bytes.length q.q_data) recv_max in
        let back =
          if Bytes.length data <= q.q_recv_max then data
          else Bytes.sub data 0 q.q_recv_max
        in
        (* Inbound leg: the requester's data reaches us now; the calling
           fiber waits out the transfer. *)
        Engine.sleep t.eng (Costs.transfer_time t.cst ~bytes:taken);
        (* Outbound leg: kernel processing plus our data on the bus;
           the requester feels the completion when it lands. *)
        let duration =
          Time.add t.cst.Costs.op_fixed
            (Costs.transfer_time t.cst ~bytes:(Bytes.length back))
        in
        Netmodel.Csma_bus.transmit t.bus ~src:p.p_node ~dst:src.p_node
          ~duration ~on_delivered:(fun () ->
            deliver t src
              (Completed
                 { c_id = q.q_id; c_oob = oob; c_data = back; c_taken = taken }));
        Ok (Bytes.sub q.q_data 0 taken)
      | _ | (exception Not_found) ->
        finish_req t q;
        Error `Requester_gone)

let withdraw t pid req_id =
  charge t;
  match Hashtbl.find_opt t.reqs req_id with
  | None -> false
  | Some q ->
    if q.q_src <> pid || q.q_state = Finished then false
    else begin
      let was_presented = q.q_state = Presented in
      finish_req t q;
      Stats.incr t.sts Key.withdrawals;
      if was_presented then (
        match Hashtbl.find_opt t.procs q.q_dst with
        | Some dst when dst.p_alive ->
          Hashtbl.remove dst.p_presented q.q_id;
          deliver t dst (Withdrawn { w_id = q.q_id })
        | _ -> ());
      true
    end

(* ---- Discover --------------------------------------------------------- *)

let discover_block = Engine.reason "soda.discover"

let discover t pid name_ =
  charge t;
  Stats.incr t.sts Key.discovers;
  let p = proc t pid in
  let responses = Sync.Mailbox.create t.eng in
  let duration = t.cst.Costs.op_fixed in
  Netmodel.Csma_bus.broadcast t.bus ~src:p.p_node ~duration
    ~on_delivered:(fun station ->
      (* Kernel processors answer directly; no client involvement. *)
      Hashtbl.iter
        (fun _ (cand : process) ->
          if
            cand.p_node = station && cand.p_alive
            && Hashtbl.mem cand.p_advertised name_
          then
            Netmodel.Csma_bus.transmit t.bus ~src:cand.p_node ~dst:p.p_node
              ~duration ~on_delivered:(fun () ->
                Sync.Mailbox.put responses cand.p_id))
        t.procs);
  (* Wait for the first response or the timeout.  Both race to wake
     the fiber, and [decided] lets only the first one: a second wake
     would raise. *)
  let h = Engine.prepare t.eng in
  let decided = ref false in
  Engine.schedule_after t.eng t.cst.Costs.discover_timeout (fun () ->
      if not !decided then begin
        decided := true;
        Engine.resume t.eng h None
      end);
  (* Poll the mailbox via a scheduler-side taker. *)
  let rec poll () =
    match Sync.Mailbox.take_opt responses with
    | Some r ->
      if not !decided then begin
        decided := true;
        Engine.resume t.eng h (Some r)
      end
    | None ->
      if not !decided then
        Engine.schedule_after t.eng (Time.us 500) (fun () -> poll ())
  in
  poll ();
  Engine.await_prepared t.eng ~reason:discover_block h

(* ---- Interrupt management --------------------------------------------- *)

let drain_queued t p =
  while not (Queue.is_empty p.p_queued) do
    Engine.emit t.eng p.p_intr_seen;
    deliver t p (Queue.take p.p_queued)
  done

let set_handler t pid h =
  let p = proc t pid in
  p.p_handler <- Some h;
  drain_queued t p

(* ---- Lifecycle -------------------------------------------------------- *)

let terminate t pid =
  let p = proc t pid in
  if p.p_alive then begin
    p.p_alive <- false;
    Stats.incr t.sts Key.terminations;
    (* Requests presented to us and never accepted: requesters feel a
       crash interrupt ("if a process dies before accepting a request,
       the requester feels an interrupt", §4.1). *)
    Hashtbl.iter (fun _ q -> abort_req t q Peer_crashed) p.p_presented;
    Hashtbl.reset p.p_presented;
    (* Our own in-flight requests die quietly with us.  Finishing one
       removes it from [t.reqs], so they are collected first. *)
    let rec finish_all t = function
      | [] -> ()
      | q :: own ->
        finish_req t q;
        finish_all t own
    in
    finish_all t
      (Hashtbl.fold
         (fun _ (q : req) own -> if q.q_src = pid then q :: own else own)
         t.reqs [])
  end

let spawn_process t ?(daemon = false) ~node ~name:label body =
  if node < 0 || node >= nodes t then invalid_arg "soda: bad node";
  Hashtbl.iter
    (fun _ (p : process) ->
      if p.p_node = node && p.p_alive then
        invalid_arg "soda: node already occupied (client processors are not multiprogrammed)")
    t.procs;
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let obj = Printf.sprintf "soda.int%d" pid in
  let p =
    {
      p_id = pid;
      p_node = node;
      p_label = label;
      p_intr_woke = Event.Signal { obj; woke = true };
      p_intr_latched = Event.Signal { obj; woke = false };
      p_intr_seen = Event.Signal_seen { obj };
      p_alive = true;
      p_handler = None;
      p_queued = Queue.create ();
      p_advertised = Hashtbl.create 8;
      p_presented = Hashtbl.create 8;
    }
  in
  Hashtbl.add t.procs pid p;
  ignore
    (Engine.spawn t.eng ~name:label ~daemon (fun () ->
         (try body pid with Process_exit -> ());
         terminate t pid));
  pid

module For_tests = struct
  let outstanding t ~src ~dst = !(pair t src dst)
end
