open Sim
open Types

exception Process_exit

type mem_object = {
  o_name : obj_name;
  o_home : node;
  o_data : bytes;
  mutable o_refcount : int;
  mutable o_deleting : bool;
}

type event_block = {
  ev_name : event_name;
  ev_owner : pid;
  mutable ev_state : [ `Clear | `Posted of int ];
  mutable ev_waiter : int Engine.handle option;
}

(* The queue's event kinds never change, so they are built with it:
   an enqueue or dequeue emits one of them and allocates none. *)
type dual_queue = {
  dq_name : dualq_name;
  dq_obj : string;  (* event-object name, "chry.dq<name>" *)
  dq_capacity : int;
  dq_data : int Queue.t;
  dq_waiting : event_name Queue.t;  (* event names of blocked consumers *)
  dq_woke : Event.kind;
  dq_latched : Event.kind;
  dq_seen : Event.kind;
  dq_wait : Event.kind;
}

type process = {
  c_id : pid;
  c_node : node;
  c_label : string;
  mutable c_alive : bool;
  c_mapped : (obj_name, int) Hashtbl.t;  (* name -> map count *)
  mutable c_cleanups : (unit -> unit) list;
}

type t = {
  eng : Engine.t;
  cst : Costs.t;
  sts : Stats.t;
  switch : Netmodel.Butterfly_switch.t;
  objects : (obj_name, mem_object) Hashtbl.t;
  events : (event_name, event_block) Hashtbl.t;
  dualqs : (dualq_name, dual_queue) Hashtbl.t;
  procs : (pid, process) Hashtbl.t;
  inj : Faults.Injector.t option;
  mutable next_id : int;
}

let create eng ?(costs = Costs.default) ?stats ?faults ~processors () =
  let sts = match stats with Some s -> s | None -> Stats.create () in
  {
    eng;
    cst = costs;
    sts;
    inj = faults;
    switch = Netmodel.Butterfly_switch.create eng ~stats:sts ~processors ();
    objects = Hashtbl.create 64;
    events = Hashtbl.create 64;
    dualqs = Hashtbl.create 32;
    procs = Hashtbl.create 16;
    next_id = 0;
  }

let engine t = t.eng
let stats t = t.sts
let costs t = t.cst
let processors t = Netmodel.Butterfly_switch.processors t.switch

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Lookups use [Hashtbl.find]: [find_opt] would allocate its option on
   every kernel call. *)
let proc t pid =
  match Hashtbl.find t.procs pid with
  | p -> p
  | exception Not_found -> invalid_arg (Printf.sprintf "chrysalis: unknown pid %d" pid)

let process_alive t pid = (proc t pid).c_alive
let process_node t pid = (proc t pid).c_node

module Key = struct
  let atomic16 = Stats.key "chrysalis.atomic16"
  let dq_dequeues = Stats.key "chrysalis.dq_dequeues"
  let dq_enqueues = Stats.key "chrysalis.dq_enqueues"
  let dq_hints_shed = Stats.key "chrysalis.dq_hints_shed"
  let event_posts = Stats.key "chrysalis.event_posts"
  let kernel_ops = Stats.key "chrysalis.kernel_ops"
  let maps = Stats.key "chrysalis.maps"
  let objects_made = Stats.key "chrysalis.objects_made"
  let objects_reclaimed = Stats.key "chrysalis.objects_reclaimed"
  let remote_bytes = Stats.key "chrysalis.remote_bytes"
  let terminations = Stats.key "chrysalis.terminations"
end

let charge t cost =
  Stats.incr t.sts Key.kernel_ops;
  Engine.sleep t.eng cost

(* ---- Memory objects --------------------------------------------------- *)

let obj t name =
  match Hashtbl.find t.objects name with
  | o -> o
  | exception Not_found -> raise (Memory_fault Bad_name)

let map_count (p : process) name =
  match Hashtbl.find p.c_mapped name with n -> n | exception Not_found -> 0

let make_object t pid ~size =
  charge t t.cst.Costs.make_object;
  let p = proc t pid in
  let name = fresh t in
  let o =
    {
      o_name = name;
      o_home = p.c_node;
      o_data = Bytes.make size '\000';
      o_refcount = 1;
      o_deleting = false;
    }
  in
  Hashtbl.add t.objects name o;
  Hashtbl.replace p.c_mapped name 1;
  Stats.incr t.sts Key.objects_made;
  name

let map_object t pid name =
  charge t t.cst.Costs.map_object;
  let p = proc t pid in
  let o = obj t name in
  o.o_refcount <- o.o_refcount + 1;
  Hashtbl.replace p.c_mapped name (map_count p name + 1);
  Stats.incr t.sts Key.maps

let reclaim t (o : mem_object) =
  if o.o_deleting && o.o_refcount <= 0 then begin
    Hashtbl.remove t.objects o.o_name;
    Stats.incr t.sts Key.objects_reclaimed
  end

let unmap_no_charge t p name =
  match map_count p name with
  | 0 -> raise (Memory_fault Unmapped_object)
  | count ->
    if count = 1 then Hashtbl.remove p.c_mapped name
    else Hashtbl.replace p.c_mapped name (count - 1);
    (match Hashtbl.find t.objects name with
    | o ->
      o.o_refcount <- o.o_refcount - 1;
      reclaim t o
    | exception Not_found -> ())

let unmap_object t pid name =
  charge t t.cst.Costs.unmap_object;
  unmap_no_charge t (proc t pid) name

let mark_for_deletion t pid name =
  let _p = proc t pid in
  let o = obj t name in
  o.o_deleting <- true;
  reclaim t o

(* The object [p] may touch at [off, off + len). *)
let check_access t (p : process) name ~off ~len =
  if map_count p name <= 0 then raise (Memory_fault Unmapped_object);
  let o = obj t name in
  if off < 0 || len < 0 || off + len > Bytes.length o.o_data then
    raise (Memory_fault Bounds);
  o

let copy_cost t (p : process) (o : mem_object) ~bytes =
  Netmodel.Butterfly_switch.access_time t.switch ~src:p.c_node ~dst:o.o_home
    ~bytes

let write_bytes t pid name ~off data =
  let len = Bytes.length data in
  let p = proc t pid in
  let o = check_access t p name ~off ~len in
  charge t (copy_cost t p o ~bytes:len);
  if p.c_node <> o.o_home then
    Stats.incr t.sts Key.remote_bytes ~by:len;
  Bytes.blit data 0 o.o_data off len

let read_bytes t pid name ~off ~len =
  let p = proc t pid in
  let o = check_access t p name ~off ~len in
  charge t (copy_cost t p o ~bytes:len);
  if p.c_node <> o.o_home then
    Stats.incr t.sts Key.remote_bytes ~by:len;
  Bytes.sub o.o_data off len

let get16 o off = Char.code (Bytes.get o.o_data off) lor (Char.code (Bytes.get o.o_data (off + 1)) lsl 8)

let set16 o off v =
  Bytes.set o.o_data off (Char.chr (v land 0xff));
  Bytes.set o.o_data (off + 1) (Char.chr ((v lsr 8) land 0xff))

(* [op] is a closed operator and [v] its operand, so no closure is
   built per call. *)
let atomic_rmw16 t pid name ~off op v =
  let o = check_access t (proc t pid) name ~off ~len:2 in
  charge t t.cst.Costs.atomic16;
  Stats.incr t.sts Key.atomic16;
  let old = get16 o off in
  set16 o off (op old v land 0xffff);
  old

let atomic_or16 t pid name ~off v = atomic_rmw16 t pid name ~off ( lor ) v
let atomic_and16 t pid name ~off v = atomic_rmw16 t pid name ~off ( land ) v

let read16 t pid name ~off =
  let o = check_access t (proc t pid) name ~off ~len:2 in
  charge t t.cst.Costs.atomic16;
  get16 o off

(* A 32-bit write happens as two 16-bit halves with a real (simulated)
   window between them: a concurrent reader can observe a torn value,
   exactly the hazard §5.2 describes for dual-queue names. *)
let write32_nonatomic t pid name ~off v =
  let p = proc t pid in
  let o = check_access t p name ~off ~len:4 in
  charge t t.cst.Costs.word_write;
  set16 o off (v land 0xffff);
  Engine.sleep t.eng t.cst.Costs.word_write;
  (* Re-fetch: the object may have been written concurrently. *)
  let o = check_access t p name ~off ~len:4 in
  set16 o (off + 2) ((v lsr 16) land 0xffff)

let read32 t pid name ~off =
  let o = check_access t (proc t pid) name ~off ~len:4 in
  charge t t.cst.Costs.atomic16;
  get16 o off lor (get16 o (off + 2) lsl 16)

(* ---- Event blocks ------------------------------------------------------ *)

let event t name =
  match Hashtbl.find t.events name with
  | ev -> ev
  | exception Not_found -> raise (Memory_fault Bad_name)

let make_event t pid =
  charge t t.cst.Costs.event_make;
  let name = fresh t in
  Hashtbl.add t.events name
    { ev_name = name; ev_owner = pid; ev_state = `Clear; ev_waiter = None };
  name

(* The uncharged core: waking a waiter is scheduler-safe, so injected
   faults can re-run it from a timer. *)
let event_post_now t name datum =
  Stats.incr t.sts Key.event_posts;
  let ev = event t name in
  match ev.ev_waiter with
  | Some h ->
    ev.ev_waiter <- None;
    Engine.resume t.eng h datum
  | None -> ev.ev_state <- `Posted datum

let event_post_charged t name datum =
  charge t t.cst.Costs.event_post;
  event_post_now t name datum

let event_post t _pid name datum = event_post_charged t name datum

let event_wait_block = Engine.reason "chrysalis.event_wait"

let event_wait t pid name =
  charge t t.cst.Costs.event_wait;
  let ev = event t name in
  if ev.ev_owner <> pid then raise (Memory_fault Not_owner);
  match ev.ev_state with
  | `Posted datum ->
    ev.ev_state <- `Clear;
    datum
  | `Clear ->
    if ev.ev_waiter <> None then raise (Memory_fault Not_owner);
    let h = Engine.prepare t.eng in
    ev.ev_waiter <- Some h;
    Engine.await_prepared t.eng ~reason:event_wait_block h

(* ---- Dual queues ------------------------------------------------------- *)

let dualq t name =
  match Hashtbl.find t.dualqs name with
  | q -> q
  | exception Not_found -> raise (Memory_fault Bad_name)

let dq_obj qname = Printf.sprintf "chry.dq%d" qname

let make_dualq t _pid ~capacity =
  charge t t.cst.Costs.dq_make;
  let name = fresh t in
  let obj = dq_obj name in
  Hashtbl.add t.dualqs name
    {
      dq_name = name;
      dq_obj = obj;
      dq_capacity = capacity;
      dq_data = Queue.create ();
      dq_waiting = Queue.create ();
      dq_woke = Event.Signal { obj; woke = true };
      dq_latched = Event.Signal { obj; woke = false };
      dq_seen = Event.Signal_seen { obj };
      dq_wait = Event.Wait { obj };
    };
  name

(* [post] is how a waiting consumer gets woken: the charged
   [event_post_charged] on the synchronous path, the uncharged
   [event_post_now] when a fault replays the enqueue from a timer
   (scheduler context cannot sleep).  Both are closed functions, so
   passing one builds nothing. *)
let dq_enqueue_via t qname datum ~post =
  Stats.incr t.sts Key.dq_enqueues;
  let q = dualq t qname in
  if not (Queue.is_empty q.dq_waiting) then begin
    let ev_name = Queue.take q.dq_waiting in
    Engine.emit t.eng q.dq_woke;
    (* The queue holds event names: enqueue actually posts. *)
    post t ev_name datum
  end
  else if Queue.length q.dq_data >= q.dq_capacity then
    raise (Memory_fault Bounds)
  else begin
    (* No consumer was parked: the datum sits in the queue — a hint
       that is either noticed by a later dequeue (Signal_seen) or
       lost. *)
    Engine.emit t.eng q.dq_latched;
    Queue.add datum q.dq_data
  end

let dq_enqueue t _pid qname datum =
  charge t t.cst.Costs.dq_op;
  match t.inj with
  | None -> dq_enqueue_via t qname datum ~post:event_post_charged
  | Some _ ->
    (* Dual-queue entries are hints: an injected fault may lose, delay
       or duplicate one, and the flag words (the truth, §4.3) cover the
       gap.  A deferred enqueue that finds the queue full sheds the hint
       rather than faulting in scheduler context — same recovery. *)
    let obj =
      (* A stale name still draws its fault verdict, under the same
         name a live queue would carry. *)
      match Hashtbl.find t.dualqs qname with
      | q -> q.dq_obj
      | exception Not_found -> dq_obj qname
    in
    let shed_full () =
      try dq_enqueue_via t qname datum ~post:event_post_now
      with Memory_fault Bounds ->
        Stats.incr t.sts Key.dq_hints_shed;
        Engine.emit t.eng (Event.Drop { obj; op = "enqueue" })
    in
    Faults.Injector.wrap_delivery t.inj ~obj ~op:"enqueue" shed_full ()

let dq_dequeue t _pid qname ~ev =
  charge t t.cst.Costs.dq_op;
  Stats.incr t.sts Key.dq_dequeues;
  let q = dualq t qname in
  if not (Queue.is_empty q.dq_data) then begin
    Engine.emit t.eng q.dq_seen;
    Some (Queue.take q.dq_data)
  end
  else begin
    (* Committing to wait: the check-then-block point of the lost-signal
       window §5.2 worries about. *)
    Engine.emit t.eng q.dq_wait;
    Queue.add ev q.dq_waiting;
    None
  end

(* ---- Processes --------------------------------------------------------- *)

let at_termination t pid f =
  let p = proc t pid in
  p.c_cleanups <- f :: p.c_cleanups

let terminate t pid =
  let p = proc t pid in
  if p.c_alive then begin
    p.c_alive <- false;
    Stats.incr t.sts Key.terminations;
    let cleanups = p.c_cleanups in
    p.c_cleanups <- [];
    List.iter (fun f -> try f () with _ -> ()) cleanups;
    (* Unmap everything still mapped, releasing reference counts. *)
    let still = Hashtbl.fold (fun name count acc -> (name, count) :: acc) p.c_mapped [] in
    List.iter
      (fun (name, count) ->
        for _ = 1 to count do
          try unmap_no_charge t p name with Memory_fault _ -> ()
        done)
      still;
    Hashtbl.reset p.c_mapped
  end

let spawn_process t ?(daemon = false) ~node ~name:label body =
  if node < 0 || node >= processors t then invalid_arg "chrysalis: bad node";
  let pid = fresh t in
  let p =
    {
      c_id = pid;
      c_node = node;
      c_label = label;
      c_alive = true;
      c_mapped = Hashtbl.create 16;
      c_cleanups = [];
    }
  in
  Hashtbl.add t.procs pid p;
  ignore
    (Engine.spawn t.eng ~name:label ~daemon (fun () ->
         (* Chrysalis lets processes catch faults and clean up before
            dying, so cleanup runs whether the body returns or raises. *)
         (try body pid with
         | Process_exit -> ()
         | Memory_fault _ -> ());
         terminate t pid));
  pid

module For_tests = struct
  let refcount t name = (obj t name).o_refcount
  let object_exists t name = Hashtbl.mem t.objects name
  let mapped t pid name = map_count (proc t pid) name > 0
  let dq_length t qname = Queue.length (dualq t qname).dq_data
end
