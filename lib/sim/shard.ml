(* Conservative-window PDES coordinator: K per-shard engines, window
   barriers at multiples of the lookahead, canonical cross-shard message
   exchange and a sink engine absorbing the canonical merged stream.

   Everything observable is keyed by global node id, never by shard, so
   the merged run is byte-identical at any shard count; the argument
   for each mechanism lives next to it below, and the overview in
   shard.mli / DESIGN.md §15. *)

module Pool = Parallel.Pool

(* A message captured at its send site, canonically ordered at the
   barrier by (deliver_time, dst, src, per-sender seq) — a total order
   that depends only on node behaviour. *)
type 'msg pending = {
  pd_deliver : Time.t;
  pd_dst : int;
  pd_src : int;
  pd_seq : int;  (* per-sender send counter *)
  pd_obj : string;
  pd_op : string;
  pd_clk : Vclock.t;  (* sender's clock at the send *)
  pd_msg : 'msg;
}

(* Fill value for vacated outbox and scratch slots; never read, so its
   message type does not matter (the [Heap] idiom). *)
let vacant : unit pending =
  {
    pd_deliver = Time.zero;
    pd_dst = 0;
    pd_src = 0;
    pd_seq = 0;
    pd_obj = "";
    pd_op = "";
    pd_clk = Vclock.empty;
    pd_msg = ();
  }

let vacant () : 'msg pending = Obj.magic vacant

(* A growable array, reused window after window: [len] live slots, and
   every slot past them cleared to the fill value, so nothing a window
   left behind stays reachable. *)
type 'a buf = { mutable arr : 'a array; mutable len : int }

let buf () = { arr = [||]; len = 0 }

let reserve fill b n =
  if n > Array.length b.arr then begin
    let narr = Array.make (max n (max 256 (2 * Array.length b.arr))) fill in
    Array.blit b.arr 0 narr 0 b.len;
    b.arr <- narr
  end

let push fill b x =
  reserve fill b (b.len + 1);
  b.arr.(b.len) <- x;
  b.len <- b.len + 1

(* Per-shard window buffer of emitted events, appended by the shard's
   engine consumer (on the shard's own domain), which builds the one
   record each event gets, and drained by the coordinator at the
   barrier (after the pool round's join — the mutex hand-off orders the
   accesses).  Outboxes are the same, for sends. *)
let evbuf_push b ev_time ev_fiber ev_clock ev_kind =
  push Event.placeholder b { Event.ev_time; ev_fiber; ev_clock; ev_kind }

(* Stable sort of [a.(0 .. n-1)] by [cmp], allocating nothing.  Events
   and sends are appended in time order, so a barrier's buffer is often
   in order already (half of farm-open's) and only out of order among
   equal times: one pass checks that first and writes nothing.
   Otherwise: a bottom-up merge sort through the scratch array [tmp]
   (at least [n] long) over runs of [sort_run] sorted by insertion, a
   merge whose halves are already in order being a copy; [tmp]'s slots
   are then cleared to [fill]. *)
let sort_run = 16

let rec sorted cmp a i n = i >= n || (cmp a.(i - 1) a.(i) <= 0 && sorted cmp a (i + 1) n)

let insertion_sort cmp a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    if cmp a.(i - 1) x > 0 then begin
      let j = ref (i - 1) in
      while !j >= lo && cmp a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    end
  done

let merge cmp src dst lo mid hi =
  if mid >= hi || cmp src.(mid - 1) src.(mid) <= 0 then
    Array.blit src lo dst lo (hi - lo)
  else begin
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && cmp src.(!i) src.(!j) <= 0) then begin
        dst.(k) <- src.(!i);
        incr i
      end
      else begin
        dst.(k) <- src.(!j);
        incr j
      end
    done
  end

let sort_prefix cmp ~fill a tmp n =
  if not (sorted cmp a 1 n) then begin
    let lo = ref 0 in
    while !lo < n do
      insertion_sort cmp a !lo (min n (!lo + sort_run));
      lo := !lo + sort_run
    done;
    let src = ref a and dst = ref tmp and width = ref sort_run in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        merge cmp !src !dst !lo mid (min n (mid + !width));
        lo := mid + !width
      done;
      let s = !src in
      src := !dst;
      dst := s;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n;
    Array.fill tmp 0 n fill
  end

(* The one buffer a barrier sorts: with one shard, that shard's own;
   otherwise every shard's, moved into [into] in shard order. *)
let gather fill bufs into =
  if Array.length bufs = 1 then bufs.(0)
  else begin
    for i = 0 to Array.length bufs - 1 do
      let b = bufs.(i) in
      reserve fill into (into.len + b.len);
      Array.blit b.arr 0 into.arr into.len b.len;
      into.len <- into.len + b.len;
      Array.fill b.arr 0 b.len fill;
      b.len <- 0
    done;
    into
  end

type 'msg t = {
  k : int;
  look : Time.t;
  policy : Engine.policy;
  sink : Engine.t;
  engines : Engine.t array;
  buffers : Event.t buf array;
  outboxes : 'msg pending buf array;
  (* Barrier scratch, reused every window: the merged events and the
     exchanged messages, each with its sort buffer. *)
  merged : Event.t buf;
  merged_tmp : Event.t buf;
  sends : 'msg pending buf;
  sends_tmp : 'msg pending buf;
  stats : Stats.t array;
  (* Exchanged but not yet injected; keyed by (deliver ns, tie), where
     the tie-break is a coordinator-assigned counter (Fifo/jitter) or a
     coordinator-stream draw (random order).  Insertions happen in
     canonical order, so heap behaviour is shard-count-invariant. *)
  pending : 'msg pending Heap.t;
  mutable tie : int;
  coord_rng : Rng.t;
  node_rngs : Rng.t;  (* derive-only base: never advanced *)
  mutable nodes : 'msg node list;  (* reversed; arrayed, then dropped, at run *)
  mutable n_count : int;
  mutable node_arr : 'msg node array;
  mutable windows : int;
  mutable ran : bool;
}

(* A node is also its own program's handle ([ctx]): one record per
   node. *)
and 'msg node = {
  n_t : 'msg t;
  n_eng : Engine.t;  (* its shard's engine *)
  n_id : int;
  n_name : string;
  n_shard : int;
  n_rng : Rng.t;
  (* Inbox entries carry the stamp key holding the sender's clock while
     the message rests in the queue (the kernels' passive-queue idiom). *)
  n_inbox : (int * string * string * 'msg) Queue.t;
  (* A [recv] on an empty inbox parks the node's fiber, leaves its step
     in [n_k] and sets [n_parked].  The delivery that finds [n_parked]
     clears it, leaves the message in [n_pd] and wakes the fiber with
     [resume_recv], which emits the Receive and runs the step.  Nothing
     is allocated per parked receive but the wake's task. *)
  mutable n_fiber : Engine.fiber option;  (* set once, at [add_node] *)
  mutable n_parked : bool;
  mutable n_k : 'msg -> unit;
  mutable n_pd : 'msg pending;
  mutable n_send_seq : int;
  mutable n_arrivals : int;
}

type 'msg ctx = 'msg node

let create ?(shards = 1) ?(seed = 42) ?(policy = Engine.Fifo) ?log_capacity
    ~lookahead () =
  if shards < 1 then invalid_arg "Shard.create: shards must be at least 1";
  if Time.is_zero lookahead then
    invalid_arg "Shard.create: lookahead must be positive";
  (* The sink is created first, outside [without_observer], so it — and
     only it — adopts the ambient observer: streaming analyses see the
     canonical merged stream exactly once, fed at the barriers from
     coordinator context. *)
  let sink = Engine.create ~seed ?log_capacity () in
  let root = Rng.create seed in
  let engines =
    Engine.without_observer (fun () ->
        Array.init shards (fun _ ->
            (* Sub-engines run Fifo regardless of the policy (schedule
               exploration is applied at the barriers) and retain
               nothing (the sink holds the canonical log). *)
            let r = Rng.split root in
            Engine.create
              ~seed:(Rng.int r max_int)
              ~policy:Engine.Fifo ~log_capacity:0 ~on_crash:`Record ()))
  in
  let buffers = Array.init shards (fun _ -> buf ()) in
  Array.iteri
    (fun i eng -> Engine.add_consumer eng (evbuf_push buffers.(i)))
    engines;
  let coord_seed =
    match policy with
    | Engine.Fifo -> 0
    | Engine.Random_order s -> s
    | Engine.Delay_jitter { jitter_seed; _ } -> jitter_seed
  in
  {
    k = shards;
    look = lookahead;
    policy;
    sink;
    engines;
    buffers;
    outboxes = Array.init shards (fun _ -> buf ());
    merged = buf ();
    merged_tmp = buf ();
    sends = buf ();
    sends_tmp = buf ();
    stats = Array.init shards (fun _ -> Stats.create ());
    pending = Heap.create ();
    tie = 0;
    coord_rng = Rng.create coord_seed;
    node_rngs = Rng.create seed;
    nodes = [];
    n_count = 0;
    node_arr = [||];
    windows = 0;
    ran = false;
  }

let shards t = t.k
let lookahead t = t.look
let windows t = t.windows

let not_parked _ = ()

(* The step a delivery wakes a parked [recv] with: the message's
   Receive, then the step [recv] was given. *)
let resume_recv node =
  let pd = node.n_pd and k = node.n_k in
  node.n_pd <- vacant ();
  node.n_k <- not_parked;
  Engine.emit node.n_eng (Event.Receive { obj = pd.pd_obj; op = pd.pd_op });
  k pd.pd_msg

let add_node t ?(daemon = false) ?name body =
  if t.ran then invalid_arg "Shard.add_node: the simulation already ran";
  let id = t.n_count in
  t.n_count <- id + 1;
  let name = match name with Some n -> n | None -> Label.int "node" id in
  let shard = id mod t.k in
  let eng = t.engines.(shard) in
  let node =
    {
      n_t = t;
      n_eng = eng;
      n_id = id;
      n_name = name;
      n_shard = shard;
      n_rng = Rng.derive t.node_rngs id;
      n_inbox = Queue.create ();
      n_fiber = None;
      n_parked = false;
      n_k = not_parked;
      n_pd = vacant ();
      n_send_seq = 0;
      n_arrivals = 0;
    }
  in
  t.nodes <- node :: t.nodes;
  node.n_fiber <-
    Some (Engine.spawn_stackless eng ~fid:id ~name ~daemon (fun () -> body node));
  id

(* ---- node operations -------------------------------------------------- *)

let self node = node.n_id
let home node = node.n_shard
let now node = Engine.now node.n_eng
let rng node = node.n_rng
let note node msg = Engine.emit node.n_eng (Event.Note msg)
let sleep node d k = Engine.sleep_then node.n_eng d k

let incr node key by = Stats.incr ~by node.n_t.stats.(node.n_shard) key

let send src ~dst ~latency:lat ?(op = "msg") ?(final = false) msg =
  let t = src.n_t in
  if Time.(lat < t.look) then
    invalid_arg "Shard.send: latency below the lookahead";
  if dst < 0 || dst >= t.n_count then invalid_arg "Shard.send: unknown node";
  let obj = Label.pair "n" src.n_id "->n" dst in
  Engine.emit src.n_eng
    (Event.Send { obj; op; mode = (if final then Event.Final else Event.Ordered) });
  (* The clock is captured after the Send tick, so the Receive on the
     other shard inherits an edge that covers the send itself. *)
  let clk = Engine.clock src.n_eng in
  let deliver = Time.add (Engine.now src.n_eng) lat in
  let seq = src.n_send_seq in
  src.n_send_seq <- seq + 1;
  let pd =
    {
      pd_deliver = deliver;
      pd_dst = dst;
      pd_src = src.n_id;
      pd_seq = seq;
      pd_obj = obj;
      pd_op = op;
      pd_clk = clk;
      pd_msg = msg;
    }
  in
  push (vacant ()) t.outboxes.(src.n_shard) pd

let recv_block = Engine.reason "recv"

let recv node k =
  if Queue.is_empty node.n_inbox then begin
    (* The parked path needs no stamp: [Engine.inject] restores the
       sender's clock as ambient, the wake's task captures it, and the
       resume merges it into the node's. *)
    ignore (Engine.park node.n_eng ~reason:recv_block);
    node.n_k <- k;
    node.n_parked <- true
  end
  else begin
    let key, obj, op, msg = Queue.pop node.n_inbox in
    Engine.adopt node.n_eng key;
    Engine.emit node.n_eng (Event.Receive { obj; op });
    k msg
  end

(* ---- coordinator: exchange, merge, windows ---------------------------- *)

(* Canonical total order on exchanged messages: depends only on node
   behaviour (times, ids and per-sender counters), never on the
   partition. *)
let cmp_pending a b =
  let c = compare (Time.to_ns a.pd_deliver) (Time.to_ns b.pd_deliver) in
  if c <> 0 then c
  else
    let c = compare a.pd_dst b.pd_dst in
    if c <> 0 then c
    else
      let c = compare a.pd_src b.pd_src in
      if c <> 0 then c else compare a.pd_seq b.pd_seq

(* Drains the outboxes into the pending heap.  Iterating messages in
   canonical order makes the policy's random draws — random tie-break
   keys, jitter delays — a function of that order alone, so every
   policy stays shard-count-invariant.  [cmp_pending] is a total order
   ((src, seq) is unique), so any sort gives that order. *)
let exchange t =
  let xs = gather (vacant ()) t.outboxes t.sends in
  let n = xs.len in
  reserve (vacant ()) t.sends_tmp n;
  sort_prefix cmp_pending ~fill:(vacant ()) xs.arr t.sends_tmp.arr n;
  for i = 0 to n - 1 do
    let pd = xs.arr.(i) in
    xs.arr.(i) <- vacant ();
    match t.policy with
    | Engine.Fifo ->
        let k = t.tie in
        t.tie <- k + 1;
        Heap.add t.pending ~time:(Time.to_ns pd.pd_deliver) ~seq:k pd
    | Engine.Random_order _ ->
        (* A random heap key permutes simultaneous deliveries, the
           cross-shard analogue of the engine's same-time shuffle. *)
        Heap.add t.pending ~time:(Time.to_ns pd.pd_deliver)
          ~seq:(Rng.int t.coord_rng max_int) pd
    | Engine.Delay_jitter { bound; _ } ->
        let d = Rng.int t.coord_rng (Time.to_ns bound + 1) in
        let k = t.tie in
        t.tie <- k + 1;
        (* Jitter only ever delays, so the conservative bound (deliver
           strictly after the send window) is preserved. *)
        let deliver = Time.add pd.pd_deliver (Time.ns d) in
        Heap.add t.pending ~time:(Time.to_ns deliver) ~seq:k
          { pd with pd_deliver = deliver }
  done;
  xs.len <- 0

(* A delivery task: wake the node if it is parked in [recv], or queue
   the message for its next one. *)
let deliver node pd =
  node.n_arrivals <- node.n_arrivals + 1;
  if node.n_parked then begin
    node.n_parked <- false;
    node.n_pd <- pd;
    Engine.wake node.n_eng (Option.get node.n_fiber) resume_recv node
  end
  else begin
    (* Parked in the inbox: stamp the sender's clock so a later recv
       adopts the happens-before edge, the kernels' passive-queue
       idiom. *)
    let key = Engine.stamp_key ~layer:0 ~obj:node.n_id ~seq:node.n_arrivals in
    Engine.stamp node.n_eng key;
    Queue.add (key, pd.pd_obj, pd.pd_op, pd.pd_msg) node.n_inbox
  end

(* Injects every pending message due in the window (<= limit) into its
   destination engine, in heap order — which is canonical, because
   insertions were.  The heap key's time is the message's delivery
   time. *)
let inject_upto t limit =
  let limit_ns = Time.to_ns limit in
  while (not (Heap.is_empty t.pending)) && Heap.min_time t.pending <= limit_ns do
    let pd = Heap.take t.pending in
    let node = t.node_arr.(pd.pd_dst) in
    Engine.inject node.n_eng ~time:pd.pd_deliver ~clk:pd.pd_clk (fun () ->
        deliver node pd)
  done

(* Merge key: the fiber that owns an event.  Same-key events always come
   from the same shard (a fiber lives on one shard), so the stable sort
   over the shard-ordered concatenation never has to break a
   partition-dependent tie. *)
let owner ev =
  match ev.Event.ev_kind with
  | Event.Spawn { fid; _ } | Event.Crash { fid; _ } -> fid
  | _ -> if ev.Event.ev_fiber >= 0 then ev.Event.ev_fiber else -1

let cmp_event a b =
  let c = compare (Time.to_ns a.Event.ev_time) (Time.to_ns b.Event.ev_time) in
  if c <> 0 then c else compare (owner a) (owner b)

(* Stably merges the per-shard window buffers by (time, owner) and
   absorbs them into the sink — the canonical stream a 1-shard run
   would have produced, fed to the sink's hash, consumers and log.
   Stability keeps each owner's events in emission order. *)
let merge_window t =
  let all = gather Event.placeholder t.buffers t.merged in
  let n = all.len in
  reserve Event.placeholder t.merged_tmp n;
  sort_prefix cmp_event ~fill:Event.placeholder all.arr t.merged_tmp.arr n;
  (* The buffers are reused next window; clearing each drained slot
     keeps them from holding this window's events (and their clocks)
     past the merge. *)
  for i = 0 to n - 1 do
    Engine.absorb t.sink all.arr.(i);
    all.arr.(i) <- Event.placeholder
  done;
  all.len <- 0

(* The earliest queued task or pending delivery, or [max_int]. *)
let next_time t =
  let tn =
    ref (if Heap.is_empty t.pending then max_int else Heap.min_time t.pending)
  in
  for i = 0 to t.k - 1 do
    tn := min !tn (Engine.next_task_ns t.engines.(i))
  done;
  !tn

let drain_windows t pool =
  let l_ns = Time.to_ns t.look in
  let tn = ref (next_time t) in
  while !tn < max_int do
    (* Jump straight to the window holding the next task: align tn up
       to a lookahead multiple.  Safe even across a long idle gap
       because no task exists before tn and [limit - tn < L], so a send
       inside the window still delivers strictly after it. *)
    let limit = Time.ns ((!tn + l_ns - 1) / l_ns * l_ns) in
    inject_upto t limit;
    (match pool with
    | None -> Array.iter (fun eng -> Engine.run_until eng limit) t.engines
    | Some p ->
        let workers = Pool.Persistent.workers p in
        Pool.Persistent.round p (fun slot ->
            (* Shard i always drains on slot [i mod workers], so its
               effect continuations resume on the domain that captured
               them. *)
            let i = ref slot in
            while !i < t.k do
              Engine.run_until t.engines.(!i) limit;
              i := !i + workers
            done));
    t.windows <- t.windows + 1;
    merge_window t;
    exchange t;
    tn := next_time t
  done

(* Blocked entries in node-id order, in the engine's own "name (reason)"
   rendering, so a sharded Deadlock message reads like a 1-shard one. *)
let blocked_nodes t =
  let per_engine = Array.map Engine.blocked_fibers t.engines in
  Array.to_list t.node_arr
  |> List.filter_map (fun node ->
         let prefix = node.n_name ^ " (" in
         List.find_opt
           (fun entry -> String.starts_with ~prefix entry)
           per_engine.(node.n_shard))

let run ?(expect_quiescent = false) t =
  if t.ran then invalid_arg "Shard.run: the simulation already ran";
  t.ran <- true;
  t.node_arr <- Array.of_list (List.rev t.nodes);
  t.nodes <- [];
  let pool =
    if t.k = 1 then None
    else
      Some (Pool.Persistent.create ~workers:(min t.k (Pool.default_jobs ())) ())
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.Persistent.shutdown pool)
    (fun () -> drain_windows t pool);
  (* Sub-engines record crashes instead of raising (which slot raises
     first would depend on the partition); re-raise the lowest node id's
     crash — the same one a sequential run surfaces first. *)
  Array.iter
    (fun node ->
      match
        List.find_opt
          (fun (nm, _) -> String.equal nm node.n_name)
          (Engine.crashed t.engines.(node.n_shard))
      with
      | Some (nm, e) -> raise (Engine.Fiber_crash (nm, e))
      | None -> ())
    t.node_arr;
  if expect_quiescent then
    match blocked_nodes t with
    | [] -> ()
    | names -> raise (Engine.Deadlock (String.concat ", " names))

(* ---- results ---------------------------------------------------------- *)

let counters t = Stats.to_list (Stats.sum t.stats)

let merged_view t =
  let base = Engine.view t.sink in
  let views = Array.map Engine.view t.engines in
  let fibers =
    Array.to_list views
    |> List.concat_map (fun v -> v.Engine.v_fibers)
    |> List.sort (fun a b -> compare a.Engine.fi_id b.Engine.fi_id)
  in
  let crash_tbl = Hashtbl.create 8 in
  Array.iter
    (fun v ->
      List.iter
        (fun (n, e) ->
          if not (Hashtbl.mem crash_tbl n) then Hashtbl.add crash_tbl n e)
        v.Engine.v_crashes)
    views;
  let crashes =
    List.filter_map
      (fun fi ->
        if String.equal fi.Engine.fi_state "crashed" then
          Some
            ( fi.Engine.fi_name,
              Option.value ~default:"?"
                (Hashtbl.find_opt crash_tbl fi.Engine.fi_name) )
        else None)
      fibers
  in
  let pending =
    Array.fold_left (fun a v -> a + v.Engine.v_pending) 0 views
  in
  let now =
    Array.fold_left (fun a v -> Time.max a v.Engine.v_now) base.Engine.v_now
      views
  in
  {
    base with
    Engine.v_now = now;
    v_pending = pending;
    v_blocked = blocked_nodes t;
    v_fibers = fibers;
    v_finished =
      Array.fold_left (fun a v -> a + v.Engine.v_finished) 0 views;
    v_crashes = crashes;
  }

module For_tests = struct
  (* Slots of the window buffers that still hold an event record. *)
  let buffered t =
    let held b =
      Array.fold_left (fun n ev -> if ev == Event.placeholder then n else n + 1) 0 b.arr
    in
    Array.fold_left (fun n b -> n + held b) (held t.merged + held t.merged_tmp) t.buffers
end
