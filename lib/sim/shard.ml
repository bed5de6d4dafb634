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

type 'msg node = {
  n_id : int;
  n_name : string;
  n_shard : int;
  n_rng : Rng.t;
  (* Inbox entries carry the stamp key holding the sender's clock while
     the message rests in the queue (the kernels' passive-queue idiom). *)
  n_inbox : (int * string * string * 'msg) Queue.t;
  mutable n_waker : ((string * string * 'msg, exn) result -> unit) option;
  mutable n_send_seq : int;
  mutable n_arrivals : int;
}

(* Per-shard window buffer of emitted events, appended by the shard's
   engine consumer (on the shard's own domain), drained by the
   coordinator at the barrier (after the pool round's join — the mutex
   hand-off orders the accesses). *)
type evbuf = { mutable eb_arr : Event.t array; mutable eb_len : int }

let evbuf_push b ev =
  if b.eb_len = Array.length b.eb_arr then begin
    let narr =
      Array.make (if b.eb_len = 0 then 256 else 2 * b.eb_len) Event.placeholder
    in
    Array.blit b.eb_arr 0 narr 0 b.eb_len;
    b.eb_arr <- narr
  end;
  b.eb_arr.(b.eb_len) <- ev;
  b.eb_len <- b.eb_len + 1

type 'msg t = {
  k : int;
  look : Time.t;
  policy : Engine.policy;
  sink : Engine.t;
  engines : Engine.t array;
  buffers : evbuf array;
  outboxes : 'msg pending list ref array;
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
  pool_ext : Pool.Persistent.t option;
  mutable windows : int;
  mutable xshard : int;
  mutable ran : bool;
}

type 'msg ctx = { c_t : 'msg t; c_node : 'msg node; c_eng : Engine.t }

let create ?(shards = 1) ?(seed = 42) ?(policy = Engine.Fifo) ?log_capacity
    ?pool ~lookahead () =
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
  let buffers =
    Array.init shards (fun _ -> { eb_arr = [||]; eb_len = 0 })
  in
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
    outboxes = Array.init shards (fun _ -> ref []);
    stats = Array.init shards (fun _ -> Stats.create ());
    pending = Heap.create ();
    tie = 0;
    coord_rng = Rng.create coord_seed;
    node_rngs = Rng.create seed;
    nodes = [];
    n_count = 0;
    node_arr = [||];
    pool_ext = pool;
    windows = 0;
    xshard = 0;
    ran = false;
  }

let shards t = t.k
let lookahead t = t.look
let windows t = t.windows
let cross_shard_messages t = t.xshard

let add_node t ?(daemon = false) ?name body =
  if t.ran then invalid_arg "Shard.add_node: the simulation already ran";
  let id = t.n_count in
  t.n_count <- id + 1;
  let name = match name with Some n -> n | None -> Label.int "node" id in
  let shard = id mod t.k in
  let node =
    {
      n_id = id;
      n_name = name;
      n_shard = shard;
      n_rng = Rng.derive t.node_rngs id;
      n_inbox = Queue.create ();
      n_waker = None;
      n_send_seq = 0;
      n_arrivals = 0;
    }
  in
  t.nodes <- node :: t.nodes;
  let eng = t.engines.(shard) in
  let ctx = { c_t = t; c_node = node; c_eng = eng } in
  ignore (Engine.spawn_stackless eng ~fid:id ~name ~daemon (fun () -> body ctx));
  id

(* ---- node operations -------------------------------------------------- *)

let self ctx = ctx.c_node.n_id
let home ctx = ctx.c_node.n_shard
let node_name ctx = ctx.c_node.n_name
let now ctx = Engine.now ctx.c_eng
let rng ctx = ctx.c_node.n_rng
let note ctx msg = Engine.emit ctx.c_eng (Event.Note msg)
let sleep ctx d k = Engine.sleep_then ctx.c_eng d k

let incr ctx key by = Stats.incr ~by ctx.c_t.stats.(ctx.c_node.n_shard) key

let send ctx ~dst ?latency ?(op = "msg") msg =
  let t = ctx.c_t in
  let lat = match latency with Some l -> l | None -> t.look in
  if Time.(lat < t.look) then
    invalid_arg "Shard.send: latency below the lookahead";
  if dst < 0 || dst >= t.n_count then invalid_arg "Shard.send: unknown node";
  let src = ctx.c_node in
  let obj = Label.pair "n" src.n_id "->n" dst in
  Engine.emit ctx.c_eng (Event.Send { obj; op; unordered = false });
  (* The clock is captured after the Send tick, so the Receive on the
     other shard inherits an edge that covers the send itself. *)
  let clk = Engine.clock ctx.c_eng in
  let deliver = Time.add (Engine.now ctx.c_eng) lat in
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
  let ob = t.outboxes.(src.n_shard) in
  ob := pd :: !ob

let recv ctx k =
  let node = ctx.c_node in
  if Queue.is_empty node.n_inbox then
    (* The waker path needs no stamp: [Engine.inject] restores the
       sender's clock as ambient, the waker enqueue captures it, and the
       resume merges it into the node's. *)
    Engine.suspend_then ctx.c_eng ~reason:"recv"
      (fun waker -> node.n_waker <- Some waker)
      (fun (obj, op, msg) ->
        Engine.emit ctx.c_eng (Event.Receive { obj; op });
        k msg)
  else begin
    let key, obj, op, msg = Queue.pop node.n_inbox in
    Engine.adopt ctx.c_eng key;
    Engine.emit ctx.c_eng (Event.Receive { obj; op });
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
   policy stays shard-count-invariant. *)
let exchange t =
  let msgs = ref [] in
  Array.iter
    (fun ob ->
      List.iter (fun pd -> msgs := pd :: !msgs) !ob;
      ob := [])
    t.outboxes;
  let msgs = List.sort cmp_pending !msgs in
  List.iter
    (fun pd ->
      if t.node_arr.(pd.pd_src).n_shard <> t.node_arr.(pd.pd_dst).n_shard then
        t.xshard <- t.xshard + 1;
      let pd, key =
        match t.policy with
        | Engine.Fifo ->
            let k = t.tie in
            t.tie <- t.tie + 1;
            (pd, k)
        | Engine.Random_order _ ->
            (* A random heap key permutes simultaneous deliveries, the
               cross-shard analogue of the engine's same-time shuffle. *)
            (pd, Rng.int t.coord_rng max_int)
        | Engine.Delay_jitter { bound; _ } ->
            let d = Rng.int t.coord_rng (Time.to_ns bound + 1) in
            let k = t.tie in
            t.tie <- t.tie + 1;
            (* Jitter only ever delays, so the conservative bound
               (deliver strictly after the send window) is preserved. *)
            ({ pd with pd_deliver = Time.add pd.pd_deliver (Time.ns d) }, k)
      in
      Heap.add t.pending ~time:(Time.to_ns pd.pd_deliver) ~seq:key pd)
    msgs

(* Injects every pending message due in the window (<= limit) into its
   destination engine, in heap order — which is canonical, because
   insertions were. *)
let inject_upto t limit =
  let limit_ns = Time.to_ns limit in
  let continue = ref true in
  while !continue do
    match Heap.peek_time t.pending with
    | Some ts when ts <= limit_ns -> (
        match Heap.pop t.pending with
        | None -> continue := false
        | Some (time_ns, _key, pd) ->
            let node = t.node_arr.(pd.pd_dst) in
            let eng = t.engines.(node.n_shard) in
            Engine.inject eng ~time:(Time.ns time_ns) ~clk:pd.pd_clk
              (fun () ->
                node.n_arrivals <- node.n_arrivals + 1;
                match node.n_waker with
                | Some w ->
                    node.n_waker <- None;
                    w (Ok (pd.pd_obj, pd.pd_op, pd.pd_msg))
                | None ->
                    (* Parked in the inbox: stamp the sender's clock so
                       a later recv adopts the happens-before edge, the
                       kernels' passive-queue idiom. *)
                    let key =
                      Engine.stamp_key ~layer:0 ~obj:node.n_id
                        ~seq:node.n_arrivals
                    in
                    Engine.stamp eng key;
                    Queue.add (key, pd.pd_obj, pd.pd_op, pd.pd_msg)
                      node.n_inbox))
    | _ -> continue := false
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
   would have produced, fed to the sink's hash, consumers and log. *)
let merge_window t =
  let total = Array.fold_left (fun a b -> a + b.eb_len) 0 t.buffers in
  if total > 0 then begin
    let all = Array.make total Event.placeholder in
    let off = ref 0 in
    Array.iter
      (fun b ->
        Array.blit b.eb_arr 0 all !off b.eb_len;
        off := !off + b.eb_len;
        (* The buffer is reused next window; clearing the drained prefix
           keeps it from holding this window's events (and their
           clocks) past the merge. *)
        Array.fill b.eb_arr 0 b.eb_len Event.placeholder;
        b.eb_len <- 0)
      t.buffers;
    Array.stable_sort cmp_event all;
    Array.iter (Engine.absorb t.sink) all
  end

let drain_windows t pool =
  let l_ns = Time.to_ns t.look in
  let continue = ref true in
  while !continue do
    let tnext =
      Array.fold_left
        (fun acc eng ->
          match (Engine.next_task_time eng, acc) with
          | None, a -> a
          | Some ts, None -> Some (Time.to_ns ts)
          | Some ts, Some a -> Some (min (Time.to_ns ts) a))
        (Heap.peek_time t.pending) t.engines
    in
    match tnext with
    | None -> continue := false
    | Some tn ->
        (* Jump straight to the window holding the next task: align tn
           up to a lookahead multiple.  Safe even across a long idle gap
           because no task exists before tn and [limit - tn < L], so a
           send inside the window still delivers strictly after it. *)
        let limit = Time.ns ((tn + l_ns - 1) / l_ns * l_ns) in
        inject_upto t limit;
        (match pool with
        | None -> Array.iter (fun eng -> Engine.run_until eng limit) t.engines
        | Some p ->
            let workers = Pool.Persistent.workers p in
            Pool.Persistent.round p (fun slot ->
                (* Shard i always drains on slot [i mod workers], so its
                   effect continuations resume on the domain that
                   captured them. *)
                let i = ref slot in
                while !i < t.k do
                  Engine.run_until t.engines.(!i) limit;
                  i := !i + workers
                done));
        t.windows <- t.windows + 1;
        merge_window t;
        exchange t
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
  let private_pool, pool =
    if t.k = 1 then (None, None)
    else
      match t.pool_ext with
      | Some p -> (None, Some p)
      | None ->
          let p =
            Pool.Persistent.create ~workers:(min t.k (Pool.default_jobs ())) ()
          in
          (Some p, Some p)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.Persistent.shutdown private_pool)
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

let shard_hashes t = Array.map Engine.events_hash t.engines

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
