(** The paper's latency experiment: a simple remote operation, with and
    without parameter bytes, measured in steady state (§3.3, §4.3,
    §5.3).  An echo server answers [iters] sequential calls carrying a
    string payload that comes back in the reply — "1000 bytes of
    parameters in both directions". *)

open Sim
open Backend_world

type result = {
  r_backend : string;
  r_iters : int;
  r_mean : Time.t;
  r_min : Time.t;
  r_max : Time.t;
  r_counters : (string * int) list;
      (** counter increments during the measured phase *)
}

let mean_ms r = Time.to_ms r.r_mean

(* An echo pair: [server] on node 0 and [client] on node 1, linked by a
   driver fiber that hands the client its end; then the run. *)
let run_pair eng w ~server ~client =
  let link_for_client = Sync.Ivar.create eng in
  let s = Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" server in
  let c =
    Lynx.World.spawn w ~node:1 ~name:"client" (fun p ->
        client p (Sync.Ivar.read link_for_client))
  in
  ignore
    (Engine.spawn eng ~name:"driver" (fun () ->
         let client_end, _ = Lynx.World.link_between w c s in
         Sync.Ivar.fill link_for_client client_end));
  Engine.run eng

(* Every echo runs [warmup] calls before it measures: enough to reach
   the steady state, in which the LYNX link and the kernel's buffers
   already exist. *)
let warmup = 5

let run ?(iters = 30) ?(warmup = warmup) ?(seed = 42) (backend : backend) ~payload () =
  let eng = Engine.create ~seed ~log_capacity:0 () in
  let w = backend.create eng ~nodes:4 in
  let sts = Lynx.World.stats w in
  let series = Stats.Series.create () in
  let counters = ref [] in
  run_pair eng w
    ~server:(fun p ->
      let rec loop () =
        let inc = Lynx.Process.await_request p () in
        inc.Lynx.Process.in_reply inc.Lynx.Process.in_args;
        loop ()
      in
      try loop () with Lynx.Excn.Link_destroyed | Lynx.Excn.Process_terminated -> ())
    ~client:(fun p lnk ->
      let args = [ Lynx.Value.Str (String.make payload 'x') ] in
      for _ = 1 to warmup do
        ignore (Lynx.Process.call p lnk ~op:"echo" args)
      done;
      let before = Stats.snapshot sts in
      for _ = 1 to iters do
        let t0 = Engine.now eng in
        ignore (Lynx.Process.call p lnk ~op:"echo" args);
        Stats.Series.add series (Time.sub (Engine.now eng) t0)
      done;
      counters := Stats.diff ~before ~after:(Stats.snapshot sts));
  (* A message past the backend's capacity can stall the client instead
     of failing it (Charlotte truncates it at the receiver). *)
  if Stats.Series.count series < iters then
    invalid_arg
      (Printf.sprintf "%s: the %d B echo never completed" backend.name payload);
  {
    r_backend = backend.name;
    r_iters = iters;
    r_mean = Stats.Series.mean series;
    r_min = Stats.Series.min series;
    r_max = Stats.Series.max series;
    r_counters = !counters;
  }

(** Aggregate throughput with [coroutines] concurrent callers sharing
    one link: LYNX is stop-and-wait {e per coroutine}, so extra
    coroutines pipeline against the kernel's buffering — one outstanding
    kernel send per end under Charlotte, one slot per kind under
    Chrysalis, up to the pair budget under SODA.  Returns completed
    calls per simulated second.  (An analysis beyond the paper's own
    tables.) *)
let throughput ~coroutines (backend : backend) =
  let eng = Engine.create ~seed:42 ~log_capacity:0 () in
  let w = backend.create eng ~nodes:4 in
  let t_start = ref Time.zero and t_end = ref Time.zero in
  let completed = ref 0 in
  run_pair eng w
    ~server:(fun p ->
      Lynx.Process.on_new_link p (fun l ->
          Lynx.Process.serve p l ~op:"echo" (fun vs -> vs));
      List.iter
        (fun l -> Lynx.Process.serve p l ~op:"echo" (fun vs -> vs))
        (Lynx.Process.live_links p);
      Lynx.Process.park p)
    ~client:(fun p lnk ->
      let args = [ Lynx.Value.Str "" ] in
      let fin = Sync.Ivar.create eng in
      let live = ref coroutines in
      t_start := Engine.now eng;
      for _ = 1 to coroutines do
        Lynx.Process.spawn_thread p (fun () ->
            for _ = 1 to 40 do
              ignore (Lynx.Process.call p lnk ~op:"echo" args);
              incr completed
            done;
            decr live;
            if !live = 0 then Sync.Ivar.fill fin ())
      done;
      Sync.Ivar.read fin;
      t_end := Engine.now eng);
  let dt = Time.to_sec (Time.sub !t_end !t_start) in
  if dt <= 0. then 0. else float_of_int !completed /. dt

(** Latency of the equivalent "C program making the same series of
    kernel calls" — the raw-kernel baseline of §3.3.  Only meaningful
    per backend kernel, so it is implemented directly against each
    kernel's interface. *)
let raw_charlotte ?(iters = 30) ?(seed = 42) ~payload () =
  let open Charlotte.Types in
  let eng = Engine.create ~seed ~log_capacity:0 () in
  let k = Charlotte.Kernel.create eng ~nodes:2 () in
  let series = Stats.Series.create () in
  let ends = Sync.Ivar.create eng in
  let _server =
    Charlotte.Kernel.spawn_process k ~daemon:true ~node:0 ~name:"raw-server"
      (fun pid ->
        let _, e1 = Sync.Ivar.read ends in
        let rec serve () =
          ignore (Charlotte.Kernel.receive k pid e1 ~max_len:65536);
          let c = Charlotte.Kernel.wait k pid in
          if c.c_status = Ok_done && c.c_dir = Received then begin
            ignore (Charlotte.Kernel.send k pid e1 c.c_data);
            let c2 = Charlotte.Kernel.wait k pid in
            if c2.c_status = Ok_done then serve ()
          end
        in
        try serve () with Charlotte.Kernel.Process_exit -> ())
  in
  let _client =
    Charlotte.Kernel.spawn_process k ~node:1 ~name:"raw-client" (fun pid ->
        let e0, _ = Sync.Ivar.read ends in
        let data = Bytes.make payload 'x' in
        let once () =
          ignore (Charlotte.Kernel.send k pid e0 data);
          ignore (Charlotte.Kernel.wait k pid);
          (* send completion *)
          ignore (Charlotte.Kernel.receive k pid e0 ~max_len:65536);
          ignore (Charlotte.Kernel.wait k pid)
          (* reply *)
        in
        for _ = 1 to warmup do
          once ()
        done;
        for _ = 1 to iters do
          let t0 = Engine.now eng in
          once ();
          Stats.Series.add series (Time.sub (Engine.now eng) t0)
        done)
  in
  ignore
    (Engine.spawn eng ~name:"driver" (fun () ->
         match Charlotte.Kernel.make_link k 1 with
         | Some (e0, e1) ->
           Charlotte.Kernel.transfer_end k e1 ~to_:0;
           Sync.Ivar.fill ends (e0, e1)
         | None -> assert false));
  Engine.run eng;
  Stats.Series.mean series

(** Raw request/accept round trip on the SODA kernel (the measurements
    behind footnote 2). *)
let raw_soda ?(iters = 30) ?(seed = 42) ~payload () =
  let open Soda.Types in
  let reply_name = 1_999_999 in
  let eng = Engine.create ~seed ~log_capacity:0 () in
  let k = Soda.Kernel.create eng ~nodes:4 () in
  let series = Stats.Series.create () in
  let ready = Sync.Ivar.create eng in
  let name = ref 0 in
  let _server =
    Soda.Kernel.spawn_process k ~daemon:true ~node:0 ~name:"raw-server"
      (fun pid ->
        let n = Soda.Kernel.new_name k pid in
        name := n;
        Soda.Kernel.advertise k pid n;
        let incoming = Sync.Mailbox.create eng in
        Soda.Kernel.set_handler k pid (function
          | Request inc -> Sync.Mailbox.put incoming inc
          | _ -> ());
        Sync.Ivar.fill ready pid;
        let rec serve () =
          let inc = Sync.Mailbox.take incoming in
          let data =
            match
              Soda.Kernel.accept k pid ~req:inc.i_id ~oob:Bytes.empty
                ~data:Bytes.empty ~recv_max:65536
            with
            | Ok d -> d
            | Error _ -> Bytes.empty
          in
          (* Reply put back to the requester, addressed to the reply
             name the client advertises. *)
          ignore
            (Soda.Kernel.request k pid ~dst:inc.i_from ~name:reply_name
               ~oob:Bytes.empty ~data ~recv_max:0);
          serve ()
        in
        try serve () with Soda.Kernel.Process_exit -> ())
  in
  let _client =
    Soda.Kernel.spawn_process k ~node:1 ~name:"raw-client" (fun pid ->
        let server_pid = Sync.Ivar.read ready in
        Soda.Kernel.advertise k pid reply_name;
        let events = Sync.Mailbox.create eng in
        Soda.Kernel.set_handler k pid (fun i -> Sync.Mailbox.put events i);
        let data = Bytes.make payload 'x' in
        let once () =
          ignore
            (Soda.Kernel.request k pid ~dst:server_pid ~name:!name
               ~oob:Bytes.empty ~data ~recv_max:0);
          (* Wait for our put to complete, then for the reply put. *)
          let got_reply = ref false in
          while not !got_reply do
            match Sync.Mailbox.take events with
            | Request inc ->
              ignore
                (Soda.Kernel.accept k pid ~req:inc.i_id ~oob:Bytes.empty
                   ~data:Bytes.empty ~recv_max:65536);
              got_reply := true
            | Completed _ | Aborted _ | Withdrawn _ -> ()
          done
        in
        for _ = 1 to warmup do
          once ()
        done;
        for _ = 1 to iters do
          let t0 = Engine.now eng in
          once ();
          Stats.Series.add series (Time.sub (Engine.now eng) t0)
        done)
  in
  Engine.run eng;
  Stats.Series.mean series

(** Raw dual-queue echo on the Chrysalis kernel: the client writes the
    payload into a shared object and enqueues its own dual-queue name on
    the server's queue; the server reads the payload, writes it back and
    enqueues on the client's queue.  No LYNX link object, flags or
    notices — the kernel calls a message costs at the least. *)
let raw_chrysalis ?(iters = 30) ?(seed = 42) ~payload () =
  let module K = Chrysalis.Kernel in
  let eng = Engine.create ~seed ~log_capacity:0 () in
  let k = K.create eng ~processors:2 () in
  let series = Stats.Series.create () in
  let server = Sync.Ivar.create eng in
  let wait_dq pid q ev =
    match K.dq_dequeue k pid q ~ev with
    | Some d -> d
    | None -> K.event_wait k pid ev
  in
  let _server =
    K.spawn_process k ~daemon:true ~node:0 ~name:"raw-server" (fun pid ->
        let q = K.make_dualq k pid ~capacity:8 in
        let ev = K.make_event k pid in
        let buf = K.make_object k pid ~size:(max payload 1) in
        Sync.Ivar.fill server (q, buf);
        let rec serve () =
          let client_q = wait_dq pid q ev in
          K.write_bytes k pid buf ~off:0
            (K.read_bytes k pid buf ~off:0 ~len:payload);
          K.dq_enqueue k pid client_q 0;
          serve ()
        in
        try serve () with K.Process_exit -> ())
  in
  let _client =
    K.spawn_process k ~node:1 ~name:"raw-client" (fun pid ->
        let server_q, buf = Sync.Ivar.read server in
        K.map_object k pid buf;
        let q = K.make_dualq k pid ~capacity:8 in
        let ev = K.make_event k pid in
        let data = Bytes.make payload 'x' in
        let once () =
          K.write_bytes k pid buf ~off:0 data;
          K.dq_enqueue k pid server_q q;
          ignore (wait_dq pid q ev);
          ignore (K.read_bytes k pid buf ~off:0 ~len:payload)
        in
        for _ = 1 to warmup do
          once ()
        done;
        for _ = 1 to iters do
          let t0 = Engine.now eng in
          once ();
          Stats.Series.add series (Time.sub (Engine.now eng) t0)
        done)
  in
  Engine.run eng;
  Stats.Series.mean series
