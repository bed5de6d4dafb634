(* Population-scale workload generator over {!Sim.Shard}.

   Where the vignette scenarios script a handful of LYNX processes, this
   layer generates *populations*: parameterised topologies (client/server
   farm, relay ring, scatter-gather tree) driven by open-loop
   (Poisson-ish arrivals) or closed-loop (think-time) client populations,
   priced by the backend's kernel cost table exactly like
   {!Shard_rpc}.  Populations scale from a handful to 10k–1M simulated
   processes per run.

   The population is partitioned into small independent *cells* (a few
   clients plus their own servers/relays), and the server side scales
   horizontally with the population.  Cells bound every node's causal
   neighborhood, so vector clocks stay a few entries wide however large
   the run (a clock grows with the number of distinct causal
   ancestors).  All message objects are single-sender directed pairs,
   so workloads are race-free by construction — the interesting output
   is the load curve, not the interleaving.

   The race detector keeps a message object's state only while the
   object may still take a send.  A send marked final ([Shard.send
   ~final]) promises that its edge carries nothing more, and the
   detector forgets the object once that send is received.  The marks
   sit where the program knows it: a client's last-round request (its
   only one under open load) and, under open load, each reply.  Relay
   forwards and tree sub-requests are never final, and neither are
   closed-load replies, because a server does not know a request's
   round; those objects stay to the end of the run, O(cells) of them.

   Reply latencies land in one bounded {!Stats.Histogram} per shard
   (a node's fiber only runs on its home shard's domain — {!Shard.home})
   and are merged after the run; bucket-wise merge commutes, so the
   summary is byte-identical at any shard count and any [-j].

   Like {!Shard_rpc}, fault plans are not consulted: the conservative
   shard exchange assumes reliable in-order delivery, so workload
   scenarios are fault-inert by design. *)

open Sim
open Backend_world

type topology = Farm | Ring | Tree

type load =
  | Closed of { think : Time.t; rounds : int }
      (** each client waits an exponential think time (mean [think]),
          issues a request, blocks for the reply; [rounds] times *)
  | Open of { window : Time.t }
      (** each client issues one request at an arrival time drawn
          uniformly over [window] — the superposition across the
          population is Poisson-ish, and offered load is
          population / window *)

let topology_name = function Farm -> "farm" | Ring -> "ring" | Tree -> "tree"

let load_name = function Closed _ -> "closed" | Open _ -> "open"

(* Cell geometry: clients per cell, and the per-cell infrastructure. *)
let clients_per_cell = 8
let ring_relays = 4
let ring_hops = 2 (* forwards after the entry relay; path length 3 *)
let tree_fanout = 4

(* Payloads are 64..575 bytes. *)
let max_payload = 512

let default_population = 24
let default_think = Time.ms 2
let default_rounds = 2
let default_window = Time.ms 50

(* A bound on the arithmetic, not on memory: node ids and cell counts
   derived from a population this size stay far below [max_int]. *)
let max_population = 1_000_000_000

let default_load = function
  | Farm | Ring | Tree -> Closed { think = default_think; rounds = default_rounds }

type msg =
  | Req of { t0 : Time.t; key : int; size : int; ttl : int; client : int }
  | Sub of { key : int; size : int; client : int }
  | Sub_rep of { check : int; client : int }
  | Rep of { t0 : Time.t; check : int }

(* The continuation of a client's last round.  A client compares its
   continuation with it physically to know that it is making its last
   request, so no per-client flag is captured. *)
let last_round () = ()

type result = {
  r_ok : bool;
  r_duration : Time.t;
  r_counters : (string * int) list;
  r_detail : string;
  r_latency : Stats.Histogram.summary option;
  r_view : Engine.view;
}

(* Exponential inter-arrival draw with the given mean; the float path is
   deterministic per stream, and per-node streams are keyed by global
   node id, so draws are identical at every shard count. *)
let exp_draw rng mean =
  let u = Rng.float rng in
  Time.ns (int_of_float (-.float_of_int (Time.to_ns mean) *. log (1. -. u)))

module Key = struct
  let errors = Stats.key "wl.errors"
  let replies = Stats.key "wl.replies"
  let requests = Stats.key "wl.requests"
  let served = Stats.key "wl.served"
end

let run ?(seed = 42) ?(policy = Engine.Fifo) ?(shards = 1) ~topology ~load
    ~population (backend : backend) : result =
  if population < 1 || population > max_population then
    invalid_arg "Workload.run: population out of range";
  let lookahead, per_byte = Shard_rpc.cost_model backend in
  let t = Shard.create ~shards ~seed ~policy ~lookahead () in
  let xfer size = Time.add lookahead (Time.scale per_byte size) in
  let rounds = match load with Closed { rounds; _ } -> rounds | Open _ -> 1 in
  let hists = Array.init shards (fun _ -> Stats.Histogram.create ()) in
  let record ctx lat = Stats.Histogram.add hists.(Shard.home ctx) lat in
  let checksum key size = Shard_rpc.checksum ~key ~size in
  (* The client program shared by every topology: wait (think time or
     open-loop arrival), fire one priced request at [server], verify the
     reply checksum against [expect] and record the reply latency. *)
  let client_body ~server ~ttl ~expect ctx =
    let rng = Shard.rng ctx in
    let me = Shard.self ctx in
    let once next =
      let size = 64 + Rng.int rng max_payload in
      let key = Rng.int rng 0x3FFFFFFF in
      let t0 = Shard.now ctx in
      (* The last round's request is the client's last send to
         [server]; the constant options allocate nothing. *)
      Shard.send ctx ~dst:server ~latency:(xfer size) ~op:"wl.req"
        ?final:(if next == last_round then Some true else None)
        (Req { t0; key; size; ttl; client = me });
      Shard.incr ctx Key.requests 1;
      Shard.recv ctx (fun msg ->
          (match msg with
          | Rep { check; _ } when check = expect key size ->
            record ctx (Time.sub (Shard.now ctx) t0);
            Shard.incr ctx Key.replies 1
          | _ -> Shard.incr ctx Key.errors 1);
          next ())
    in
    match load with
    | Closed { think; _ } ->
      let rec round i =
        if i <= rounds then
          Shard.sleep ctx (exp_draw rng think) (fun () ->
              once (if i = rounds then last_round else fun () -> round (i + 1)))
      in
      round 1
    | Open { window } ->
      Shard.sleep ctx
        (Time.ns (Rng.int rng (Stdlib.max 1 (Time.to_ns window))))
        (fun () -> once last_round)
  in
  (* A server's reply to [client], on the server's own edge to it.
     Under open load that edge carries one reply, so the reply is
     final; under closed load the server does not know a request's
     round.  Its latency and [final] option are built once per run. *)
  let reply =
    let latency = xfer 16 in
    let final = match load with Open _ -> Some true | Closed _ -> None in
    fun ctx ~client rep ->
      Shard.send ctx ~dst:client ~latency ~op:"wl.rep" ?final rep
  in
  (* A node that handles [n] messages, one [handle] each. *)
  let serve n handle ctx =
    let rec loop left =
      if left > 0 then
        Shard.recv ctx (fun msg ->
            handle ctx msg;
            loop (left - 1))
    in
    loop n
  in
  (* Build the population cell by cell; node ids are assigned
     sequentially by [add_node], so each cell computes its members' ids
     before spawning them — [add] checks the arithmetic stayed in sync. *)
  let spawned = ref 0 in
  let add name body =
    let id = Shard.add_node t ~name body in
    assert (id = !spawned);
    incr spawned
  in
  let next_id = ref 0 in
  let ncells = (population + clients_per_cell - 1) / clients_per_cell in
  for cell = 0 to ncells - 1 do
    let nc =
      Stdlib.min clients_per_cell (population - (cell * clients_per_cell))
    in
    let reqs = nc * rounds in
    match topology with
    | Farm ->
      let server = !next_id in
      next_id := !next_id + 1 + nc;
      add (Label.int "srv" cell)
        (serve reqs (fun ctx -> function
           | Req { t0; key; size; client; _ } ->
             let check = checksum key size in
             Shard.incr ctx Key.served 1;
             reply ctx ~client (Rep { t0; check })
           | _ -> Shard.incr ctx Key.errors 1));
      for j = 0 to nc - 1 do
        add (Label.pair "cli" cell "." j)
          (client_body ~server ~ttl:0 ~expect:checksum)
      done
    | Ring ->
      let base = !next_id in
      next_id := !next_id + ring_relays + nc;
      (* Requests enter at relay [j mod ring_relays], get forwarded
         [ring_hops] times around the ring (store-and-forward, never a
         nested blocking call), and the last relay replies straight back
         to the client. *)
      let visits = Array.make ring_relays 0 in
      for j = 0 to nc - 1 do
        for h = 0 to ring_hops do
          let r = (j + h) mod ring_relays in
          visits.(r) <- visits.(r) + rounds
        done
      done;
      for r = 0 to ring_relays - 1 do
        let next_relay = base + ((r + 1) mod ring_relays) in
        add (Label.pair "rly" cell "." r)
          (serve visits.(r) (fun ctx -> function
             | Req { t0; key; size; ttl; client } ->
               if ttl > 0 then
                 Shard.send ctx ~dst:next_relay ~latency:(xfer size)
                   ~op:"wl.fwd"
                   (Req { t0; key; size; ttl = ttl - 1; client })
               else begin
                 let check = checksum key size in
                 Shard.incr ctx Key.served 1;
                 reply ctx ~client (Rep { t0; check })
               end
             | _ -> Shard.incr ctx Key.errors 1))
      done;
      for j = 0 to nc - 1 do
        add (Label.pair "cli" cell "." j)
          (client_body
             ~server:(base + (j mod ring_relays))
             ~ttl:ring_hops ~expect:checksum)
      done
    | Tree ->
      let root = !next_id in
      let leaves = Array.init tree_fanout (fun li -> root + 1 + li) in
      next_id := !next_id + 1 + tree_fanout + nc;
      (* Scatter-gather: the root fans each request out to every leaf
         and sums their checksums; concurrent client requests queue in a
         local backlog so one gather is in flight at a time. *)
      add (Label.int "root" cell)
        (fun ctx ->
          let backlog = Queue.create () in
          let current = ref None in
          let served = ref 0 in
          let start (t0, key, size, client) =
            current := Some (t0, client, ref tree_fanout, ref 0);
            Array.iteri
              (fun li leaf ->
                Shard.send ctx ~dst:leaf ~latency:(xfer size) ~op:"wl.sub"
                  (Sub { key = key + li; size; client }))
              leaves
          in
          let handle = function
            | Req { t0; key; size; client; _ } -> begin
              match !current with
              | None -> start (t0, key, size, client)
              | Some _ -> Queue.add (t0, key, size, client) backlog
            end
            | Sub_rep { check; client = c } -> begin
              match !current with
              | Some (t0, client, remaining, acc) when c = client ->
                acc := !acc + check;
                decr remaining;
                if !remaining = 0 then begin
                  Shard.incr ctx Key.served 1;
                  reply ctx ~client (Rep { t0; check = !acc });
                  incr served;
                  current := None;
                  if not (Queue.is_empty backlog) then
                    start (Queue.pop backlog)
                end
              | _ -> Shard.incr ctx Key.errors 1
            end
            | _ -> Shard.incr ctx Key.errors 1
          in
          let rec loop () =
            if !served < reqs then
              Shard.recv ctx (fun msg ->
                  handle msg;
                  loop ())
          in
          loop ());
      Array.iteri
        (fun li _leaf_id ->
          add (Label.pair "leaf" cell "." li)
            (serve reqs (fun ctx -> function
               | Sub { key; size; client } ->
                 Shard.send ctx ~dst:root ~latency:(xfer 16) ~op:"wl.subrep"
                   (Sub_rep { check = checksum key size; client })
               | _ -> Shard.incr ctx Key.errors 1)))
        leaves;
      let expect key size =
        let acc = ref 0 in
        for li = 0 to tree_fanout - 1 do
          acc := !acc + checksum (key + li) size
        done;
        !acc
      in
      for j = 0 to nc - 1 do
        add (Label.pair "cli" cell "." j) (client_body ~server:root ~ttl:0 ~expect)
      done
  done;
  assert (!spawned = !next_id);
  Shard.run t ~expect_quiescent:true;
  let merged =
    Array.fold_left Stats.Histogram.merge (Stats.Histogram.create ()) hists
  in
  let counters = Shard.counters t in
  let counter name = try List.assoc name counters with Not_found -> 0 in
  let expected = population * rounds in
  let replies = Stats.Histogram.count merged in
  let ok = replies = expected && counter "wl.errors" = 0 in
  let view = Shard.merged_view t in
  let latency = Stats.Histogram.summary merged in
  {
    r_ok = ok;
    r_duration = view.Engine.v_now;
    r_counters = counters;
    r_detail =
      Printf.sprintf "%s/%s: %d clients in %d cells, %d/%d replies%s"
        (topology_name topology) (load_name load) population ncells replies
        expected
        (match latency with
        | None -> ""
        | Some s ->
          Printf.sprintf ", p50=%s p99=%s" (Time.to_string s.Stats.Histogram.h_p50)
            (Time.to_string s.Stats.Histogram.h_p99));
    r_latency = latency;
    r_view = view;
  }
