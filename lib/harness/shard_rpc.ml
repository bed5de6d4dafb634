(* A shard-aware RPC workload: [pairs] clients each driving [rounds]
   request/reply exchanges against a dedicated server, built directly on
   {!Sim.Shard} so one simulation can be partitioned across domains.

   Unlike the vignette scenarios (which script LYNX processes on a
   single engine), the nodes here are plain PDES actors whose timing is
   taken from the backend's kernel cost table: every message costs at
   least the backend's minimum cross-node latency — exactly the
   conservative lookahead the shard engine needs — plus a per-byte
   transfer term.  The server burns real CPU on a checksum per request,
   so at [shards > 1] the run gets genuinely faster on the wall clock
   while staying byte-identical in virtual time.

   Fault plans are not consulted: the conservative exchange assumes
   reliable in-order delivery, so this scenario is fault-inert by
   design (the chaos sweep still accepts it — plans simply change
   nothing). *)

open Sim
open Backend_world

(* (lookahead, per-byte) from the backend's kernel cost table.  The
   ablation variants price like their base kernel. *)
let cost_model (backend : backend) =
  if String.starts_with ~prefix:"soda" backend.name then
    (Soda.Costs.lookahead Soda.Costs.default, Soda.Costs.default.Soda.Costs.per_byte)
  else if String.starts_with ~prefix:"chrysalis" backend.name then
    ( Chrysalis.Costs.lookahead Chrysalis.Costs.default,
      Chrysalis.Costs.default.Chrysalis.Costs.copy_remote_byte )
  else
    ( Charlotte.Costs.lookahead Charlotte.Costs.default,
      Charlotte.Costs.default.Charlotte.Costs.per_byte )

type msg =
  | Req of { round : int; size : int; key : int }
  | Rep of { round : int; check : int }

(* Deterministic CPU burn standing in for marshalling + handler work:
   pure int arithmetic over [size] steps, so the wall-clock cost scales
   with the simulated payload while the result is independent of the
   partition. *)
let checksum ~key ~size =
  let h = ref 0x9E3779B9 in
  for i = 0 to size - 1 do
    h := (!h lxor (key + i)) * 0x01000193 land max_int
  done;
  !h

module Key = struct
  let bytes = Stats.key "shard.bytes"
  let rpcs = Stats.key "shard.rpcs"
  let served = Stats.key "shard.served"
end

let pairs = 4
let rounds = 3
let max_payload = 1024

let run (c : Stage.ctx) (backend : backend) =
  let lookahead, per_byte = cost_model backend in
  let t =
    Shard.create ~shards:c.shards ~seed:c.seed ~policy:c.policy ~lookahead ()
  in
  let verified = Array.make pairs 0 in
  (* Nodes 0..pairs-1 are clients, pairs..2*pairs-1 their servers:
     client i talks to server pairs + i, so with round-robin placement
     every pair straddles shards as soon as shards > 1. *)
  let xfer size = Time.add lookahead (Time.scale per_byte size) in
  for i = 0 to pairs - 1 do
    ignore
      (Shard.add_node t ~name:(Printf.sprintf "client%d" i) (fun ctx ->
           let rng = Shard.rng ctx in
           let rec call round =
             if round <= rounds then begin
               let size = 64 + Rng.int rng max_payload in
               let key = Rng.int rng 0x3FFFFFFF in
               Shard.send ctx ~dst:(pairs + i) ~latency:(xfer size) ~op:"rpc"
                 (Req { round; size; key });
               Shard.incr ctx Key.rpcs 1;
               Shard.incr ctx Key.bytes size;
               Shard.recv ctx (fun msg ->
                   (match msg with
                   | Rep { round = r; check }
                     when r = round && check = checksum ~key ~size ->
                     verified.(i) <- verified.(i) + 1
                   | _ -> Shard.note ctx (Printf.sprintf "client%d bad reply" i));
                   call (round + 1))
             end
           in
           call 1))
  done;
  for i = 0 to pairs - 1 do
    ignore
      (Shard.add_node t ~name:(Printf.sprintf "server%d" i) (fun ctx ->
           let rec serve left =
             if left > 0 then
               Shard.recv ctx (fun msg ->
                   (match msg with
                   | Req { round; size; key } ->
                     let check = checksum ~key ~size in
                     Shard.incr ctx Key.served 1;
                     Shard.send ctx ~dst:i ~latency:(xfer 8) ~op:"reply"
                       (Rep { round; check })
                   | Rep _ -> Shard.note ctx "server got a stray reply");
                   serve (left - 1))
           in
           serve rounds))
  done;
  Shard.run t ~expect_quiescent:true;
  let done_all = Array.for_all (fun v -> v = rounds) verified in
  let view = Shard.merged_view t in
  Stage.report c ~ok:done_all
    ~detail:
      (Printf.sprintf "%d/%d rpcs verified, %d windows"
         (Array.fold_left ( + ) 0 verified)
         (pairs * rounds) (Shard.windows t))
    ~duration:view.Engine.v_now ~counters:(Shard.counters t) view
