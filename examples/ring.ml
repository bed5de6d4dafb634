(* Ring: a token circulating through a ring of LYNX processes.

   Run with:   dune exec examples/ring.exe [backend] [processes] [rounds]

   Each process serves "token" on its inbound link and forwards the
   (incremented) token on its outbound link before replying upstream —
   so a full round is a chain of nested remote operations around the
   ring.  A classic latency pattern: one round costs about
   [processes] x (simple remote op), making the three kernels' relative
   speeds directly visible. *)

open Sim
module P = Lynx.Process
module V = Lynx.Value

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "chrysalis" in
  let n = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 5 in
  let rounds =
    if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 3
  in
  Printf.printf "Token ring: %d processes, %d rounds, on %s\n" n rounds backend;
  let backend = Harness.Backend_world.find_exn backend in
  let engine = Engine.create () in
  let world = backend.create engine ~nodes:(n + 1) in

  (* Station i: waits for the token on its inbound link and forwards it
     on its outbound link.  Station 0 (the injector) closes each round
     instead of forwarding forever. *)
  let stations =
    List.init n (fun i ->
        Lynx.World.spawn world ~daemon:true ~node:i ~name:(Printf.sprintf "s%d" i)
          (fun p ->
            if i = 0 then begin
              (* Injector: kicks the token and measures each round. *)
              let rec wait_out () =
                match P.live_links p with
                | l :: _ -> l
                | [] ->
                  P.sleep p (Time.ms 1);
                  wait_out ()
              in
              let out = wait_out () in
              for round = 1 to rounds do
                let t0 = Engine.now engine in
                match P.call p out ~op:"token" [ V.Int 0 ] with
                | [ V.Int hops ] ->
                  Printf.printf "  round %d: %d hops in %s\n" round hops
                    (Time.to_string (Time.sub (Engine.now engine) t0))
                | _ -> print_endline "  token lost!"
              done
            end
            else begin
              (* Relays hold an inbound link (from station i-1, wired
                 first, so it has the smaller id) and — except for the
                 last station — an outbound link to station i+1. *)
              let wanted = if i = n - 1 then 1 else 2 in
              let rec wait_links () =
                let ls = P.live_links p in
                if List.length ls >= wanted then ls
                else begin
                  P.sleep p (Time.ms 1);
                  wait_links ()
                end
              in
              let inbound, outbound =
                match wait_links () with
                | [ a ] -> (a, None)
                | a :: b :: _ -> (a, Some b)
                | [] -> assert false
              in
              P.open_queue p inbound;
              let rec serve () =
                let inc = P.await_request p ~links:[ inbound ] () in
                (match (inc.P.in_args, outbound) with
                | [ V.Int hops ], None ->
                  (* Last station: the round is complete. *)
                  inc.P.in_reply [ V.Int (hops + 1) ]
                | [ V.Int hops ], Some out -> (
                  match P.call p out ~op:"token" [ V.Int (hops + 1) ] with
                  | [ V.Int total ] -> inc.P.in_reply [ V.Int total ]
                  | _ -> inc.P.in_reply [])
                | _ -> inc.P.in_reply []);
                serve ()
              in
              try serve () with Lynx.Excn.Link_destroyed -> ()
            end))
  in

  ignore
    (Engine.spawn engine ~name:"wiring" (fun () ->
         (* Wire s0 -> s1 -> ... -> s(n-1); replies travel back down the
            chain, closing the ring logically. *)
         let arr = Array.of_list stations in
         for i = 1 to n - 1 do
           (* Station i's inbound comes from station i-1. *)
           ignore (Lynx.World.link_between world arr.(i - 1) arr.(i))
         done));

  Engine.run engine;
  Printf.printf "simulated time: %s\n" (Time.to_string (Engine.now engine))
