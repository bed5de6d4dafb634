(* Quickstart: a LYNX remote procedure call between two processes.

   Run with:   dune exec examples/quickstart.exe [charlotte|soda|chrysalis]

   A server process serves an "add" operation on a link; a client calls
   it.  The same program runs unchanged on all three simulated operating
   systems — only the kernel under Lynx.World differs. *)

open Sim
module P = Lynx.Process

let run (backend : Harness.Backend_world.backend) =
  let engine = Engine.create () in
  let world = backend.create engine ~nodes:4 in

  (* The server registers a typed handler and serves forever. *)
  let server =
    Lynx.World.spawn world ~daemon:true ~node:0 ~name:"adder" (fun p ->
        let links = P.await_request p () in
        (* First request arrives before any serve registration: handle it
           directly, then register a handler for the rest. *)
        (match links.P.in_args with
        | [ Lynx.Value.Int a; Lynx.Value.Int b ] ->
          links.P.in_reply [ Lynx.Value.Int (a + b) ]
        | _ -> links.P.in_reply []);
        P.serve p links.P.in_link ~op:"add"
          ~sg:(Lynx.Ty.signature [ Lynx.Ty.Int; Lynx.Ty.Int ] ~results:[ Lynx.Ty.Int ])
          (function
            | [ Lynx.Value.Int a; Lynx.Value.Int b ] -> [ Lynx.Value.Int (a + b) ]
            | _ -> assert false (* signature-checked *));
        (* Keep serving until the simulation ends. *)
        P.sleep p (Time.sec 10))
  in

  let link_for_client = Sync.Ivar.create engine in
  let client =
    Lynx.World.spawn world ~node:1 ~name:"client" (fun p ->
        let lnk = Sync.Ivar.read link_for_client in
        for i = 1 to 3 do
          let t0 = Engine.now engine in
          match
            P.call p lnk ~op:"add"
              ~expect:[ Lynx.Ty.Int ]
              [ Lynx.Value.Int i; Lynx.Value.Int (10 * i) ]
          with
          | [ Lynx.Value.Int sum ] ->
            Printf.printf "  %d + %d = %d   (%.2f ms on %s)\n" i (10 * i) sum
              (Time.to_ms (Time.sub (Engine.now engine) t0))
              backend.name
          | _ -> print_endline "  unexpected reply"
        done)
  in

  (* A parent would normally hand the processes their first link; the
     harness provides the same service. *)
  ignore
    (Engine.spawn engine ~name:"parent" (fun () ->
         let client_end, _server_end = Lynx.World.link_between world client server in
         Sync.Ivar.fill link_for_client client_end));

  Engine.run engine;
  Printf.printf "simulated time: %s\n" (Time.to_string (Engine.now engine))

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "chrysalis" in
  Printf.printf "LYNX quickstart on %s\n" backend;
  run (Harness.Backend_world.find_exn backend)
