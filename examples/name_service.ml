(* Name service: programs designed in isolation find each other.

   Run with:   dune exec examples/name_service.exe [backend]

   The paper motivates LYNX with "interaction ... between separate
   applications and between user programs and long-lived system
   servers".  Here a name server (Lynx.Nameserver) is the only
   rendezvous: two independent providers register "greeter" and
   "counter"; a client that knows nothing about them looks the names up
   and receives private links, manufactured on demand by moving fresh
   link ends provider -> name server -> client. *)

open Sim
module P = Lynx.Process
module L = Lynx.Lang
module NS = Lynx.Nameserver

let greet_op = L.defop ~name:"greet" ~req:L.str ~resp:L.str
let next_op = L.defop ~name:"next" ~req:L.unit ~resp:L.int

let wait_first_link p =
  let rec go () =
    match P.live_links p with
    | l :: _ -> l
    | [] ->
      P.sleep p (Time.ms 1);
      go ()
  in
  go ()

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "chrysalis" in
  Printf.printf "Name service on %s\n" backend;
  let backend = Harness.Backend_world.find_exn backend in
  let engine = Engine.create () in
  let world = backend.create engine ~nodes:6 in

  let ns_member =
    Lynx.World.spawn world ~daemon:true ~node:0 ~name:"nameserver" NS.body
  in

  let greeter =
    Lynx.World.spawn world ~daemon:true ~node:1 ~name:"greeter" (fun p ->
        let ns = wait_first_link p in
        NS.serve_clones p ~ns ~on_client:(fun mine ->
            L.serve p mine greet_op (fun who -> "hello, " ^ who ^ "!"));
        NS.register p ~ns ~name:"greeter";
        P.park p)
  in

  let counter =
    Lynx.World.spawn world ~daemon:true ~node:2 ~name:"counter" (fun p ->
        let ns = wait_first_link p in
        let count = ref 0 in
        NS.serve_clones p ~ns ~on_client:(fun mine ->
            L.serve p mine next_op (fun () ->
                incr count;
                !count));
        NS.register p ~ns ~name:"counter";
        P.park p)
  in

  let client =
    Lynx.World.spawn world ~node:3 ~name:"client" (fun p ->
        let ns = wait_first_link p in
        P.sleep p (Time.ms 300) (* let the providers register *);
        Printf.printf "  registered services: %s\n"
          (String.concat ", " (NS.list_names p ~ns));
        (match NS.lookup p ~ns ~name:"greeter" with
        | Some svc ->
          Printf.printf "  greeter says: %S\n" (L.call p svc greet_op "world")
        | None -> print_endline "  greeter not found");
        (match NS.lookup p ~ns ~name:"counter" with
        | Some svc ->
          for _ = 1 to 3 do
            Printf.printf "  counter: %d\n" (L.call p svc next_op ())
          done
        | None -> print_endline "  counter not found");
        match NS.lookup p ~ns ~name:"no-such-thing" with
        | Some _ -> ()
        | None -> print_endline "  (and unknown names resolve to nothing)")
  in

  ignore
    (Engine.spawn engine ~name:"wiring" (fun () ->
         List.iter
           (fun m -> ignore (Lynx.World.link_between world m ns_member))
           [ greeter; counter; client ]));

  Engine.run engine;
  Printf.printf "simulated time: %s\n" (Time.to_string (Engine.now engine))
