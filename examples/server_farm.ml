(* Server farm: a master hands out links to worker processes.

   Run with:   dune exec examples/server_farm.exe [backend]

   This is the long-lived-server pattern the paper says LYNX was built
   for: clients designed in isolation talk to a master they did not
   compile against.  The master owns one end of a link to each worker;
   when a client asks for capacity, the master moves worker-link ends to
   the client inside the reply (on Charlotte this exercises the
   multiple-enclosure protocol of figure 2).  The client then calls the
   workers directly and returns the links when done. *)

open Sim
module P = Lynx.Process
module V = Lynx.Value

let n_workers = 3

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "chrysalis" in
  Printf.printf "Server farm on %s: 1 master, %d workers, 1 client\n" backend
    n_workers;
  let backend = Harness.Backend_world.find_exn backend in
  let engine = Engine.create () in
  let world = backend.create engine ~nodes:8 in

  (* Workers: serve "work" on whatever link they are given. *)
  let workers =
    List.init n_workers (fun i ->
        Lynx.World.spawn world ~daemon:true ~node:(2 + i)
          ~name:(Printf.sprintf "worker%d" i) (fun p ->
            let rec serve () =
              let inc = P.await_request p () in
              (match inc.P.in_args with
              | [ V.Int x ] ->
                P.sleep p (Time.ms 2) (* simulated computation *);
                inc.P.in_reply [ V.Int (x * x) ]
              | _ -> inc.P.in_reply []);
              serve ()
            in
            try serve () with Lynx.Excn.Link_destroyed -> ()))
  in

  (* Master: owns a link to every worker; leases the whole pool to a
     client in a single reply carrying n_workers enclosures. *)
  let master =
    Lynx.World.spawn world ~daemon:true ~node:0 ~name:"master" (fun p ->
        let rec serve () =
          let inc = P.await_request p () in
          (match inc.P.in_op with
          | "lease" ->
            let pool = P.live_links p in
            let lend =
              List.filteri (fun i _ -> i < n_workers)
                (List.filter (fun l -> l.Lynx.Link.lid <> inc.P.in_link.Lynx.Link.lid) pool)
            in
            Printf.printf "  master leases %d worker links\n" (List.length lend);
            inc.P.in_reply (List.map (fun l -> V.Link l) lend)
          | "return" ->
            Printf.printf "  master got %d links back\n"
              (List.length (V.links_of_list inc.P.in_args));
            inc.P.in_reply []
          | _ -> inc.P.in_reply []);
          serve ()
        in
        try serve () with Lynx.Excn.Link_destroyed -> ())
  in

  let master_link = Sync.Ivar.create engine in
  let client =
    Lynx.World.spawn world ~node:1 ~name:"client" (fun p ->
        let m = Sync.Ivar.read master_link in
        let leased = P.call p m ~op:"lease" [] in
        let links = V.links_of_list leased in
        Printf.printf "  client got %d worker links\n" (List.length links);
        (* Fan work out to every worker (each call is a coroutine). *)
        let results = ref [] in
        let pending = ref (List.length links) in
        let done_ = Sync.Ivar.create engine in
        List.iteri
          (fun i l ->
            P.spawn_thread p (fun () ->
                (match P.call p l ~op:"work" [ V.Int (i + 2) ] with
                | [ V.Int r ] -> results := (i + 2, r) :: !results
                | _ -> ());
                decr pending;
                if !pending = 0 then Sync.Ivar.fill done_ ()))
          links;
        Sync.Ivar.read done_;
        List.iter
          (fun (x, r) -> Printf.printf "  worker says %d^2 = %d\n" x r)
          (List.sort compare !results);
        (* Move the ends back to the master. *)
        ignore (P.call p m ~op:"return" (List.map (fun l -> V.Link l) links));
        Printf.printf "  client done at %s\n" (Time.to_string (Engine.now engine)))
  in

  ignore
    (Engine.spawn engine ~name:"parent" (fun () ->
         (* Master gets a link to each worker, client gets one to the master. *)
         List.iter
           (fun worker -> ignore (Lynx.World.link_between world master worker))
           workers;
         let client_end, _ = Lynx.World.link_between world client master in
         Sync.Ivar.fill master_link client_end));

  Engine.run engine;
  let sts = Lynx.World.stats world in
  (match Stats.get sts "lynx_charlotte.pkt_sent.enc" with
  | 0 -> ()
  | n ->
    Printf.printf
      "  (Charlotte needed %d extra enc packets and %d goaheads to move the pool)\n"
      n
      (Stats.get sts "lynx_charlotte.pkt_sent.goahead"));
  Printf.printf "simulated time: %s\n" (Time.to_string (Engine.now engine))
