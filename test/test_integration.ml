(* Integration and stress tests: randomized workloads, link churn,
   nested RPC chains, and cross-backend determinism.  Each test runs on
   all three backends; randomness comes only from the engine seed, so
   every failure is replayable. *)

open Sim
module P = Lynx.Process
module V = Lynx.Value

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let on_all = Each_backend.on_all

(* The server understands three operations; each client call carries a
   random operation and operand, and checks the arithmetic on return. *)
let storm ?(seed = 42) ~clients ~calls (backend : Harness.Backend_world.backend)
    =
  let e = Engine.create ~seed () in
  let w = backend.create e ~nodes:(clients + 2) in
  let correct = ref 0 and wrong = ref 0 in
  let last_done = ref 0 in
  let server =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
        let rec wait_links () =
          let ls = P.live_links p in
          if List.length ls >= clients then ls
          else begin
            P.sleep p (Time.ms 1);
            wait_links ()
          end
        in
        let links = wait_links () in
        List.iter
          (fun l ->
            P.open_queue p l;
            P.serve p l ~op:"double" (function
              | [ V.Int x ] -> [ V.Int (2 * x) ]
              | _ -> []);
            P.serve p l ~op:"neg" (function
              | [ V.Int x ] -> [ V.Int (-x) ]
              | _ -> []);
            P.serve p l ~op:"len" (function
              | [ V.Str s ] -> [ V.Int (String.length s) ]
              | _ -> []))
          links;
        P.sleep p (Time.sec 120))
  in
  let members =
    List.init clients (fun i ->
        Lynx.World.spawn w ~daemon:true ~node:(i + 1) ~name:(Printf.sprintf "c%d" i)
          (fun p ->
            let rec wait_link () =
              match P.live_links p with
              | l :: _ -> l
              | [] ->
                P.sleep p (Time.ms 1);
                wait_link ()
            in
            let lnk = wait_link () in
            let rng = Rng.create (seed + (i * 7919)) in
            for _ = 1 to calls do
              let t0 = Engine.now e in
              (match Rng.int rng 3 with
              | 0 ->
                let x = Rng.int rng 1000 in
                (match P.call p lnk ~op:"double" [ V.Int x ] with
                | [ V.Int r ] when r = 2 * x -> incr correct
                | _ -> incr wrong)
              | 1 ->
                let x = Rng.int rng 1000 in
                (match P.call p lnk ~op:"neg" [ V.Int x ] with
                | [ V.Int r ] when r = -x -> incr correct
                | _ -> incr wrong)
              | _ ->
                let n = Rng.int rng 200 in
                (match P.call p lnk ~op:"len" [ V.Str (String.make n 'x') ] with
                | [ V.Int r ] when r = n -> incr correct
                | _ -> incr wrong));
              (* Order-sensitive fingerprint over every call's latency:
                 two runs are identical iff this matches. *)
              last_done :=
                (!last_done * 31)
                + Time.to_ns (Time.sub (Engine.now e) t0)
            done))
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         List.iter (fun m -> ignore (Lynx.World.link_between w m server)) members));
  Engine.run e;
  (!correct, !wrong, !last_done)

let storm_tests =
  on_all "randomized RPC storm: 3 clients x 15 calls" `Quick
    (fun backend ->
      let correct, wrong, _ = storm ~clients:3 ~calls:15 backend in
      checki "all correct" 45 correct;
      checki "none wrong" 0 wrong)
  @ on_all "storm is deterministic per seed" `Quick (fun backend ->
        let _, _, t1 = storm ~seed:9 ~clients:2 ~calls:5 backend in
        let _, _, t2 = storm ~seed:9 ~clients:2 ~calls:5 backend in
        let _, _, t3 = storm ~seed:10 ~clients:2 ~calls:5 backend in
        checkb "same seed, same final time" true (t1 = t2);
        (* Different seeds draw different payload sizes, so the virtual
           end time differs. *)
        checkb "different seed, different time" true (t1 <> t3))

(* A link end relayed through a chain of processes, then used. *)
let relay_chain ~hops (backend : Harness.Backend_world.backend) =
  let e = Engine.create () in
  let w = backend.create e ~nodes:(hops + 3) in
  let ok = ref false in
  let origin_link = Sync.Ivar.create e in
  let origin =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"origin" (fun p ->
        let first = Sync.Ivar.read origin_link in
        let near, far = P.new_link p in
        ignore (P.call p first ~op:"relay" [ V.Link near ]);
        let ping = P.await_request p ~links:[ far ] () in
        ping.P.in_reply [ V.Str "origin says hi" ])
  in
  let relays =
    List.init hops (fun i ->
        Lynx.World.spawn w ~daemon:true ~node:(i + 1) ~name:(Printf.sprintf "hop%d" i)
          (fun p ->
            let inc = P.await_request p () in
            match inc.P.in_args with
            | [ V.Link moved ] ->
              inc.P.in_reply [];
              (* Forward on the second live link (the one to the next
                 hop), distinguishable by id from the inbound one. *)
              let rec next_link () =
                match
                  List.filter
                    (fun (l : Lynx.Link.t) ->
                      l.Lynx.Link.lid <> inc.P.in_link.Lynx.Link.lid
                      && l.Lynx.Link.lid <> moved.Lynx.Link.lid)
                    (P.live_links p)
                with
                | l :: _ -> l
                | [] ->
                  P.sleep p (Time.ms 1);
                  next_link ()
              in
              ignore (P.call p (next_link ()) ~op:"relay" [ V.Link moved ]);
              P.sleep p (Time.ms 500)
            | _ -> inc.P.in_reply []))
  in
  let final =
    Lynx.World.spawn w ~daemon:true ~node:(hops + 1) ~name:"final" (fun p ->
        let inc = P.await_request p () in
        match inc.P.in_args with
        | [ V.Link moved ] ->
          inc.P.in_reply [];
          (match P.call p moved ~op:"ping" [] with
          | [ V.Str "origin says hi" ] -> ok := true
          | _ -> ())
        | _ -> inc.P.in_reply [])
  in
  let stations = relays @ [ final ] in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         (* origin -> hop0 -> hop1 -> ... -> final *)
         let rec wire prev = function
           | [] -> ()
           | m :: rest ->
             ignore (Lynx.World.link_between w prev m);
             wire m rest
         in
         (match stations with
         | first :: _ ->
           let l, _ = Lynx.World.link_between w origin first in
           Sync.Ivar.fill origin_link l
         | [] -> ());
         wire (List.hd stations) (List.tl stations)));
  Engine.run e;
  !ok

let relay_tests =
  on_all "link end relayed through 4 hops still connects" `Quick
    (fun backend -> checkb "connected" true (relay_chain ~hops:4 backend))
  @ on_all "link end relayed through 1 hop still connects" `Quick
      (fun backend ->
        checkb "connected" true (relay_chain ~hops:1 backend))

(* Client generations: processes are born, make calls, and die; the
   server must shrug off the churn ("long-lived system servers"). *)
let churn_tests =
  on_all "server survives generations of dying clients" `Quick
    (fun backend ->
      let e = Engine.create () in
      let w = backend.create e ~nodes:4 in
      let served = ref 0 in
      let server =
        Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
            let rec serve () =
              (match P.await_request p () with
              | inc ->
                incr served;
                inc.P.in_reply [ V.Int !served ]
              | exception Lynx.Excn.Link_destroyed -> ());
              serve ()
            in
            try serve () with Lynx.Excn.Process_terminated -> ())
      in
      (* Generations run one after another from a driver fiber. *)
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             for g = 1 to 5 do
               let client =
                 Lynx.World.spawn w ~daemon:true ~node:1
                   ~name:(Printf.sprintf "gen%d" g) (fun p ->
                     let rec wait_link () =
                       match P.live_links p with
                       | l :: _ -> l
                       | [] ->
                         P.sleep p (Time.ms 1);
                         wait_link ()
                     in
                     let lnk = wait_link () in
                     ignore (P.call p lnk ~op:"hit" [])
                     (* dies here: the link dies with it *))
               in
               ignore (Lynx.World.link_between w client server);
               (* Wait out this generation before starting the next
                  (SODA allows one process per node). *)
               Engine.sleep e (Time.ms 400)
             done));
      Engine.run e;
      checki "five generations served" 5 !served)

(* Nested RPC: stage i calls stage i+1 before replying — a call chain
   [depth] processes deep, exercising reentrant dispatch. *)
let nested_tests =
  on_all "nested RPC five processes deep" `Quick (fun backend ->
      let depth = 5 in
      let e = Engine.create () in
      let w = backend.create e ~nodes:(depth + 2) in
      let result = ref 0 in
      let stages =
        List.init depth (fun i ->
            Lynx.World.spawn w ~daemon:true ~node:(i + 1)
              ~name:(Printf.sprintf "stage%d" i) (fun p ->
                let inc = P.await_request p () in
                match inc.P.in_args with
                | [ V.Int x ] ->
                  let forward =
                    List.filter
                      (fun (l : Lynx.Link.t) ->
                        l.Lynx.Link.lid <> inc.P.in_link.Lynx.Link.lid)
                      (P.live_links p)
                  in
                  let out =
                    match forward with
                    | next :: _ -> (
                      match P.call p next ~op:"add" [ V.Int (x + 1) ] with
                      | [ V.Int y ] -> y
                      | _ -> -1)
                    | [] -> x + 1
                  in
                  inc.P.in_reply [ V.Int out ]
                | _ -> inc.P.in_reply []))
      in
      let source =
        Lynx.World.spawn w ~node:0 ~name:"source" (fun p ->
            let rec wait_link () =
              match P.live_links p with
              | l :: _ -> l
              | [] ->
                P.sleep p (Time.ms 1);
                wait_link ()
            in
            match P.call p (wait_link ()) ~op:"add" [ V.Int 0 ] with
            | [ V.Int r ] -> result := r
            | _ -> ())
      in
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             let rec wire prev = function
               | [] -> ()
               | m :: rest ->
                 ignore (Lynx.World.link_between w prev m);
                 wire m rest
             in
             ignore (Lynx.World.link_between w source (List.hd stages));
             wire (List.hd stages) (List.tl stages)));
      Engine.run e;
      checki "x incremented at every stage" depth !result)

(* Many links between one pair of processes: under SODA this presses on
   the per-pair outstanding-request limit (§4.2.1); everywhere it checks
   per-link queue independence. *)
let multilink_tests =
  on_all "six links between one pair all work concurrently" `Quick
    (fun backend ->
      let n_links = 6 in
      let e = Engine.create () in
      let w = backend.create e ~nodes:4 in
      let answers = ref [] in
      let server =
        Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
            let rec wait_links () =
              let ls = P.live_links p in
              if List.length ls >= n_links then ls
              else begin
                P.sleep p (Time.ms 1);
                wait_links ()
              end
            in
            List.iter
              (fun l ->
                P.serve p l ~op:"which" (fun _ ->
                    [ V.Int l.Lynx.Link.lid ]))
              (wait_links ());
            P.sleep p (Time.sec 60))
      in
      let client =
        Lynx.World.spawn w ~daemon:true ~node:1 ~name:"client" (fun p ->
            let rec wait_links () =
              let ls = P.live_links p in
              if List.length ls >= n_links then ls
              else begin
                P.sleep p (Time.ms 1);
                wait_links ()
              end
            in
            let links = wait_links () in
            let fin = Sync.Ivar.create e in
            let remaining = ref (List.length links) in
            List.iter
              (fun l ->
                P.spawn_thread p (fun () ->
                    (match P.call p l ~op:"which" [] with
                    | [ V.Int _ ] -> answers := l.Lynx.Link.lid :: !answers
                    | _ -> ());
                    decr remaining;
                    if !remaining = 0 then Sync.Ivar.fill fin ()))
              links;
            Sync.Ivar.read fin)
      in
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             for _ = 1 to n_links do
               ignore (Lynx.World.link_between w client server)
             done));
      Engine.run e;
      checki "all links answered" n_links (List.length !answers))

(* qcheck: for random seeds, a two-client storm completes with every
   answer correct on every backend. *)
let storm_property (backend : Harness.Backend_world.backend) =
  QCheck.Test.make
    ~name:(Printf.sprintf "storm correct for any seed [%s]" backend.name)
    ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let correct, wrong, _ = storm ~seed ~clients:2 ~calls:6 backend in
      correct = 12 && wrong = 0)

let () =
  Alcotest.run "integration"
    [
      ("storm", storm_tests);
      ("relay", relay_tests);
      ("churn", churn_tests);
      ("nested", nested_tests);
      ("multilink", multilink_tests);
      ( "properties",
        List.map
          (fun b -> QCheck_alcotest.to_alcotest (storm_property b))
          Harness.Backend_world.all );
    ]
