(* Cross-backend semantics tests: every LYNX language rule from §2 of
   the paper, run identically on Charlotte, SODA and Chrysalis.  The
   whole point of the paper is that the same language behaviour must
   emerge from three radically different kernels. *)

open Sim
module P = Lynx.Process
module V = Lynx.Value
module T = Lynx.Ty

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* A two-process world: the server body and client body each get their
   end of a bootstrap link. *)
type duo = {
  d_engine : Engine.t;
  d_stats : Stats.t;
}

let duo (backend : Harness.Backend_world.backend) ~server ~client =
  let e = Engine.create () in
  let w = backend.create e ~nodes:4 in
  let ls = Sync.Ivar.create e and lc = Sync.Ivar.create e in
  let ms =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
        server p (Sync.Ivar.read ls))
  in
  let mc =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"client" (fun p ->
        client p (Sync.Ivar.read lc))
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         let c_end, s_end = Lynx.World.link_between w mc ms in
         Sync.Ivar.fill ls s_end;
         Sync.Ivar.fill lc c_end));
  Engine.run e;
  { d_engine = e; d_stats = Lynx.World.stats w }

(* Serve [op] forever with [fn]. *)
let echo_server ?sg op fn p lnk =
  P.serve p lnk ~op ?sg fn;
  P.sleep p (Time.sec 30)

let on_all = Each_backend.on_all

let call_tests =
  on_all "call returns handler result" `Quick (fun backend ->
      let result = ref [] in
      ignore
        (duo
           backend
           ~server:
             (echo_server "double"
                ~sg:(T.signature [ T.Int ] ~results:[ T.Int ])
                (function [ V.Int x ] -> [ V.Int (2 * x) ] | _ -> assert false))
           ~client:(fun p lnk ->
             result := P.call p lnk ~op:"double" [ V.Int 21 ]));
      checkb "42" true (V.equal (V.List !result) (V.List [ V.Int 42 ])))
  @ on_all "sequential calls complete in order" `Quick (fun backend ->
        let results = ref [] in
        ignore
          (duo
             backend
             ~server:
               (echo_server "inc" (function
                 | [ V.Int x ] -> [ V.Int (x + 1) ]
                 | _ -> []))
             ~client:(fun p lnk ->
               for i = 1 to 5 do
                 match P.call p lnk ~op:"inc" [ V.Int i ] with
                 | [ V.Int r ] -> results := r :: !results
                 | _ -> ()
               done));
        Alcotest.check
          Alcotest.(list int)
          "order" [ 2; 3; 4; 5; 6 ] (List.rev !results))
  @ on_all "concurrent coroutine calls all complete" `Quick (fun backend ->
        let done_count = ref 0 in
        ignore
          (duo
             backend
             ~server:
               (echo_server "id" (function [ v ] -> [ v ] | _ -> []))
             ~client:(fun p lnk ->
               let eng = P.engine p in
               let fin = Sync.Ivar.create eng in
               let remaining = ref 4 in
               for i = 1 to 4 do
                 P.spawn_thread p (fun () ->
                     (match P.call p lnk ~op:"id" [ V.Int i ] with
                     | [ V.Int r ] when r = i -> incr done_count
                     | _ -> ());
                     decr remaining;
                     if !remaining = 0 then Sync.Ivar.fill fin ())
               done;
               Sync.Ivar.read fin));
        checki "all four" 4 !done_count)
  @ on_all "sending blocks the calling coroutine (stop-and-wait)" `Quick
      (fun backend ->
        (* The reply takes at least one network round trip; the call must
           not return before simulated time has advanced. *)
        let elapsed = ref Time.zero in
        ignore
          (duo
             backend
             ~server:(echo_server "id" (fun vs -> vs))
             ~client:(fun p lnk ->
               let t0 = Engine.now (P.engine p) in
               ignore (P.call p lnk ~op:"id" [ V.Int 0 ]);
               elapsed := Time.sub (Engine.now (P.engine p)) t0));
        checkb "time advanced" true Time.(!elapsed > Time.ms 1))
  @ on_all "payload survives round trip" `Quick (fun backend ->
        let ok = ref false in
        let big = String.init 1200 (fun i -> Char.chr (i mod 256)) in
        ignore
          (duo
             backend
             ~server:(echo_server "echo" (fun vs -> vs))
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"echo" [ V.Str big; V.Int 5 ] with
               | [ V.Str s; V.Int 5 ] -> ok := String.equal s big
               | _ -> ()));
        checkb "intact" true !ok)

(* Every shape of signature mismatch, on every backend.  Server-side
   checks come back to the caller as [Remote_error] carrying the
   "type error:" rendering; the caller-side [~expect] check raises
   [Type_error] directly. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let remote_error_of p lnk ~op args =
  match P.call p lnk ~op args with
  | _ -> None
  | exception Lynx.Excn.Remote_error m -> Some m

let signature_matrix_tests =
  let mismatch name ~sg ~handler ~args ~expect_mention =
    on_all name `Quick (fun backend ->
        let got = ref None in
        ignore
          (duo
             backend
             ~server:(echo_server "typed" ~sg handler)
             ~client:(fun p lnk -> got := remote_error_of p lnk ~op:"typed" args));
        match !got with
        | None -> Alcotest.fail "call succeeded despite the mismatch"
        | Some m ->
          checkb
            (Printf.sprintf "mentions %S (got %S)" expect_mention m)
            true
            (contains m "type error" && contains m expect_mention))
  in
  mismatch "argument arity mismatch"
    ~sg:(T.signature [ T.Int; T.Int ] ~results:[ T.Int ])
    ~handler:(fun _ -> [ V.Int 0 ])
    ~args:[ V.Int 1 ] ~expect_mention:"arguments"
  @ mismatch "argument type mismatch"
      ~sg:(T.signature [ T.Int ] ~results:[ T.Int ])
      ~handler:(fun _ -> [ V.Int 0 ])
      ~args:[ V.Str "not an int" ] ~expect_mention:"arguments"
  @ mismatch "result type mismatch"
      ~sg:(T.signature [] ~results:[ T.Str ])
      ~handler:(fun _ -> [ V.Int 42 ])
      ~args:[] ~expect_mention:"results"
  @ mismatch "non-link where enclosure expected"
      ~sg:(T.signature [ T.Link ] ~results:[])
      ~handler:(fun _ -> [])
      ~args:[ V.Int 9 ] ~expect_mention:"arguments"
  @ on_all "link where non-link expected" `Quick (fun backend ->
        let got = ref None in
        ignore
          (duo
             backend
             ~server:
               (echo_server "typed"
                  ~sg:(T.signature [ T.Int ] ~results:[])
                  (fun _ -> []))
             ~client:(fun p lnk ->
               let near, _far = P.new_link p in
               got := remote_error_of p lnk ~op:"typed" [ V.Link near ]));
        match !got with
        | None -> Alcotest.fail "call succeeded despite the mismatch"
        | Some m ->
          checkb "mentions arguments" true
            (contains m "type error" && contains m "arguments"))
  @ on_all "reply arity mismatch with ~expect" `Quick (fun backend ->
        let raised = ref false in
        ignore
          (duo
             backend
             ~server:(echo_server "pair" (fun _ -> [ V.Int 1; V.Int 2 ]))
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"pair" ~expect:[ T.Int ] [] with
               | _ -> ()
               | exception Lynx.Excn.Type_error _ -> raised := true));
        checkb "raised" true !raised)

let error_tests =
  on_all "handler exception becomes Remote_error" `Quick (fun backend ->
      let got = ref "" in
      ignore
        (duo
           backend
           ~server:(echo_server "boom" (fun _ -> failwith "handler exploded"))
           ~client:(fun p lnk ->
             match P.call p lnk ~op:"boom" [] with
             | _ -> got := "no exception"
             | exception Lynx.Excn.Remote_error m -> got := m));
      checkb "mentions failure" true
        (String.length !got > 0 && !got <> "no exception"))
  @ on_all "argument type mismatch rejected" `Quick (fun backend ->
        let rejected = ref false in
        ignore
          (duo
             backend
             ~server:
               (echo_server "typed"
                  ~sg:(T.signature [ T.Int ] ~results:[ T.Int ])
                  (function [ V.Int x ] -> [ V.Int x ] | _ -> assert false))
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"typed" [ V.Str "not an int" ] with
               | _ -> ()
               | exception Lynx.Excn.Remote_error _ -> rejected := true));
        checkb "rejected" true !rejected)
  @ on_all "unknown operation rejected" `Quick (fun backend ->
        let rejected = ref false in
        ignore
          (duo
             backend
             ~server:(echo_server "known" (fun vs -> vs))
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"unknown" [] with
               | _ -> ()
               | exception Lynx.Excn.Remote_error _ -> rejected := true));
        checkb "rejected" true !rejected)
  @ on_all "reply type check with ~expect" `Quick (fun backend ->
        let raised = ref false in
        ignore
          (duo
             backend
             ~server:(echo_server "lie" (fun _ -> [ V.Str "not an int" ]))
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"lie" ~expect:[ T.Int ] [] with
               | _ -> ()
               | exception Lynx.Excn.Type_error _ -> raised := true));
        checkb "raised" true !raised)
  @ on_all "call on destroyed link raises" `Quick (fun backend ->
        let raised = ref false in
        ignore
          (duo
             backend
             ~server:(fun p _lnk -> P.sleep p (Time.sec 30))
             ~client:(fun p lnk ->
               P.destroy_link p lnk;
               match P.call p lnk ~op:"x" [] with
               | _ -> ()
               | exception Lynx.Excn.Link_destroyed -> raised := true));
        checkb "raised" true !raised)
  @ on_all "peer termination wakes blocked caller" `Quick (fun backend ->
        let raised = ref false in
        ignore
          (duo
             backend
             ~server:(fun p _lnk ->
               (* Never serve; die after a while holding the link. *)
               P.sleep p (Time.ms 200))
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"x" [] with
               | _ -> ()
               | exception
                   (Lynx.Excn.Link_destroyed | Lynx.Excn.Process_terminated) ->
                 raised := true));
        checkb "raised" true !raised)

let move_tests =
  on_all "enclosed end is usable by the receiver" `Quick (fun backend ->
      let ok = ref false in
      ignore
        (duo
           backend
           ~server:(fun p lnk ->
             let inc = P.await_request p ~links:[ lnk ] () in
             match inc.P.in_args with
             | [ V.Link moved ] ->
               inc.P.in_reply [];
               (* Serve a ping on the moved link. *)
               let ping = P.await_request p ~links:[ moved ] () in
               ping.P.in_reply [ V.Str "pong" ]
             | _ -> inc.P.in_reply [])
           ~client:(fun p lnk ->
             let near, far = P.new_link p in
             ignore (P.call p lnk ~op:"take" [ V.Link near ]);
             (* Talk to the server over the link we just gave it. *)
             match P.call p far ~op:"ping" [] with
             | [ V.Str "pong" ] -> ok := true
             | _ -> ()));
      checkb "pong over moved link" true !ok)
  @ on_all "moved-away handle becomes invalid" `Quick (fun backend ->
        let raised = ref false in
        ignore
          (duo
             backend
             ~server:(fun p lnk ->
               let inc = P.await_request p ~links:[ lnk ] () in
               inc.P.in_reply [];
               P.sleep p (Time.ms 100))
             ~client:(fun p lnk ->
               let near, _far = P.new_link p in
               ignore (P.call p lnk ~op:"take" [ V.Link near ]);
               match P.call p near ~op:"x" [] with
               | _ -> ()
               | exception Lynx.Excn.Invalid_link -> raised := true));
        checkb "invalid" true !raised)
  @ on_all "cannot enclose the end used for sending" `Quick
      (fun backend ->
        let raised = ref false in
        ignore
          (duo
             backend
             ~server:(fun p _ -> P.sleep p (Time.ms 100))
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"x" [ V.Link lnk ] with
               | _ -> ()
               | exception Lynx.Excn.Move_violation _ -> raised := true));
        checkb "raised" true !raised)
  @ on_all "cannot move an end that owes a reply" `Quick (fun backend ->
        let raised = ref false in
        ignore
          (duo
             backend
             ~server:(fun p lnk ->
               let inc = P.await_request p ~links:[ lnk ] () in
               (* Before replying, try to ship the same end away. *)
               let spare, _keep = P.new_link p in
               ignore spare;
               (match
                  P.call p lnk ~op:"nested" [ V.Link inc.P.in_link ]
                with
               | _ -> ()
               | exception Lynx.Excn.Move_violation _ -> raised := true);
               inc.P.in_reply [])
             ~client:(fun p lnk -> ignore (P.call p lnk ~op:"first" [])));
        checkb "raised" true !raised)
  @ on_all "reply may carry link ends" `Quick (fun backend ->
        let ok = ref false in
        ignore
          (duo
             backend
             ~server:(fun p lnk ->
               let inc = P.await_request p ~links:[ lnk ] () in
               let near, far = P.new_link p in
               inc.P.in_reply [ V.Link near ];
               (* Serve on the end we kept. *)
               let ping = P.await_request p ~links:[ far ] () in
               ping.P.in_reply [ V.Int 99 ])
             ~client:(fun p lnk ->
               match P.call p lnk ~op:"gimme" [] with
               | [ V.Link granted ] -> (
                 match P.call p granted ~op:"use" [] with
                 | [ V.Int 99 ] -> ok := true
                 | _ -> ())
               | _ -> ()));
        checkb "granted link works" true !ok)
  @ on_all "three-hop relay of one end" `Quick (fun backend ->
        (* client -> server passes through an intermediary: the end hops
           twice and still connects back to the client. *)
        let ok = ref false in
        let e = Engine.create () in
        let w = backend.create e ~nodes:6 in
        let l_ab = Sync.Ivar.create e
        and l_ba = Sync.Ivar.create e
        and l_bc = Sync.Ivar.create e
        and l_cb = Sync.Ivar.create e in
        let a =
          Lynx.World.spawn w ~daemon:true ~node:0 ~name:"a" (fun p ->
              let ab = Sync.Ivar.read l_ab in
              let near, far = P.new_link p in
              ignore (P.call p ab ~op:"relay" [ V.Link near ]);
              (* Whoever ends up with the moved end pings us. *)
              let ping = P.await_request p ~links:[ far ] () in
              ping.P.in_reply [ V.Str "hi from a" ])
        in
        let b =
          Lynx.World.spawn w ~daemon:true ~node:1 ~name:"b" (fun p ->
              let ba = Sync.Ivar.read l_ba and bc = Sync.Ivar.read l_bc in
              ignore ba;
              let inc = P.await_request p () in
              match inc.P.in_args with
              | [ V.Link moved ] ->
                inc.P.in_reply [];
                ignore (P.call p bc ~op:"relay" [ V.Link moved ])
              | _ -> inc.P.in_reply [])
        in
        let c =
          Lynx.World.spawn w ~daemon:true ~node:2 ~name:"c" (fun p ->
              let cb = Sync.Ivar.read l_cb in
              ignore cb;
              let inc = P.await_request p () in
              match inc.P.in_args with
              | [ V.Link moved ] ->
                inc.P.in_reply [];
                (match P.call p moved ~op:"ping" [] with
                | [ V.Str "hi from a" ] -> ok := true
                | _ -> ())
              | _ -> inc.P.in_reply [])
        in
        ignore
          (Engine.spawn e ~name:"driver" (fun () ->
               let ab, ba = Lynx.World.link_between w a b in
               let bc, cb = Lynx.World.link_between w b c in
               Sync.Ivar.fill l_ab ab;
               Sync.Ivar.fill l_ba ba;
               Sync.Ivar.fill l_bc bc;
               Sync.Ivar.fill l_cb cb));
        Engine.run e;
        checkb "relayed end still connects" true !ok)

let queue_tests =
  on_all "requests on one link served FIFO" `Quick (fun backend ->
      let order = ref [] in
      ignore
        (duo
           backend
           ~server:(fun p lnk ->
             (* Persistent willingness: an idiomatic serve loop keeps its
                request queue open between block points. *)
             P.open_queue p lnk;
             for _ = 1 to 4 do
               let inc = P.await_request p ~links:[ lnk ] () in
               (match inc.P.in_args with
               | [ V.Int i ] -> order := i :: !order
               | _ -> ());
               inc.P.in_reply []
             done)
           ~client:(fun p lnk ->
             let eng = P.engine p in
             let fin = Sync.Ivar.create eng in
             let remaining = ref 4 in
             (* Stagger the coroutines so send order is deterministic. *)
             for i = 1 to 4 do
               P.spawn_thread p (fun () ->
                   P.sleep p (Time.ms (5 * i));
                   ignore (P.call p lnk ~op:"n" [ V.Int i ]);
                   decr remaining;
                   if !remaining = 0 then Sync.Ivar.fill fin ())
             done;
             Sync.Ivar.read fin));
      Alcotest.check Alcotest.(list int) "fifo" [ 1; 2; 3; 4 ] (List.rev !order))
  @ on_all "closed queue defers receipt until reopened" `Quick
      (fun backend ->
        let served_at = ref Time.zero in
        ignore
          (duo
             backend
             ~server:(fun p lnk ->
               (* Not willing for the first 50 ms. *)
               P.sleep p (Time.ms 50);
               let inc = P.await_request p ~links:[ lnk ] () in
               served_at := Engine.now (P.engine p);
               inc.P.in_reply [])
             ~client:(fun p lnk -> ignore (P.call p lnk ~op:"x" [])));
        checkb "not before 50ms" true Time.(!served_at >= Time.ms 50))
  @ on_all "fairness: neither queue is starved" `Quick (fun backend ->
        (* Two clients hammer one server over two links; the server takes
           whatever is ready.  Both clients must make progress. *)
        let served = Array.make 2 0 in
        let e = Engine.create () in
        let w = backend.create e ~nodes:6 in
        let server =
          Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
              (* Keep both request queues open for the whole serve loop
                 (otherwise Charlotte's bounce machinery lets whichever
                 client wins the first race monopolize the server). *)
              let rec wait_two () =
                match P.live_links p with
                | (_ :: _ :: _) as ls -> ls
                | _ ->
                  P.sleep p (Time.ms 1);
                  wait_two ()
              in
              List.iter (P.open_queue p) (wait_two ());
              for _ = 1 to 12 do
                let inc = P.await_request p () in
                (match inc.P.in_args with
                | [ V.Int who ] -> served.(who) <- served.(who) + 1
                | _ -> ());
                inc.P.in_reply []
              done)
        in
        let mk_client who node =
          Lynx.World.spawn w ~daemon:true ~node ~name:(Printf.sprintf "c%d" who)
            (fun p ->
              let rec wait_link () =
                match P.live_links p with
                | l :: _ -> l
                | [] ->
                  P.sleep p (Time.ms 1);
                  wait_link ()
              in
              let lnk = wait_link () in
              for _ = 1 to 10 do
                try ignore (P.call p lnk ~op:"hit" [ V.Int who ])
                with Lynx.Excn.Link_destroyed | Lynx.Excn.Process_terminated ->
                  ()
              done)
        in
        let c0 = mk_client 0 1 and c1 = mk_client 1 2 in
        ignore
          (Engine.spawn e ~name:"driver" (fun () ->
               ignore (Lynx.World.link_between w c0 server);
               ignore (Lynx.World.link_between w c1 server)));
        Engine.run e;
        checkb "both served" true (served.(0) >= 3 && served.(1) >= 3))
  @ on_all "await_request filters by link" `Quick (fun backend ->
        let first_op = ref "" in
        let e = Engine.create () in
        let w = backend.create e ~nodes:6 in
        let server =
          Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
              let rec wait_two () =
                match P.live_links p with
                | a :: b :: _ -> (a, b)
                | _ ->
                  P.sleep p (Time.ms 1);
                  wait_two ()
              in
              let a, b = wait_two () in
              ignore a;
              (* Serve only the second link, though the first client
                 sends first. *)
              let inc = P.await_request p ~links:[ b ] () in
              first_op := inc.P.in_op;
              inc.P.in_reply [];
              (* Then drain the other. *)
              let inc2 = P.await_request p () in
              inc2.P.in_reply [])
        in
        let mk name node op delay =
          Lynx.World.spawn w ~daemon:true ~node ~name (fun p ->
              let rec wait_link () =
                match P.live_links p with
                | l :: _ -> l
                | [] ->
                  P.sleep p (Time.ms 1);
                  wait_link ()
              in
              let lnk = wait_link () in
              P.sleep p delay;
              try ignore (P.call p lnk ~op []) with _ -> ())
        in
        let c1 = mk "c1" 1 "from-first" (Time.ms 5) in
        let c2 = mk "c2" 2 "from-second" (Time.ms 40) in
        ignore
          (Engine.spawn e ~name:"driver" (fun () ->
               ignore (Lynx.World.link_between w c1 server);
               ignore (Lynx.World.link_between w c2 server)));
        Engine.run e;
        Alcotest.check Alcotest.string "second link first" "from-second"
          !first_op)

let lifecycle_tests =
  on_all "finish releases blocked threads" `Quick (fun backend ->
      let released = ref false in
      ignore
        (duo
           backend
           ~server:(fun p lnk ->
             ignore lnk;
             P.sleep p (Time.sec 30))
           ~client:(fun p lnk ->
             P.spawn_thread p (fun () ->
                 try ignore (P.call p lnk ~op:"never" []) with
                 | Lynx.Excn.Process_terminated | Lynx.Excn.Link_destroyed ->
                   released := true);
             (* Returning terminates the process while the thread is
                blocked in its call. *)
             P.sleep p (Time.ms 30)));
      checkb "released" true !released)
  @ on_all "thread failures are recorded, not fatal" `Quick (fun backend ->
        let failures = ref 0 in
        ignore
          (duo
             backend
             ~server:(fun p _ -> P.sleep p (Time.ms 50))
             ~client:(fun p _lnk ->
               P.spawn_thread p (fun () -> failwith "thread oops");
               P.sleep p (Time.ms 20);
               failures := List.length (P.failures p)));
        checki "one failure" 1 !failures)
  @ on_all "destroying one end notifies the other process" `Quick
      (fun backend ->
        let notified = ref false in
        ignore
          (duo
             backend
             ~server:(fun p lnk ->
               match P.await_request p ~links:[ lnk ] () with
               | _ -> ()
               | exception Lynx.Excn.Link_destroyed -> notified := true)
             ~client:(fun p lnk ->
               P.sleep p (Time.ms 30);
               P.destroy_link p lnk;
               P.sleep p (Time.ms 300)));
        checkb "notified" true !notified)
  @ on_all "live_links reflects gains and losses" `Quick (fun backend ->
        let counts = ref [] in
        ignore
          (duo
             backend
             ~server:(fun p _ -> P.sleep p (Time.sec 30))
             ~client:(fun p lnk ->
               counts := List.length (P.live_links p) :: !counts;
               let _a, _b = P.new_link p in
               counts := List.length (P.live_links p) :: !counts;
               P.destroy_link p lnk;
               counts := List.length (P.live_links p) :: !counts));
        Alcotest.check
          Alcotest.(list int)
          "counts" [ 1; 3; 2 ] (List.rev !counts))

(* The ablation variants (reply acks, hint-based kernel moves, tuned
   runtime) must preserve LYNX semantics, not just change costs. *)
let variant_tests =
  let variants =
    [
      Harness.Backend_world.charlotte_acks;
      Harness.Backend_world.charlotte_hints;
      Harness.Backend_world.chrysalis_tuned;
    ]
  in
  List.concat_map
    (fun (backend : Harness.Backend_world.backend) ->
      [
        Alcotest.test_case
          (Printf.sprintf "call/serve round trip [%s]" backend.name)
          `Quick
          (fun () ->
            let result = ref [] in
            ignore
              (duo
                 backend
                 ~server:
                   (echo_server "double" (function
                     | [ V.Int x ] -> [ V.Int (2 * x) ]
                     | _ -> []))
                 ~client:(fun p lnk ->
                   result := P.call p lnk ~op:"double" [ V.Int 21 ]));
            checkb "42" true (V.equal (V.List !result) (V.List [ V.Int 42 ])));
        Alcotest.test_case
          (Printf.sprintf "concurrent calls all complete [%s]" backend.name)
          `Quick
          (fun () ->
            let done_count = ref 0 in
            ignore
              (duo
                 backend
                 ~server:(echo_server "id" (function [ v ] -> [ v ] | _ -> []))
                 ~client:(fun p lnk ->
                   let eng = P.engine p in
                   let fin = Sync.Ivar.create eng in
                   let remaining = ref 4 in
                   for i = 1 to 4 do
                     P.spawn_thread p (fun () ->
                         (match P.call p lnk ~op:"id" [ V.Int i ] with
                         | [ V.Int r ] when r = i -> incr done_count
                         | _ -> ());
                         decr remaining;
                         if !remaining = 0 then Sync.Ivar.fill fin ())
                   done;
                   Sync.Ivar.read fin));
            checki "all four" 4 !done_count);
        Alcotest.test_case
          (Printf.sprintf "moved end still works [%s]" backend.name)
          `Quick
          (fun () ->
            let ok = ref false in
            ignore
              (duo
                 backend
                 ~server:(fun p lnk ->
                   let inc = P.await_request p ~links:[ lnk ] () in
                   (match inc.P.in_args with
                   | [ V.Link moved ] ->
                     inc.P.in_reply [];
                     let ping = P.await_request p ~links:[ moved ] () in
                     ping.P.in_reply [ V.Str "pong" ]
                   | _ -> inc.P.in_reply []);
                   P.sleep p (Time.ms 200))
                 ~client:(fun p lnk ->
                   let near, far = P.new_link p in
                   ignore (P.call p lnk ~op:"take" [ V.Link near ]);
                   (match P.call p far ~op:"ping" [] with
                   | [ V.Str "pong" ] -> ok := true
                   | _ -> ());
                   P.sleep p (Time.ms 200)));
            checkb "pong over moved link" true !ok);
      ])
    variants

let () =
  ignore (fun (d : duo) -> d.d_stats);
  ignore (fun (d : duo) -> d.d_engine);
  Alcotest.run "lynx_semantics"
    [
      ("call", call_tests);
      ("errors", error_tests);
      ("signature-matrix", signature_matrix_tests);
      ("moves", move_tests);
      ("queues", queue_tests);
      ("lifecycle", lifecycle_tests);
      ("variants", variant_tests);
    ]
