(* Tests for the SODA kernel simulator (paper §4.1 semantics). *)

open Sim
open Soda.Types
module K = Soda.Kernel

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* A process harness that records interrupts into a mailbox. *)
let with_kernel ?(nodes = 6) ?log_capacity f =
  let e = Engine.create ?log_capacity () in
  let k = K.create e ~nodes () in
  f e k;
  Engine.run e;
  (e, k)

let spawn_with_mailbox e k ~node ~name =
  let mb = Sync.Mailbox.create e in
  let pid_ivar = Sync.Ivar.create e in
  let body_ivar = Sync.Ivar.create e in
  ignore
    (K.spawn_process k ~daemon:true ~node ~name (fun pid ->
         K.set_handler k pid (fun intr -> Sync.Mailbox.put mb intr);
         Sync.Ivar.fill pid_ivar pid;
         let body = Sync.Ivar.read body_ivar in
         body pid));
  (mb, pid_ivar, body_ivar)

let tests =
  [
    Alcotest.test_case "names are unique" `Quick (fun () ->
        ignore
          (with_kernel (fun _e k ->
               ignore
                 (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
                      let names = List.init 100 (fun _ -> K.new_name k pid) in
                      checki "unique" 100
                        (List.length (List.sort_uniq compare names)))))));
    Alcotest.test_case "request kinds derive from buffer sizes" `Quick
      (fun () ->
        checkb "put" true (kind_of_sizes ~send_len:5 ~recv_max:0 = Put);
        checkb "get" true (kind_of_sizes ~send_len:0 ~recv_max:5 = Get);
        checkb "signal" true (kind_of_sizes ~send_len:0 ~recv_max:0 = Signal);
        checkb "exchange" true (kind_of_sizes ~send_len:5 ~recv_max:5 = Exchange));
    Alcotest.test_case "put delivered and accepted moves data" `Quick
      (fun () ->
        let data_at_server = ref Bytes.empty in
        let completion_oob = ref Bytes.empty in
        ignore
          (with_kernel (fun e k ->
               let server_mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               let client_mb, _client_pid, client_body =
                 spawn_with_mailbox e k ~node:1 ~name:"client"
               in
               let name = ref (-1) in
               Sync.Ivar.fill server_body (fun pid ->
                   let n = K.new_name k pid in
                   name := n;
                   K.advertise k pid n;
                   match Sync.Mailbox.take server_mb with
                   | Request inc ->
                     checki "send_len" 5 inc.i_send_len;
                     (match
                        K.accept k pid ~req:inc.i_id
                          ~oob:(Bytes.of_string "ok")
                          ~data:Bytes.empty ~recv_max:100
                      with
                     | Ok d -> data_at_server := d
                     | Error _ -> Alcotest.fail "accept failed")
                   | _ -> Alcotest.fail "expected request");
               Sync.Ivar.fill client_body (fun pid ->
                   let dst = Sync.Ivar.read server_pid in
                   Engine.sleep e (Time.ms 5);
                   (match
                      K.request k pid ~dst ~name:!name ~oob:Bytes.empty
                        ~data:(Bytes.of_string "hello") ~recv_max:0
                    with
                   | Ok _ -> ()
                   | Error _ -> Alcotest.fail "request failed");
                   match Sync.Mailbox.take client_mb with
                   | Completed c -> completion_oob := c.c_oob
                   | _ -> Alcotest.fail "expected completion")));
        Alcotest.check Alcotest.string "data" "hello"
          (Bytes.to_string !data_at_server);
        Alcotest.check Alcotest.string "oob" "ok"
          (Bytes.to_string !completion_oob));
    Alcotest.test_case "request to unadvertised name aborts" `Quick (fun () ->
        let reason = ref None in
        ignore
          (with_kernel (fun e k ->
               let _mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               let client_mb, _p, client_body =
                 spawn_with_mailbox e k ~node:1 ~name:"client"
               in
               (* The server must stay alive, else the abort reason would
                  be Peer_crashed. *)
               Sync.Ivar.fill server_body (fun _ -> Engine.sleep e (Time.sec 1));
               Sync.Ivar.fill client_body (fun pid ->
                   let dst = Sync.Ivar.read server_pid in
                   ignore
                     (K.request k pid ~dst ~name:4242 ~oob:Bytes.empty
                        ~data:Bytes.empty ~recv_max:0);
                   match Sync.Mailbox.take client_mb with
                   | Aborted { a_reason; _ } -> reason := Some a_reason
                   | _ -> ())));
        checkb "not advertised" true (!reason = Some Name_not_advertised));
    Alcotest.test_case "oob size limit enforced" `Quick (fun () ->
        ignore
          (with_kernel (fun _e k ->
               ignore
                 (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
                      match
                        K.request k pid ~dst:pid ~name:0
                          ~oob:(Bytes.make 64 'x') ~data:Bytes.empty ~recv_max:0
                      with
                      | Error `Oob_too_big -> ()
                      | _ -> Alcotest.fail "expected oob error")))));
    Alcotest.test_case "pair limit rejects excess requests" `Quick (fun () ->
        ignore
          (with_kernel (fun e k ->
               let _mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               Sync.Ivar.fill server_body (fun pid ->
                   K.advertise k pid (K.new_name k pid);
                   Engine.sleep e (Time.sec 1));
               ignore
                 (K.spawn_process k ~node:1 ~name:"client" (fun pid ->
                      let dst = Sync.Ivar.read server_pid in
                      let limit = (K.costs k).Soda.Costs.pair_limit in
                      let results =
                        List.init (limit + 2) (fun _ ->
                            K.request k pid ~dst ~name:999 ~oob:Bytes.empty
                              ~data:Bytes.empty ~recv_max:0)
                      in
                      let rejected =
                        List.length
                          (List.filter (fun r -> r = Error `Pair_limit) results)
                      in
                      checki "two rejected" 2 rejected;
                      checki "outstanding" limit
                        (K.outstanding k ~src:pid ~dst))))));
    Alcotest.test_case "masked handler queues completions" `Quick (fun () ->
        let delivered_while_masked = ref 0 in
        let delivered_after = ref 0 in
        ignore
          (with_kernel (fun e k ->
               let server_mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               let name = ref (-1) in
               Sync.Ivar.fill server_body (fun pid ->
                   let n = K.new_name k pid in
                   name := n;
                   K.advertise k pid n;
                   match Sync.Mailbox.take server_mb with
                   | Request inc ->
                     ignore
                       (K.accept k pid ~req:inc.i_id ~oob:Bytes.empty
                          ~data:Bytes.empty ~recv_max:0)
                   | _ -> ());
               ignore
                 (K.spawn_process k ~daemon:true ~node:1 ~name:"client"
                    (fun pid ->
                      let got = ref 0 in
                      K.set_handler k pid (fun _ -> incr got);
                      let dst = Sync.Ivar.read server_pid in
                      Engine.sleep e (Time.ms 5);
                      K.mask k pid;
                      ignore
                        (K.request k pid ~dst ~name:!name ~oob:Bytes.empty
                           ~data:Bytes.empty ~recv_max:0);
                      Engine.sleep e (Time.ms 100);
                      delivered_while_masked := !got;
                      K.unmask k pid;
                      Engine.sleep e (Time.ms 5);
                      delivered_after := !got))));
        checki "none while masked" 0 !delivered_while_masked;
        checki "delivered after unmask" 1 !delivered_after);
    Alcotest.test_case "requests retried while target masked" `Quick (fun () ->
        ignore
          (with_kernel (fun e k ->
               let sts = K.stats k in
               let _server_mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               let name = ref (-1) in
               Sync.Ivar.fill server_body (fun pid ->
                   let n = K.new_name k pid in
                   name := n;
                   K.advertise k pid n;
                   K.mask k pid;
                   Engine.sleep e (Time.ms 100);
                   K.unmask k pid;
                   Engine.sleep e (Time.ms 200);
                   checkb "retries happened" true
                     (Stats.get sts "soda.request_retries" > 0));
               ignore
                 (K.spawn_process k ~daemon:true ~node:1 ~name:"client"
                    (fun pid ->
                      K.set_handler k pid (fun _ -> ());
                      let dst = Sync.Ivar.read server_pid in
                      Engine.sleep e (Time.ms 10);
                      ignore
                        (K.request k pid ~dst ~name:!name ~oob:Bytes.empty
                           ~data:Bytes.empty ~recv_max:0);
                      (* Stay alive: a terminated requester's in-flight
                         requests die with it. *)
                      Engine.sleep e (Time.ms 400))))));
    Alcotest.test_case "crash of target aborts requester" `Quick (fun () ->
        let reason = ref None in
        ignore
          (with_kernel (fun e k ->
               let _mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               Sync.Ivar.fill server_body (fun pid ->
                   K.advertise k pid 7777;
                   (* Die without accepting. *)
                   Engine.sleep e (Time.ms 50);
                   K.terminate k pid);
               let client_mb, _p, client_body =
                 spawn_with_mailbox e k ~node:1 ~name:"client"
               in
               Sync.Ivar.fill client_body (fun pid ->
                   let dst = Sync.Ivar.read server_pid in
                   Engine.sleep e (Time.ms 5);
                   ignore
                     (K.request k pid ~dst ~name:7777 ~oob:Bytes.empty
                        ~data:Bytes.empty ~recv_max:0);
                   match Sync.Mailbox.take client_mb with
                   | Aborted { a_reason; _ } -> reason := Some a_reason
                   | _ -> ())));
        checkb "peer crashed" true (!reason = Some Peer_crashed));
    Alcotest.test_case "withdraw removes a presented request" `Quick (fun () ->
        let withdrawn_seen = ref false in
        ignore
          (with_kernel (fun e k ->
               let server_mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               Sync.Ivar.fill server_body (fun pid ->
                   K.advertise k pid 5555;
                   (match Sync.Mailbox.take server_mb with
                   | Request _ -> ()
                   | _ -> Alcotest.fail "expected request");
                   match Sync.Mailbox.take server_mb with
                   | Withdrawn _ -> withdrawn_seen := true
                   | _ -> ());
               ignore
                 (K.spawn_process k ~daemon:true ~node:1 ~name:"client"
                    (fun pid ->
                      K.set_handler k pid (fun _ -> ());
                      let dst = Sync.Ivar.read server_pid in
                      Engine.sleep e (Time.ms 5);
                      match
                        K.request k pid ~dst ~name:5555 ~oob:Bytes.empty
                          ~data:Bytes.empty ~recv_max:0
                      with
                      | Ok req ->
                        Engine.sleep e (Time.ms 50);
                        checkb "withdrawn" true (K.withdraw k pid req);
                        checki "pair count freed" 0
                          (K.outstanding k ~src:pid ~dst)
                      | Error _ -> Alcotest.fail "request failed"))));
        checkb "server told" true !withdrawn_seen);
    Alcotest.test_case "discover finds an advertiser" `Quick (fun () ->
        let found = ref None in
        ignore
          (with_kernel (fun e k ->
               let _mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               Sync.Ivar.fill server_body (fun pid ->
                   K.advertise k pid 1234;
                   Engine.sleep e (Time.sec 1));
               ignore
                 (K.spawn_process k ~node:1 ~name:"client" (fun pid ->
                      let expect = Sync.Ivar.read server_pid in
                      Engine.sleep e (Time.ms 5);
                      (* Retry: individual broadcasts are lossy. *)
                      let rec go n =
                        if n = 0 then ()
                        else
                          match K.discover k pid 1234 with
                          | Some p -> found := Some (p = expect)
                          | None -> go (n - 1)
                      in
                      go 5))));
        checkb "found the advertiser" true (!found = Some true));
    Alcotest.test_case "discover times out when nobody advertises" `Quick
      (fun () ->
        let found = ref (Some 0) in
        ignore
          (with_kernel (fun e k ->
               ignore
                 (K.spawn_process k ~node:1 ~name:"client" (fun pid ->
                      Engine.sleep e (Time.ms 5);
                      found := K.discover k pid 31337))));
        checkb "none" true (!found = None));
    Alcotest.test_case "one process per node enforced" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        ignore (K.spawn_process k ~daemon:true ~node:0 ~name:"a" (fun _ ->
            Engine.sleep e (Time.sec 1)));
        checkb "second rejected" true
          (match K.spawn_process k ~node:0 ~name:"b" (fun _ -> ()) with
          | _ -> false
          | exception Invalid_argument _ -> true);
        Engine.run e);
    Alcotest.test_case "exchange moves data both ways" `Quick (fun () ->
        let server_got = ref "" and client_got = ref "" in
        ignore
          (with_kernel (fun e k ->
               let server_mb, server_pid, server_body =
                 spawn_with_mailbox e k ~node:0 ~name:"server"
               in
               Sync.Ivar.fill server_body (fun pid ->
                   K.advertise k pid 6060;
                   match Sync.Mailbox.take server_mb with
                   | Request inc ->
                     checkb "exchange" true
                       (kind_of_sizes ~send_len:inc.i_send_len
                          ~recv_max:inc.i_recv_max
                       = Exchange);
                     (match
                        K.accept k pid ~req:inc.i_id ~oob:Bytes.empty
                          ~data:(Bytes.of_string "from-server") ~recv_max:100
                      with
                     | Ok d -> server_got := Bytes.to_string d
                     | Error _ -> ())
                   | _ -> ());
               let client_mb, _p, client_body =
                 spawn_with_mailbox e k ~node:1 ~name:"client"
               in
               Sync.Ivar.fill client_body (fun pid ->
                   let dst = Sync.Ivar.read server_pid in
                   Engine.sleep e (Time.ms 5);
                   ignore
                     (K.request k pid ~dst ~name:6060 ~oob:Bytes.empty
                        ~data:(Bytes.of_string "from-client") ~recv_max:100);
                   match Sync.Mailbox.take client_mb with
                   | Completed c -> client_got := Bytes.to_string c.c_data
                   | _ -> ())));
        Alcotest.check Alcotest.string "server" "from-client" !server_got;
        Alcotest.check Alcotest.string "client" "from-server" !client_got);
  ]

(* [n] accepted requests of [data] (0 B by default) on an unobserved
   engine (no consumer, nothing retained), interrupts included: the
   kernel primitive a LYNX message costs on SODA.  Returns the kernel. *)
let request_accepts ?(data = Bytes.empty) n =
  snd
    (with_kernel ~log_capacity:0 (fun e k ->
         let server_mb, server_pid, server_body =
           spawn_with_mailbox e k ~node:0 ~name:"server"
         in
         let client_mb, _, client_body =
           spawn_with_mailbox e k ~node:1 ~name:"client"
         in
         let name = Sync.Ivar.create e in
         Sync.Ivar.fill server_body (fun pid ->
             let advertised = K.new_name k pid in
             K.advertise k pid advertised;
             Sync.Ivar.fill name advertised;
             for _ = 1 to n do
               match Sync.Mailbox.take server_mb with
               | Request inc ->
                 ignore
                   (K.accept k pid ~req:inc.i_id ~oob:Bytes.empty
                      ~data:Bytes.empty ~recv_max:0)
               | _ -> Alcotest.fail "expected a request"
             done);
         Sync.Ivar.fill client_body (fun pid ->
             let dst = Sync.Ivar.read server_pid in
             let name = Sync.Ivar.read name in
             for _ = 1 to n do
               ignore
                 (K.request k pid ~dst ~name ~oob:Bytes.empty ~data
                    ~recv_max:0);
               match Sync.Mailbox.take client_mb with
               | Completed _ -> ()
               | _ -> Alcotest.fail "expected a completion"
             done)))

let allocation_tests =
  [
    Alcotest.test_case "words per request+accept" `Quick (fun () ->
        Budgets.check "kernel.soda"
          (Budgets.words_per_iter (fun n -> ignore (request_accepts n))));
    (* A finished request must not stay in the kernel's tables: from
       1,000 to 4,000 sequential 100 B requests the kernel grows by less
       than a word per request. *)
    Alcotest.test_case "finished requests leave the kernel" `Quick (fun () ->
        let words n =
          Obj.reachable_words
            (Obj.repr (request_accepts ~data:(Bytes.make 100 'x') n))
        in
        let growth = words 4000 - words 1000 in
        checkb
          (Printf.sprintf "grew %d words over 3,000 requests" growth)
          true (growth < 3000));
  ]

let () =
  Alcotest.run "soda_kernel"
    [ ("kernel", tests); ("allocation", allocation_tests) ]
