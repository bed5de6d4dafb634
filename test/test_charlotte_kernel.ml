(* Tests for the Charlotte kernel simulator (paper §3.1 semantics). *)

open Sim
open Charlotte.Types
module K = Charlotte.Kernel

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_status msg exp got =
  Alcotest.check Alcotest.string msg (status_to_string exp) (status_to_string got)

(* Run a two-process scenario: [a] and [b] get their pids and a link end
   each; the engine runs to completion. *)
let two_procs ?(on_crash = `Raise) ?log_capacity a b =
  let e = Engine.create ~on_crash ?log_capacity () in
  let k = K.create e ~nodes:4 () in
  let ends = Sync.Ivar.create e in
  let pa =
    K.spawn_process k ~node:0 ~name:"A" (fun pid ->
        let e0, _ = Sync.Ivar.read ends in
        a k pid e0)
  in
  let _pb =
    K.spawn_process k ~node:1 ~name:"B" (fun pid ->
        let _, e1 = Sync.Ivar.read ends in
        b k pid e1)
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         match K.make_link k pa with
         | Some (e0, e1) ->
           K.transfer_end k e1 ~to_:(pa + 1);
           Sync.Ivar.fill ends (e0, e1)
         | None -> assert false));
  Engine.run e;
  e

let payload n = Bytes.make n 'p'

let tests =
  [
    Alcotest.test_case "make_link returns two ends of one link" `Quick
      (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               match K.make_link k pid with
               | Some (e0, e1) ->
                 checki "same link" e0.link_id e1.link_id;
                 checkb "sides differ" true (e0.side <> e1.side);
                 checkb "owned" true
                   (K.For_tests.owner_of k e0 = Some pid && K.For_tests.owner_of k e1 = Some pid)
               | None -> Alcotest.fail "no link"));
        Engine.run e);
    Alcotest.test_case "send matches receive and transfers data" `Quick
      (fun () ->
        let got = ref Bytes.empty in
        ignore
          (two_procs
             (fun k pid e0 ->
               check_status "send" Ok_done (K.send k pid e0 (payload 10));
               let c = K.wait k pid in
               check_status "sent ok" Ok_done c.c_status;
               checkb "dir" true (c.c_dir = Sent))
             (fun k pid e1 ->
               check_status "recv" Ok_done (K.receive k pid e1 ~max_len:100);
               let c = K.wait k pid in
               check_status "recvd ok" Ok_done c.c_status;
               got := c.c_data));
        checki "len" 10 (Bytes.length !got));
    Alcotest.test_case "completion reports length and direction" `Quick
      (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               ignore (K.send k pid e0 (payload 42));
               let c = K.wait k pid in
               checki "length" 42 c.c_length)
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:100);
               let c = K.wait k pid in
               checki "length" 42 c.c_length;
               checkb "dir" true (c.c_dir = Received))));
    Alcotest.test_case "only one outstanding activity per direction" `Quick
      (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               check_status "first" Ok_done (K.send k pid e0 (payload 1));
               check_status "second busy" E_busy (K.send k pid e0 (payload 1));
               ignore (K.receive k pid e0 ~max_len:10);
               check_status "recv busy" E_busy (K.receive k pid e0 ~max_len:10);
               ignore (K.wait k pid))
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               ignore (K.wait k pid))));
    Alcotest.test_case "message truncated to receive buffer" `Quick (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               ignore (K.send k pid e0 (payload 100));
               ignore (K.wait k pid))
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               let c = K.wait k pid in
               check_status "too long" E_too_long c.c_status;
               checki "truncated" 10 (Bytes.length c.c_data))));
    Alcotest.test_case "cancel succeeds before match" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               match K.make_link k pid with
               | Some (e0, _e1) ->
                 check_status "recv" Ok_done (K.receive k pid e0 ~max_len:10);
                 check_status "cancel ok" Ok_done (K.cancel k pid e0 Received);
                 check_status "nothing left" E_no_activity
                   (K.cancel k pid e0 Received)
               | None -> Alcotest.fail "no link"));
        Engine.run e);
    Alcotest.test_case "cancel fails after match" `Quick (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               ignore (K.send k pid e0 (payload 5));
               ignore (K.wait k pid))
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               (* Give the kernel time to match. *)
               Engine.sleep (K.engine k) (Time.ms 5);
               check_status "busy" E_busy (K.cancel k pid e1 Received);
               let c = K.wait k pid in
               check_status "still delivered" Ok_done c.c_status)));
    Alcotest.test_case "cancelled send returns enclosure to owner" `Quick
      (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               let l1 = Option.get (K.make_link k pid) in
               let enc, _ = Option.get (K.make_link k pid) in
               let e0, _ = l1 in
               check_status "send" Ok_done
                 (K.send k pid e0 ~enclosure:enc (payload 1));
               checkb "enclosure in transit" true (K.For_tests.owner_of k enc = None);
               check_status "cancel" Ok_done (K.cancel k pid e0 Sent);
               checkb "enclosure back" true (K.For_tests.owner_of k enc = Some pid)));
        Engine.run e);
    Alcotest.test_case "enclosure moves ownership on delivery" `Quick
      (fun () ->
        let owner_after = ref None in
        let enc_ref = ref None in
        ignore
          (two_procs
             (fun k pid e0 ->
               let enc, _ = Option.get (K.make_link k pid) in
               enc_ref := Some enc;
               check_status "send" Ok_done
                 (K.send k pid e0 ~enclosure:enc (payload 1));
               ignore (K.wait k pid);
               (* Stay alive: our death would destroy the enclosed link
                  (we still hold its other end) before B checks it. *)
               Engine.sleep (K.engine k) (Time.ms 50))
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               let c = K.wait k pid in
               (match c.c_enclosure with
               | Some enc -> owner_after := K.For_tests.owner_of k enc
               | None -> Alcotest.fail "no enclosure");
               checkb "receiver owns it" true (!owner_after = Some pid))));
    Alcotest.test_case "cannot enclose an end of the carrying link" `Quick
      (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               let e0, e1 = Option.get (K.make_link k pid) in
               check_status "self" E_enclosure_self
                 (K.send k pid e0 ~enclosure:e1 (payload 1))));
        Engine.run e);
    Alcotest.test_case "cannot enclose a busy end" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               let e0, _ = Option.get (K.make_link k pid) in
               let enc, _ = Option.get (K.make_link k pid) in
               ignore (K.receive k pid enc ~max_len:10);
               check_status "busy" E_enclosure_busy
                 (K.send k pid e0 ~enclosure:enc (payload 1))));
        Engine.run e);
    Alcotest.test_case "cannot use an end one does not own" `Quick (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               ignore (K.send k pid e0 (payload 1));
               ignore (K.wait k pid))
             (fun k pid e1 ->
               (* Use the peer's end, which we do not own. *)
               let foreign = { e1 with side = 1 - e1.side } in
               check_status "bad end" E_bad_end
                 (K.send k pid foreign (payload 1));
               ignore (K.receive k pid e1 ~max_len:10);
               ignore (K.wait k pid))));
    Alcotest.test_case "destroy completes pending activities" `Quick (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               ignore (K.receive k pid e0 ~max_len:10);
               let c = K.wait k pid in
               check_status "destroyed" E_destroyed c.c_status)
             (fun k pid e1 ->
               Engine.sleep (K.engine k) (Time.ms 10);
               check_status "destroy" Ok_done (K.destroy k pid e1))));
    Alcotest.test_case "send on destroyed link fails" `Quick (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               check_status "destroy" Ok_done (K.destroy k pid e0);
               check_status "send fails" E_destroyed (K.send k pid e0 (payload 1)))
             (fun k pid e1 ->
               Engine.sleep (K.engine k) (Time.ms 10);
               check_status "other side too" E_destroyed
                 (K.receive k pid e1 ~max_len:10))));
    Alcotest.test_case "process termination destroys its links" `Quick
      (fun () ->
        ignore
          (two_procs
             (fun _k _pid _e0 -> () (* A returns at once: links destroyed *))
             (fun k pid e1 ->
               Engine.sleep (K.engine k) (Time.ms 20);
               check_status "destroyed" E_destroyed
                 (K.receive k pid e1 ~max_len:10))));
    Alcotest.test_case "destroy returns in-transit enclosure to sender"
      `Quick (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               let enc, _ = Option.get (K.make_link k pid) in
               ignore (K.send k pid e0 ~enclosure:enc (payload 1));
               (* Peer never receives; destroy the carrying link. *)
               Engine.sleep (K.engine k) (Time.ms 5);
               check_status "destroy" Ok_done (K.destroy k pid e0);
               let c = K.wait k pid in
               check_status "send aborted" E_destroyed c.c_status;
               checkb "enclosure back" true (c.c_enclosure = Some enc);
               checkb "owned again" true (K.For_tests.owner_of k enc = Some pid))
             (fun k _pid _e1 ->
               (* B lingers: its death would destroy the link first. *)
               Engine.sleep (K.engine k) (Time.ms 100))));
    Alcotest.test_case "full duplex: both directions at once" `Quick (fun () ->
        let a_got = ref 0 and b_got = ref 0 in
        ignore
          (two_procs
             (fun k pid e0 ->
               ignore (K.send k pid e0 (payload 3));
               ignore (K.receive k pid e0 ~max_len:10);
               let c1 = K.wait k pid in
               let c2 = K.wait k pid in
               List.iter
                 (fun (c : completion) ->
                   if c.c_dir = Received then a_got := c.c_length)
                 [ c1; c2 ])
             (fun k pid e1 ->
               ignore (K.send k pid e1 (payload 7));
               ignore (K.receive k pid e1 ~max_len:10);
               let c1 = K.wait k pid in
               let c2 = K.wait k pid in
               List.iter
                 (fun (c : completion) ->
                   if c.c_dir = Received then b_got := c.c_length)
                 [ c1; c2 ]));
        checki "a got b's bytes" 7 !a_got;
        checki "b got a's bytes" 3 !b_got);
    Alcotest.test_case "messages on one link are FIFO" `Quick (fun () ->
        let order = ref [] in
        ignore
          (two_procs
             (fun k pid e0 ->
               for i = 1 to 5 do
                 ignore (K.send k pid e0 (Bytes.make i 'x'));
                 ignore (K.wait k pid)
               done)
             (fun k pid e1 ->
               for _ = 1 to 5 do
                 ignore (K.receive k pid e1 ~max_len:10);
                 let c = K.wait k pid in
                 order := c.c_length :: !order
               done));
        Alcotest.check
          Alcotest.(list int)
          "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order));
    Alcotest.test_case "kernel calls charge CPU time" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        let elapsed = ref Time.zero in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               let t0 = Engine.now e in
               ignore (K.make_link k pid);
               elapsed := Time.sub (Engine.now e) t0));
        Engine.run e;
        checkb "charged" true Time.(!elapsed > Time.zero));
    Alcotest.test_case "remote transfer is slower than the call" `Quick
      (fun () ->
        let duration = ref Time.zero in
        ignore
          (two_procs
             (fun k pid e0 ->
               let t0 = Engine.now (K.engine k) in
               ignore (K.send k pid e0 (payload 0));
               ignore (K.wait k pid);
               duration := Time.sub (Engine.now (K.engine k)) t0)
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               ignore (K.wait k pid)));
        (* One-way message ~26ms under the calibrated model. *)
        checkb "at least 20ms" true Time.(!duration >= Time.ms 20);
        checkb "under 40ms" true Time.(!duration <= Time.ms 40));
  ]

let edge_tests =
  [
    Alcotest.test_case "poll is a non-blocking wait" `Quick (fun () ->
        ignore
          (two_procs
             (fun k pid e0 ->
               checkb "nothing yet" true (K.poll k pid = None);
               ignore (K.send k pid e0 (payload 1));
               ignore (K.wait k pid);
               checkb "drained" true (K.poll k pid = None))
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               ignore (K.wait k pid))));
    Alcotest.test_case "wait returns completions in delivery order" `Quick
      (fun () ->
        let dirs = ref [] in
        ignore
          (two_procs
             (fun k pid e0 ->
               (* Post both directions; peer answers both. *)
               ignore (K.send k pid e0 (payload 2));
               ignore (K.receive k pid e0 ~max_len:10);
               let c1 = K.wait k pid in
               let c2 = K.wait k pid in
               dirs := [ c1.c_dir; c2.c_dir ])
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               ignore (K.wait k pid);
               ignore (K.send k pid e1 (payload 3));
               ignore (K.wait k pid)));
        (* Our send is received first (peer has receive posted), then
           the peer's reply arrives. *)
        checkb "sent then received" true (!dirs = [ Sent; Received ]));
    Alcotest.test_case "transfer_end refuses busy or destroyed ends" `Quick
      (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               let e0, _ = Option.get (K.make_link k pid) in
               ignore (K.receive k pid e0 ~max_len:8);
               checkb "busy refused" true
                 (match K.transfer_end k e0 ~to_:pid with
                 | _ -> false
                 | exception Invalid_argument _ -> true);
               ignore (K.cancel k pid e0 Received);
               ignore (K.destroy k pid e0);
               checkb "destroyed refused" true
                 (match K.transfer_end k e0 ~to_:pid with
                 | _ -> false
                 | exception Invalid_argument _ -> true)));
        Engine.run e);
    Alcotest.test_case "two links between one pair are independent" `Quick
      (fun () ->
        let e = Engine.create () in
        let k = K.create e ~nodes:2 () in
        let got = ref [] in
        let ends = Sync.Ivar.create e in
        let pa =
          K.spawn_process k ~node:0 ~name:"A" (fun pid ->
              let (a0, _), (b0, _) = Sync.Ivar.read ends in
              ignore (K.send k pid a0 (Bytes.of_string "on-a"));
              ignore (K.send k pid b0 (Bytes.of_string "on-b"));
              ignore (K.wait k pid);
              ignore (K.wait k pid))
        in
        ignore
          (K.spawn_process k ~node:1 ~name:"B" (fun pid ->
               let (_, a1), (_, b1) = Sync.Ivar.read ends in
               ignore (K.receive k pid b1 ~max_len:10);
               let c = K.wait k pid in
               got := Bytes.to_string c.c_data :: !got;
               ignore (K.receive k pid a1 ~max_len:10);
               let c = K.wait k pid in
               got := Bytes.to_string c.c_data :: !got));
        ignore
          (Engine.spawn e ~name:"driver" (fun () ->
               let la = Option.get (K.make_link k pa) in
               let lb = Option.get (K.make_link k pa) in
               K.transfer_end k (snd la) ~to_:(pa + 1);
               K.transfer_end k (snd lb) ~to_:(pa + 1);
               Sync.Ivar.fill ends (la, lb)));
        Engine.run e;
        (* B chose to take b first although a was sent first: per-link
           queues are independent. *)
        Alcotest.check
          Alcotest.(list string)
          "order by receive choice" [ "on-b"; "on-a" ]
          (List.rev !got));
    Alcotest.test_case "zero-length messages are legal" `Quick (fun () ->
        let len = ref (-1) in
        ignore
          (two_procs
             (fun k pid e0 ->
               ignore (K.send k pid e0 Bytes.empty);
               ignore (K.wait k pid))
             (fun k pid e1 ->
               ignore (K.receive k pid e1 ~max_len:10);
               let c = K.wait k pid in
               len := c.c_length));
        checki "empty" 0 !len);
  ]

(* [n] matched send+receive pairs of 0 B on an unobserved engine (no
   consumer, nothing retained): the kernel primitive a LYNX message
   costs on Charlotte. *)
let send_receives n =
  let each f k pid end_ =
    for _ = 1 to n do
      ignore (f k pid end_);
      ignore (K.wait k pid)
    done
  in
  ignore
    (two_procs ~log_capacity:0
       (each (fun k pid e0 -> K.send k pid e0 Bytes.empty))
       (each (fun k pid e1 -> K.receive k pid e1 ~max_len:0)))

let allocation_tests =
  [
    Alcotest.test_case "words per matched send+receive" `Quick (fun () ->
        Budgets.check "kernel.charlotte" (Budgets.words_per_iter send_receives));
  ]

let () =
  Alcotest.run "charlotte_kernel"
    [
      ("kernel", tests);
      ("edges", edge_tests);
      ("allocation", allocation_tests);
    ]
