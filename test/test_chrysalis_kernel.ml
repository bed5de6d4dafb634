(* Tests for the Chrysalis simulator (paper §5.1 semantics). *)

open Sim
open Chrysalis.Types
module K = Chrysalis.Kernel

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let in_proc ?(processors = 4) body =
  let e = Engine.create () in
  let k = K.create e ~processors () in
  ignore (K.spawn_process k ~node:0 ~name:"p" (fun pid -> body e k pid));
  Engine.run e;
  (e, k)

let tests_objects =
  [
    Alcotest.test_case "make_object maps it with refcount 1" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let o = K.make_object k pid ~size:64 in
               checkb "mapped" true (K.mapped k pid o);
               checki "refcount" 1 (K.refcount k o))));
    Alcotest.test_case "map/unmap adjust refcount" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let o = K.make_object k pid ~size:64 in
               K.map_object k pid o;
               checki "2" 2 (K.refcount k o);
               K.unmap_object k pid o;
               checki "1" 1 (K.refcount k o))));
    Alcotest.test_case "object reclaimed at zero when marked" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let o = K.make_object k pid ~size:64 in
               K.mark_for_deletion k pid o;
               checkb "still there" true (K.object_exists k o);
               K.unmap_object k pid o;
               checkb "reclaimed" false (K.object_exists k o))));
    Alcotest.test_case "read/write bytes round trip" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let o = K.make_object k pid ~size:64 in
               K.write_bytes k pid o ~off:8 (Bytes.of_string "hello");
               let b = K.read_bytes k pid o ~off:8 ~len:5 in
               Alcotest.check Alcotest.string "roundtrip" "hello"
                 (Bytes.to_string b))));
    Alcotest.test_case "access to unmapped object faults" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let o = K.make_object k pid ~size:64 in
               K.unmap_object k pid o;
               checkb "faults" true
                 (match K.read_bytes k pid o ~off:0 ~len:4 with
                 | _ -> false
                 | exception Memory_fault Unmapped_object -> true))));
    Alcotest.test_case "out-of-bounds access faults" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let o = K.make_object k pid ~size:8 in
               checkb "faults" true
                 (match K.write_bytes k pid o ~off:6 (Bytes.make 4 'x') with
                 | _ -> false
                 | exception Memory_fault Bounds -> true))));
    Alcotest.test_case "atomic or/and return previous value" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let o = K.make_object k pid ~size:8 in
               checki "old 0" 0 (K.atomic_or16 k pid o ~off:0 0b101);
               checki "old 5" 0b101 (K.atomic_or16 k pid o ~off:0 0b010);
               checki "now 7" 0b111 (K.read16 k pid o ~off:0);
               checki "old 7" 0b111 (K.atomic_and16 k pid o ~off:0 0b110);
               checki "now 6" 0b110 (K.read16 k pid o ~off:0))));
    Alcotest.test_case "non-atomic 32-bit write can be seen torn" `Quick
      (fun () ->
        (* One fiber writes 0xAAAA5555 over 0x00000000 non-atomically;
           another reads in the window between the two halves. *)
        let e = Engine.create () in
        let k = K.create e ~processors:2 () in
        let seen = ref [] in
        let obj = Sync.Ivar.create e in
        ignore
          (K.spawn_process k ~node:0 ~name:"writer" (fun pid ->
               let o = K.make_object k pid ~size:8 in
               Sync.Ivar.fill obj o;
               (* Wait out the reader's map_object cost, then write while
                  it is polling. *)
               Engine.sleep e (Time.us 500);
               K.write32_nonatomic k pid o ~off:0 0xAAAA5555));
        ignore
          (K.spawn_process k ~node:1 ~name:"reader" (fun pid ->
               let o = Sync.Ivar.read obj in
               K.map_object k pid o;
               for _ = 1 to 100 do
                 Engine.sleep e (Time.us 1);
                 seen := K.read32 k pid o ~off:0 :: !seen
               done));
        Engine.run e;
        let torn = List.mem 0x5555 !seen in
        let final = List.hd !seen in
        checkb "torn value observed" true torn;
        checki "final value complete" 0xAAAA5555 final);
    Alcotest.test_case "remote writes cost more than local" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~processors:4 () in
        let obj = Sync.Ivar.create e in
        let local_cost = ref Time.zero and remote_cost = ref Time.zero in
        ignore
          (K.spawn_process k ~node:0 ~name:"owner" (fun pid ->
               let o = K.make_object k pid ~size:4096 in
               Sync.Ivar.fill obj o;
               let t0 = Engine.now e in
               K.write_bytes k pid o ~off:0 (Bytes.make 1000 'x');
               local_cost := Time.sub (Engine.now e) t0;
               Engine.sleep e (Time.ms 10)));
        ignore
          (K.spawn_process k ~node:1 ~name:"remote" (fun pid ->
               let o = Sync.Ivar.read obj in
               K.map_object k pid o;
               let t0 = Engine.now e in
               K.write_bytes k pid o ~off:0 (Bytes.make 1000 'y');
               remote_cost := Time.sub (Engine.now e) t0));
        Engine.run e;
        checkb "remote slower" true Time.(!remote_cost > !local_cost));
  ]

let tests_events =
  [
    Alcotest.test_case "post then wait returns datum" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let ev = K.make_event k pid in
               K.event_post k pid ev 99;
               checki "datum" 99 (K.event_wait k pid ev))));
    Alcotest.test_case "wait blocks until posted" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~processors:2 () in
        let woke_at = ref Time.zero in
        let ev_ivar = Sync.Ivar.create e in
        ignore
          (K.spawn_process k ~node:0 ~name:"waiter" (fun pid ->
               let ev = K.make_event k pid in
               Sync.Ivar.fill ev_ivar ev;
               let d = K.event_wait k pid ev in
               woke_at := Engine.now e;
               checki "datum" 7 d));
        ignore
          (K.spawn_process k ~node:1 ~name:"poster" (fun pid ->
               let ev = Sync.Ivar.read ev_ivar in
               Engine.sleep e (Time.ms 3);
               K.event_post k pid ev 7));
        Engine.run e;
        checkb "woke after post" true Time.(!woke_at >= Time.ms 3));
    Alcotest.test_case "only the owner may wait" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~processors:2 () in
        let ev_ivar = Sync.Ivar.create e in
        ignore
          (K.spawn_process k ~daemon:true ~node:0 ~name:"owner" (fun pid ->
               let ev = K.make_event k pid in
               Sync.Ivar.fill ev_ivar ev;
               Engine.sleep e (Time.sec 1)));
        let faulted = ref false in
        ignore
          (K.spawn_process k ~node:1 ~name:"other" (fun pid ->
               let ev = Sync.Ivar.read ev_ivar in
               match K.event_wait k pid ev with
               | _ -> ()
               | exception Memory_fault Not_owner -> faulted := true));
        Engine.run e;
        checkb "faulted" true !faulted);
    Alcotest.test_case "binary semaphore: repost overwrites datum" `Quick
      (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let ev = K.make_event k pid in
               K.event_post k pid ev 1;
               K.event_post k pid ev 2;
               checki "latest" 2 (K.event_wait k pid ev))));
  ]

let tests_dualq =
  [
    Alcotest.test_case "enqueue/dequeue FIFO" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let q = K.make_dualq k pid ~capacity:8 in
               let ev = K.make_event k pid in
               K.dq_enqueue k pid q 1;
               K.dq_enqueue k pid q 2;
               checkb "1" true (K.dq_dequeue k pid q ~ev = Some 1);
               checkb "2" true (K.dq_dequeue k pid q ~ev = Some 2))));
    Alcotest.test_case "dequeue on empty enqueues event name" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let q = K.make_dualq k pid ~capacity:8 in
               let ev = K.make_event k pid in
               checkb "empty" true (K.dq_dequeue k pid q ~ev = None);
               (* Enqueue now posts the event instead of queueing data. *)
               K.dq_enqueue k pid q 42;
               checki "datum via event" 42 (K.event_wait k pid ev);
               checki "queue still empty" 0 (K.dq_length k q))));
    Alcotest.test_case "waiting consumers served FIFO" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~processors:4 () in
        let q_ivar = Sync.Ivar.create e in
        let order = ref [] in
        ignore
          (K.spawn_process k ~node:0 ~name:"maker" (fun pid ->
               let q = K.make_dualq k pid ~capacity:8 in
               Sync.Ivar.fill q_ivar q;
               Engine.sleep e (Time.ms 10);
               K.dq_enqueue k pid q 100;
               K.dq_enqueue k pid q 200));
        for i = 1 to 2 do
          ignore
            (K.spawn_process k ~node:i ~name:(Printf.sprintf "c%d" i)
               (fun pid ->
                 let q = Sync.Ivar.read q_ivar in
                 let ev = K.make_event k pid in
                 Engine.sleep e (Time.ms i);
                 match K.dq_dequeue k pid q ~ev with
                 | Some d -> order := (i, d) :: !order
                 | None ->
                   let d = K.event_wait k pid ev in
                   order := (i, d) :: !order))
        done;
        Engine.run e;
        Alcotest.check
          Alcotest.(list (pair int int))
          "fifo" [ (1, 100); (2, 200) ]
          (List.sort compare !order));
    Alcotest.test_case "capacity overflow faults" `Quick (fun () ->
        ignore
          (in_proc (fun _e k pid ->
               let q = K.make_dualq k pid ~capacity:2 in
               K.dq_enqueue k pid q 1;
               K.dq_enqueue k pid q 2;
               checkb "overflow" true
                 (match K.dq_enqueue k pid q 3 with
                 | _ -> false
                 | exception Memory_fault Bounds -> true))));
  ]

let tests_lifecycle =
  [
    Alcotest.test_case "termination runs cleanups and unmaps" `Quick (fun () ->
        let e = Engine.create () in
        let k = K.create e ~processors:2 () in
        let cleaned = ref false in
        let obj_ref = ref None in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               let o = K.make_object k pid ~size:16 in
               obj_ref := Some o;
               K.mark_for_deletion k pid o;
               K.at_termination k pid (fun () -> cleaned := true)));
        Engine.run e;
        checkb "cleanup ran" true !cleaned;
        checkb "object reclaimed" false
          (K.object_exists k (Option.get !obj_ref)));
    Alcotest.test_case "cleanup runs even when the body faults" `Quick
      (fun () ->
        let e = Engine.create () in
        let k = K.create e ~processors:2 () in
        let cleaned = ref false in
        ignore
          (K.spawn_process k ~node:0 ~name:"p" (fun pid ->
               K.at_termination k pid (fun () -> cleaned := true);
               (* Erroneous process: faults on an unknown object. *)
               ignore (K.read_bytes k pid 424242 ~off:0 ~len:1)));
        Engine.run e;
        checkb "cleanup ran" true !cleaned);
    Alcotest.test_case "shared object survives one side's death" `Quick
      (fun () ->
        let e = Engine.create () in
        let k = K.create e ~processors:2 () in
        let obj = Sync.Ivar.create e in
        let readable_after = ref false in
        ignore
          (K.spawn_process k ~node:0 ~name:"short" (fun pid ->
               let o = K.make_object k pid ~size:16 in
               K.write_bytes k pid o ~off:0 (Bytes.of_string "data");
               Sync.Ivar.fill obj o
               (* dies here; refcount drops but the peer maps it below *)));
        ignore
          (K.spawn_process k ~node:1 ~name:"long" (fun pid ->
               let o = Sync.Ivar.read obj in
               K.map_object k pid o;
               Engine.sleep e (Time.ms 10);
               let b = K.read_bytes k pid o ~off:0 ~len:4 in
               readable_after := Bytes.to_string b = "data"));
        Engine.run e;
        checkb "still readable" true !readable_after);
  ]

(* [n] dual-queue enqueues, each finding the consumer waiting and so
   posting its event, on an unobserved engine (no consumer, nothing
   retained): the kernel primitive a LYNX message costs on Chrysalis.
   The producer sleeps between enqueues so the consumer is always back
   on the queue. *)
let enqueue_posts n =
  let e = Engine.create ~log_capacity:0 () in
  let k = K.create e ~processors:2 () in
  let q_ivar = Sync.Ivar.create e in
  ignore
    (K.spawn_process k ~node:0 ~name:"consumer" (fun pid ->
         let q = K.make_dualq k pid ~capacity:8 in
         let ev = K.make_event k pid in
         Sync.Ivar.fill q_ivar q;
         for _ = 1 to n do
           match K.dq_dequeue k pid q ~ev with
           | None -> ignore (K.event_wait k pid ev)
           | Some _ -> Alcotest.fail "the consumer should have waited"
         done));
  ignore
    (K.spawn_process k ~node:1 ~name:"producer" (fun pid ->
         let q = Sync.Ivar.read q_ivar in
         for i = 1 to n do
           Engine.sleep e (Time.ms 1);
           K.dq_enqueue k pid q i
         done));
  Engine.run e

let allocation_tests =
  [
    Alcotest.test_case "words per enqueue and event post" `Quick (fun () ->
        Budgets.gate "enqueue+post" ~budget:Budgets.chrysalis_enqueue_post
          (Budgets.words_per_iter enqueue_posts));
  ]

let () =
  Alcotest.run "chrysalis_kernel"
    [
      ("objects", tests_objects);
      ("events", tests_events);
      ("dualq", tests_dualq);
      ("lifecycle", tests_lifecycle);
      ("allocation", allocation_tests);
    ]
