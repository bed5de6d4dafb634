(* The paper's qualitative scenarios (figures 1 and 2, §3.2.1, §3.2.2)
   with per-backend assertions about the protocol traffic each kernel
   needs — the quantified form of the paper's §6 discussion. *)

module S = Harness.Scenarios

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let on_all = Each_backend.on_all

let fig1_tests =
  on_all "figure 1: simultaneous move succeeds" `Quick (fun backend ->
      let o = S.simultaneous_move S.default backend in
      checkb o.S.o_detail true o.S.o_ok)
  @ [
      Alcotest.test_case "figure 1: charlotte pays the kernel move protocol"
        `Quick (fun () ->
          let o = S.simultaneous_move S.default Harness.Backend_world.charlotte in
          checkb "ok" true o.S.o_ok;
          (* Two ends moved: the kernel's three-party agreement runs twice. *)
          checki "move protocol messages" 6
            (S.counter o "charlotte.move_protocol_msgs"));
      Alcotest.test_case "figure 1: soda moves by hint updates" `Quick
        (fun () ->
          let o = S.simultaneous_move S.default Harness.Backend_world.soda in
          checkb "ok" true o.S.o_ok;
          checki "ends adopted" 2 (S.counter o "lynx_soda.ends_adopted"));
      Alcotest.test_case "figure 1: chrysalis moves by remapping" `Quick
        (fun () ->
          let o = S.simultaneous_move S.default Harness.Backend_world.chrysalis in
          checkb "ok" true o.S.o_ok;
          checki "ends adopted" 2 (S.counter o "lynx_chrysalis.ends_adopted"));
    ]

(* Figure 2: Charlotte needs 2 kernel messages for k <= 1 enclosures and
   k + 2 for k >= 2 (request, goahead, k-1 enc packets, reply); SODA and
   Chrysalis costs do not grow with k at all. *)
let fig2_tests =
  List.map
    (fun k ->
      Alcotest.test_case
        (Printf.sprintf "figure 2: charlotte message count, k=%d" k)
        `Quick
        (fun () ->
          let o =
            S.enclosure_protocol ~n_encl:k S.default Harness.Backend_world.charlotte
          in
          checkb "ok" true o.S.o_ok;
          let expected = if k <= 1 then 2 else k + 2 in
          checki "kernel msgs" expected (S.counter o "charlotte.kernel_msgs")))
    [ 0; 1; 2; 3; 5 ]
  @ List.concat_map
      (fun k ->
        [
          Alcotest.test_case
            (Printf.sprintf "figure 2: soda cost independent of k=%d" k)
            `Quick
            (fun () ->
              let base =
                S.enclosure_protocol ~n_encl:0 S.default Harness.Backend_world.soda
              in
              let o =
                S.enclosure_protocol ~n_encl:k S.default
                  Harness.Backend_world.soda
              in
              checkb "ok" true o.S.o_ok;
              checki "same data puts as k=0"
                (S.counter base "lynx_soda.data_puts")
                (S.counter o "lynx_soda.data_puts"));
          Alcotest.test_case
            (Printf.sprintf "figure 2: chrysalis constant cost, k=%d" k)
            `Quick
            (fun () ->
              let o =
                S.enclosure_protocol ~n_encl:k S.default
                  Harness.Backend_world.chrysalis
              in
              checkb "ok" true o.S.o_ok;
              checki "slot writes" 2 (S.counter o "lynx_chrysalis.msgs_written"));
        ])
      [ 3; 5 ]
  @ [
      (* A Chrysalis slot holds about 2 KB: 2000 enclosures do not fit,
         and the sender fails rather than truncating the message. *)
      Alcotest.test_case "figure 2: chrysalis refuses k=2000" `Quick (fun () ->
          match
            S.enclosure_protocol ~n_encl:2000 S.default
              Harness.Backend_world.chrysalis
          with
          | o -> Alcotest.failf "ran: %s" o.S.o_detail
          | exception
              ( Invalid_argument msg
              | Sim.Engine.Fiber_crash (_, Invalid_argument msg) ) ->
            checkb msg true (contains msg "message exceeds link buffer"));
    ]

let unwanted_tests =
  [
    Alcotest.test_case "§3.2.1 cross request: charlotte forbids and allows"
      `Quick (fun () ->
        let o = S.cross_request S.default Harness.Backend_world.charlotte in
        checkb o.S.o_detail true o.S.o_ok;
        checkb "unwanted received" true
          (S.counter o "lynx_charlotte.unwanted_received" >= 1);
        checkb "forbid sent" true
          (S.counter o "lynx_charlotte.pkt_sent.forbid" >= 1);
        checkb "allow sent" true
          (S.counter o "lynx_charlotte.pkt_sent.allow" >= 1));
    Alcotest.test_case "§3.2.1 open/close race: charlotte retries" `Quick
      (fun () ->
        let o = S.open_close_race S.default Harness.Backend_world.charlotte in
        checkb o.S.o_detail true o.S.o_ok;
        checkb "retry sent" true
          (S.counter o "lynx_charlotte.pkt_sent.retry" >= 1);
        checkb "failed cancel observed" true
          (S.counter o "lynx_charlotte.cancel_failed" >= 1));
  ]
  @ on_all "§3.2.1 cross request completes everywhere" `Quick
      (fun backend ->
        let o = S.cross_request S.default backend in
        checkb o.S.o_detail true o.S.o_ok;
        if backend.name <> "charlotte" then
          checki "no bounces (lesson two)" 0
            (S.counter o "lynx_charlotte.unwanted_received"))
  @ on_all "§3.2.1 open/close race completes everywhere" `Quick
      (fun backend ->
        let o = S.open_close_race S.default backend in
        checkb o.S.o_detail true o.S.o_ok)

let lost_enclosure_tests =
  [
    Alcotest.test_case "§3.2.2 charlotte loses the enclosure" `Quick (fun () ->
        let o = S.lost_enclosure S.default Harness.Backend_world.charlotte in
        checkb o.S.o_detail true o.S.o_ok;
        (* The documented deviation: the end is gone for good. *)
        checkb "far end died" true (contains o.S.o_detail "far_end_died=true");
        checkb "not recovered" true (contains o.S.o_detail "recovered=false"));
    Alcotest.test_case "§3.2.2 soda recovers the enclosure" `Quick (fun () ->
        let o = S.lost_enclosure S.default Harness.Backend_world.soda in
        checkb o.S.o_detail true o.S.o_ok;
        checkb "recovered" true (contains o.S.o_detail "recovered=true"));
    Alcotest.test_case "§3.2.2 chrysalis recovers the enclosure" `Quick
      (fun () ->
        let o = S.lost_enclosure S.default Harness.Backend_world.chrysalis in
        checkb o.S.o_detail true o.S.o_ok;
        checkb "recovered" true (contains o.S.o_detail "recovered=true"));
  ]

let bounced_tests =
  on_all "unwanted enclosure survives the bounce" `Quick (fun backend ->
      let o = S.bounced_enclosure S.default backend in
      checkb o.S.o_detail true o.S.o_ok)
  @ [
      Alcotest.test_case "charlotte actually bounced it" `Quick (fun () ->
          let o = S.bounced_enclosure S.default Harness.Backend_world.charlotte in
          checkb "ok" true o.S.o_ok;
          checkb "unwanted received" true
            (S.counter o "lynx_charlotte.unwanted_received" >= 1);
          checkb "a bounce carried the enclosure back" true
            (S.counter o "lynx_charlotte.pkt_sent.forbid"
             + S.counter o "lynx_charlotte.pkt_sent.retry"
            >= 1));
    ]

(* A1, A4 and A5's paper claims (acks cost exactly +50% kernel
   messages; the tuning saves 30-40%; the signal budget completes
   every call where the naive layer starves on the pair limit), then
   the ablation variants' own behaviour. *)
let ablation_tests =
  Claim_cases.cases "A"
  @ [
      Alcotest.test_case "reply acks slow every RPC down" `Quick (fun () ->
          let mean b =
            Harness.Rpc_bench.mean_ms (Harness.Rpc_bench.run b ~payload:0 ())
          in
          checkb "slower" true
            (mean Harness.Backend_world.charlotte_acks
            > mean Harness.Backend_world.charlotte));
      Alcotest.test_case "reply-ack variant still passes figure 1" `Quick
        (fun () ->
          let o =
            S.simultaneous_move S.default Harness.Backend_world.charlotte_acks
          in
          checkb o.S.o_detail true o.S.o_ok);
      Alcotest.test_case "hint-based kernel passes figure 1 without move msgs"
        `Quick (fun () ->
          let o =
            S.simultaneous_move S.default Harness.Backend_world.charlotte_hints
          in
          checkb o.S.o_detail true o.S.o_ok;
          checki "no move protocol" 0 (S.counter o "charlotte.move_protocol_msgs"));
      Alcotest.test_case "hint repair works with a reliable broadcast" `Quick
        (fun () ->
          let o =
            S.soda_hint_repair ~broadcast_loss:0.0 S.default
              Harness.Backend_world.soda
          in
          checkb o.S.o_detail true o.S.o_ok;
          checki "no freeze needed" 0 (S.counter o "lynx_soda.freeze_searches"));
      Alcotest.test_case
        "hint repair falls back to the freeze search under total loss" `Quick
        (fun () ->
          let o =
            S.soda_hint_repair ~broadcast_loss:1.0 S.default
              Harness.Backend_world.soda
          in
          checkb o.S.o_detail true o.S.o_ok;
          checkb "freeze search ran" true
            (S.counter o "lynx_soda.freeze_searches" >= 1));
    ]

(* Direct protocol-coverage checks that the named scenarios do not
   reach. *)
let protocol_coverage_tests =
  [
    Alcotest.test_case
      "charlotte: multi-enclosure replies skip the goahead (figure 2)" `Quick
      (fun () ->
        (* A reply carrying 3 ends: rep_first + 2 enc packets and no
           goahead, since "a reply is always wanted". *)
        let (backend : Harness.Backend_world.backend) =
          Harness.Backend_world.charlotte
        in
        let open Sim in
        let module P = Lynx.Process in
        let e = Engine.create () in
        let w = backend.create e ~nodes:4 in
        let sts = Lynx.World.stats w in
        let got = ref 0 in
        let lc = Sync.Ivar.create e in
        let server =
          Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
              let inc = P.await_request p () in
              let ends =
                List.init 3 (fun _ ->
                    let near, _far = P.new_link p in
                    Lynx.Value.Link near)
              in
              inc.P.in_reply ends;
              P.sleep p (Time.ms 300))
        in
        let client =
          Lynx.World.spawn w ~daemon:true ~node:1 ~name:"client" (fun p ->
              let lnk = Sync.Ivar.read lc in
              match P.call p lnk ~op:"gimme" [] with
              | vs -> got := List.length (Lynx.Value.links_of_list vs)
              | exception _ -> ())
        in
        ignore
          (Engine.spawn e ~name:"driver" (fun () ->
               let c, _ = Lynx.World.link_between w client server in
               Sync.Ivar.fill lc c));
        Engine.run e;
        checki "three ends arrived" 3 !got;
        checki "no goahead for replies" 0
          (Sim.Stats.get sts "lynx_charlotte.pkt_sent.goahead");
        checki "two enc packets" 2
          (Sim.Stats.get sts "lynx_charlotte.pkt_sent.enc"));
  ]
  @ on_all "destroying a moved end notifies its new peer" `Quick
      (fun backend ->
        (* A gives its end of link L to B; later A's original peer C
           destroys its fixed end; B (the new owner) must hear. *)
        let open Sim in
        let module P = Lynx.Process in
        let e = Engine.create () in
        let w = backend.create e ~nodes:6 in
        let notified = ref false in
        let l_ab = Sync.Ivar.create e and l_ac = Sync.Ivar.create e in
        let a =
          Lynx.World.spawn w ~daemon:true ~node:0 ~name:"A" (fun p ->
              let ab = Sync.Ivar.read l_ab and ac = Sync.Ivar.read l_ac in
              ignore (P.call p ab ~op:"take" [ Lynx.Value.Link ac ]);
              P.sleep p (Time.ms 500))
        in
        let b =
          Lynx.World.spawn w ~daemon:true ~node:1 ~name:"B" (fun p ->
              let inc = P.await_request p () in
              match inc.P.in_args with
              | [ Lynx.Value.Link moved ] -> (
                inc.P.in_reply [];
                (* Wait for traffic on the moved end; C will destroy. *)
                match P.await_request p ~links:[ moved ] () with
                | _ -> ()
                | exception Lynx.Excn.Link_destroyed -> notified := true)
              | _ -> inc.P.in_reply [])
        in
        let c =
          Lynx.World.spawn w ~daemon:true ~node:2 ~name:"C" (fun p ->
              let rec wait () =
                match P.live_links p with
                | l :: _ -> l
                | [] ->
                  P.sleep p (Time.ms 1);
                  wait ()
              in
              let fixed = wait () in
              P.sleep p (Time.ms 250);
              P.destroy_link p fixed;
              P.sleep p (Time.ms 700))
        in
        ignore
          (Engine.spawn e ~name:"driver" (fun () ->
               let ab, _ = Lynx.World.link_between w a b in
               let ac, _ = Lynx.World.link_between w a c in
               Sync.Ivar.fill l_ab ab;
               Sync.Ivar.fill l_ac ac));
        Engine.run e;
        checkb "new owner notified of destruction" true !notified)
  @ on_all "peer death during a multi-enclosure transfer fails the send"
      `Quick (fun backend ->
        (* The receiver dies mid-protocol (between goahead and the enc
           packets under Charlotte); the sender's call must fail, not
           hang. *)
        let open Sim in
        let module P = Lynx.Process in
        let e = Engine.create () in
        let w = backend.create e ~nodes:4 in
        let failed = ref false and completed = ref false in
        let lc = Sync.Ivar.create e in
        let victim =
          Lynx.World.spawn w ~daemon:true ~node:0 ~name:"victim" (fun p ->
              (* Open the queue so the transfer begins, then die before
                 it can complete. *)
              List.iter (P.open_queue p) (P.live_links p);
              P.on_new_link p (fun l -> P.open_queue p l);
              P.sleep p (Time.ms 45))
        in
        let sender =
          Lynx.World.spawn w ~daemon:true ~node:1 ~name:"sender" (fun p ->
              let lnk = Sync.Ivar.read lc in
              let ends =
                List.init 4 (fun _ ->
                    let near, _ = P.new_link p in
                    Lynx.Value.Link near)
              in
              P.sleep p (Time.ms 10);
              match P.call p lnk ~op:"take" ends with
              | _ -> completed := true
              | exception
                  ( Lynx.Excn.Link_destroyed | Lynx.Excn.Process_terminated
                  | Lynx.Excn.Remote_error _ ) ->
                failed := true)
        in
        ignore
          (Engine.spawn e ~name:"driver" (fun () ->
               let c, _ = Lynx.World.link_between w sender victim in
               Sync.Ivar.fill lc c));
        Engine.run e;
        checkb "failed or completed, never hung" true (!failed || !completed))

let determinism_tests =
  on_all "scenarios are deterministic per seed" `Quick (fun backend ->
      let a = S.simultaneous_move { S.default with seed = 7 } backend in
      let b = S.simultaneous_move { S.default with seed = 7 } backend in
      checkb "same outcome" true (a.S.o_ok = b.S.o_ok);
      checki "same duration" (Sim.Time.to_ns a.S.o_duration)
        (Sim.Time.to_ns b.S.o_duration);
      checkb "same counters" true (a.S.o_counters = b.S.o_counters))

(* The skeleton itself, on a scene of one process: it bumps "t.after"
   at 10 ms; the links bump "t.before" and return at 3 ms. *)
let timed_scene eng w =
  let sts = Lynx.World.stats w in
  ignore
    (Sim.Engine.spawn eng ~name:"p" (fun () ->
         Sim.Engine.sleep eng (Sim.Time.ms 10);
         Sim.Stats.incr sts (Sim.Stats.key "t.after")));
  {
    S.links =
      (fun () ->
        Sim.Stats.incr sts (Sim.Stats.key "t.before");
        Sim.Engine.sleep eng (Sim.Time.ms 3));
    verdict = (fun () -> (true, "timed"));
  }

let stage_tests =
  [
    Alcotest.test_case "stage reports the context's seed and policy" `Quick
      (fun () ->
        let ctx =
          { S.default with seed = 9; policy = Sim.Engine.Random_order 5 }
        in
        let o = S.stage ctx Harness.Backend_world.soda ~nodes:2 timed_scene in
        checkb "ok" true o.S.o_ok;
        Alcotest.check Alcotest.string "detail" "timed" o.S.o_detail;
        checki "seed" 9 o.S.o_seed;
        Alcotest.check Alcotest.string "policy"
          (Sim.Engine.policy_name ctx.policy)
          o.S.o_policy;
        checkb "no latency" true (o.S.o_latency = None));
    Alcotest.test_case "stage counts and times from the end of the links"
      `Quick (fun () ->
        let o =
          S.stage S.default Harness.Backend_world.soda ~nodes:2 timed_scene
        in
        checki "links not counted" 0 (S.counter o "t.before");
        checki "process counted" 1 (S.counter o "t.after");
        checki "duration" (Sim.Time.to_ns (Sim.Time.ms 7))
          (Sim.Time.to_ns o.S.o_duration));
    Alcotest.test_case "stage_until counts the links and stops at the limit"
      `Quick (fun () ->
        let o =
          S.stage_until (Sim.Time.ms 5) S.default Harness.Backend_world.soda
            ~nodes:2 timed_scene
        in
        checki "links counted" 1 (S.counter o "t.before");
        checki "cut before the process" 0 (S.counter o "t.after");
        checki "duration" (Sim.Time.to_ns (Sim.Time.ms 5))
          (Sim.Time.to_ns o.S.o_duration));
  ]

let () =
  Alcotest.run "scenarios"
    [
      ("figure1", fig1_tests);
      ("figure2", fig2_tests);
      ("unwanted", unwanted_tests);
      ("lost_enclosure", lost_enclosure_tests);
      ("bounced_enclosure", bounced_tests);
      ("protocol_coverage", protocol_coverage_tests);
      ("ablations", ablation_tests);
      ("determinism", determinism_tests);
      ("stage", stage_tests);
    ]
