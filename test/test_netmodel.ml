(* Tests for the three network models. *)

open Sim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let ns t = Time.to_ns t

let ring_tests =
  [
    Alcotest.test_case "delivery after duration" `Quick (fun () ->
        let e = Engine.create () in
        let r = Netmodel.Token_ring.create e ~stations:4 () in
        let at = ref Time.zero in
        Netmodel.Token_ring.transmit r ~src:0 ~dst:1 ~duration:(Time.ms 5)
          ~on_delivered:(fun () -> at := Engine.now e);
        Engine.run e;
        checkb "after 5ms" true Time.(!at >= Time.ms 5));
    Alcotest.test_case "concurrent frames serialize on the ring" `Quick
      (fun () ->
        let e = Engine.create () in
        let r = Netmodel.Token_ring.create e ~stations:4 () in
        let deliveries = ref [] in
        for i = 1 to 3 do
          Netmodel.Token_ring.transmit r ~src:0 ~dst:1 ~duration:(Time.ms 10)
            ~on_delivered:(fun () ->
              deliveries := (i, Time.to_ms (Engine.now e)) :: !deliveries)
        done;
        Engine.run e;
        let times = List.rev_map snd !deliveries in
        (* Each frame waits for the one before it, then for the 60 us
           token. *)
        Alcotest.check
          Alcotest.(list (float 0.01))
          "serialized" [ 10.06; 20.12; 30.18 ] times);
    Alcotest.test_case "loopback skips the ring" `Quick (fun () ->
        let e = Engine.create () in
        let sts = Stats.create () in
        let r = Netmodel.Token_ring.create e ~stats:sts ~stations:4 () in
        Netmodel.Token_ring.transmit r ~src:2 ~dst:2 ~duration:(Time.ms 1)
          ~on_delivered:ignore;
        Engine.run e;
        checki "loopback counted" 1 (Stats.get sts "ring.loopback_frames");
        checki "no busy time" 0 (Stats.get sts "ring.busy_ns"));
    Alcotest.test_case "bad station rejected" `Quick (fun () ->
        let e = Engine.create () in
        let r = Netmodel.Token_ring.create e ~stations:2 () in
        checkb "raises" true
          (match
             Netmodel.Token_ring.transmit r ~src:0 ~dst:7 ~duration:Time.zero
               ~on_delivered:ignore
           with
          | () -> false
          | exception Invalid_argument _ -> true));
  ]

let csma_tests =
  [
    Alcotest.test_case "contention adds backoff" `Quick (fun () ->
        let e = Engine.create () in
        let sts = Stats.create () in
        let b =
          Netmodel.Csma_bus.create e ~stats:sts ~rng:(Rng.create 1) ~stations:4
            ()
        in
        for _ = 1 to 5 do
          Netmodel.Csma_bus.transmit b ~src:0 ~dst:1 ~duration:(Time.ms 2)
            ~on_delivered:ignore
        done;
        Engine.run e;
        checkb "backoffs happened" true (Stats.get sts "csma.backoffs" > 0);
        checki "all delivered" 5 (Stats.get sts "csma.frames"));
    Alcotest.test_case "backoff is deterministic per seed" `Quick (fun () ->
        let run seed =
          let e = Engine.create () in
          let b =
            Netmodel.Csma_bus.create e ~rng:(Rng.create seed) ~stations:4 ()
          in
          let last = ref Time.zero in
          for _ = 1 to 5 do
            Netmodel.Csma_bus.transmit b ~src:0 ~dst:1 ~duration:(Time.ms 2)
              ~on_delivered:(fun () -> last := Engine.now e)
          done;
          Engine.run e;
          ns !last
        in
        checki "same" (run 3) (run 3);
        checkb "different seed differs" true (run 3 <> run 4));
    Alcotest.test_case "broadcast reaches all but source" `Quick (fun () ->
        let e = Engine.create () in
        let b =
          Netmodel.Csma_bus.create e ~broadcast_loss:0. ~rng:(Rng.create 1)
            ~stations:5 ()
        in
        let got = ref [] in
        Netmodel.Csma_bus.broadcast b ~src:2 ~duration:(Time.ms 1)
          ~on_delivered:(fun st -> got := st :: !got);
        Engine.run e;
        Alcotest.check
          Alcotest.(list int)
          "stations" [ 0; 1; 3; 4 ]
          (List.sort compare !got));
    Alcotest.test_case "broadcast losses counted" `Quick (fun () ->
        let e = Engine.create () in
        let sts = Stats.create () in
        let b =
          Netmodel.Csma_bus.create e ~stats:sts ~broadcast_loss:1.0
            ~rng:(Rng.create 1) ~stations:5 ()
        in
        let got = ref 0 in
        Netmodel.Csma_bus.broadcast b ~src:0 ~duration:(Time.ms 1)
          ~on_delivered:(fun _ -> incr got);
        Engine.run e;
        checki "all lost" 0 !got;
        checki "losses counted" 4 (Stats.get sts "csma.broadcast_losses"));
  ]

let butterfly_tests =
  [
    Alcotest.test_case "local access has no switch latency" `Quick (fun () ->
        let e = Engine.create () in
        let s = Netmodel.Butterfly_switch.create e ~processors:16 () in
        let local =
          ns (Netmodel.Butterfly_switch.access_time s ~src:3 ~dst:3 ~bytes:100)
        in
        (* 100 bytes at 250 ns/byte *)
        checki "local" 25_000 local);
    Alcotest.test_case "remote access pays stage latency" `Quick (fun () ->
        let e = Engine.create () in
        let s = Netmodel.Butterfly_switch.create e ~processors:16 () in
        checki "stages" 2 (Netmodel.Butterfly_switch.stages s);
        let remote =
          ns (Netmodel.Butterfly_switch.access_time s ~src:0 ~dst:1 ~bytes:0)
        in
        (* 2 stages x 2 us *)
        checki "latency" 4_000 remote);
    Alcotest.test_case "stages grow with machine size" `Quick (fun () ->
        let e = Engine.create () in
        let small = Netmodel.Butterfly_switch.create e ~processors:4 () in
        let large = Netmodel.Butterfly_switch.create e ~processors:256 () in
        checki "small" 1 (Netmodel.Butterfly_switch.stages small);
        checki "large" 4 (Netmodel.Butterfly_switch.stages large));
    Alcotest.test_case "transfers do not serialize" `Quick (fun () ->
        let e = Engine.create () in
        let s = Netmodel.Butterfly_switch.create e ~processors:4 () in
        let done_at = ref [] in
        for _ = 1 to 3 do
          Netmodel.Butterfly_switch.transfer s ~src:0 ~dst:1 ~bytes:1000
            ~on_done:(fun () -> done_at := ns (Engine.now e) :: !done_at)
        done;
        Engine.run e;
        match !done_at with
        | [ a; b; c ] -> checkb "parallel" true (a = b && b = c)
        | _ -> Alcotest.fail "expected three");
    Alcotest.test_case "remote transfers counted" `Quick (fun () ->
        let e = Engine.create () in
        let sts = Stats.create () in
        let s =
          Netmodel.Butterfly_switch.create e ~stats:sts ~processors:4 ()
        in
        Netmodel.Butterfly_switch.transfer s ~src:0 ~dst:1 ~bytes:10
          ~on_done:ignore;
        Netmodel.Butterfly_switch.transfer s ~src:2 ~dst:2 ~bytes:10
          ~on_done:ignore;
        Engine.run e;
        checki "transfers" 2 (Stats.get sts "switch.transfers");
        checki "remote" 1 (Stats.get sts "switch.remote_transfers");
        checki "bytes" 20 (Stats.get sts "switch.bytes"));
  ]

let () =
  Alcotest.run "netmodel"
    [
      ("token_ring", ring_tests);
      ("csma_bus", csma_tests);
      ("butterfly", butterfly_tests);
    ]
