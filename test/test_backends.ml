(* Backend-specific machinery tests: wire codecs (with properties) and
   the hint-repair paths of the SODA backend. *)

open Sim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---- Charlotte packet codec ------------------------------------------- *)

let charlotte_packets =
  let dh ?(corr = 7) ?(n = 0) ?(exn = None) op payload =
    {
      Lynx_charlotte.Packet.d_seq = 123;
      d_corr = corr;
      d_op = op;
      d_exn = exn;
      d_n_encl = n;
      d_payload = Bytes.of_string payload;
      d_off = 0;
      d_len = String.length payload;
    }
  in
  [
    Alcotest.test_case "data packet round trip" `Quick (fun () ->
        let open Lynx_charlotte.Packet in
        let h = Req_first (dh "op-name" "payload bytes" ~n:3) in
        match decode (encode h) with
        | Req_first d ->
          checki "seq" 123 d.d_seq;
          checki "corr" 7 d.d_corr;
          Alcotest.check Alcotest.string "op" "op-name" d.d_op;
          checki "n_encl" 3 d.d_n_encl;
          Alcotest.check Alcotest.string "payload" "payload bytes"
            (Bytes.sub_string d.d_payload d.d_off d.d_len)
        | _ -> Alcotest.fail "wrong header");
    Alcotest.test_case "exception replies round trip" `Quick (fun () ->
        let open Lynx_charlotte.Packet in
        let h = Rep_first (dh "op" "" ~exn:(Some "boom")) in
        match decode (encode h) with
        | Rep_first d -> checkb "exn" true (d.d_exn = Some "boom")
        | _ -> Alcotest.fail "wrong header");
    Alcotest.test_case "control packets round trip" `Quick (fun () ->
        let open Lynx_charlotte.Packet in
        List.iter
          (fun h ->
            checkb (label h) true
              (match (h, decode (encode h)) with
              | Goahead { g_seq = a }, Goahead { g_seq = b } -> a = b
              | Retry { r_seq = a }, Retry { r_seq = b } -> a = b
              | Forbid { f_seq = a }, Forbid { f_seq = b } -> a = b
              | Allow, Allow -> true
              | ( Enc { e_seq = a; e_kind = ka; e_index = ia },
                  Enc { e_seq = b; e_kind = kb; e_index = ib } ) ->
                a = b && ka = kb && ia = ib
              | _ -> false))
          [
            Goahead { g_seq = 9 };
            Retry { r_seq = 10 };
            Forbid { f_seq = 11 };
            Allow;
            Enc { e_seq = 12; e_kind = Lynx.Backend.Reply; e_index = 2 };
          ]);
    Alcotest.test_case "garbage rejected" `Quick (fun () ->
        checkb "malformed" true
          (match Lynx_charlotte.Packet.decode (Bytes.of_string "\042xyz") with
          | _ -> false
          | exception Lynx_charlotte.Packet.Malformed -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"data packets round trip (property)" ~count:200
         QCheck.(
           quad small_nat (string_of_size (QCheck.Gen.int_bound 30))
             (string_of_size (QCheck.Gen.int_bound 200))
             (int_bound 200))
         (fun (n_encl, op, payload, corr) ->
           let open Lynx_charlotte.Packet in
           let h =
             Req_first
               {
                 d_seq = 1;
                 d_corr = corr;
                 d_op = op;
                 d_exn = None;
                 d_n_encl = n_encl land 0xff;
                 d_payload = Bytes.of_string payload;
                 d_off = 0;
                 d_len = String.length payload;
               }
           in
           match decode (encode h) with
           | Req_first d ->
             d.d_op = op
             && Bytes.sub_string d.d_payload d.d_off d.d_len = payload
             && d.d_corr = corr
             && d.d_n_encl = n_encl land 0xff
           | _ -> false));
  ]

(* ---- SODA wire codec ----------------------------------------------------- *)

let soda_wire =
  [
    Alcotest.test_case "body round trip with enclosures" `Quick (fun () ->
        let open Lynx_soda.Wire in
        let body =
          {
            b_corr = 5;
            b_op = "transfer";
            b_exn = None;
            b_encl =
              [
                { e_my_name = 10; e_far_name = 11; e_hint = 3 };
                { e_my_name = 20; e_far_name = 21; e_hint = 4 };
              ];
            b_payload = Bytes.of_string "data";
            b_off = 0;
            b_len = 4;
          }
        in
        let back = decode_body (For_tests.encode_body body) in
        checkb "equal" true
          ({ back with
             b_payload = Bytes.sub back.b_payload back.b_off back.b_len;
             b_off = 0;
           }
          = body));
    Alcotest.test_case "oob tags round trip" `Quick (fun () ->
        let open Lynx_soda.Wire in
        List.iter
          (fun o -> checkb "req oob" true (decode_req_oob (encode_req_oob o) = Some o))
          [ Msg Lynx.Backend.Request; Msg Lynx.Backend.Reply; Sig; Freeze 42; Unfreeze ];
        List.iter
          (fun o -> checkb "acc oob" true (decode_acc_oob (encode_acc_oob o) = Some o))
          [ Ok_taken; Destroyed; Moved 17; Hint 3; No_hint ]);
    Alcotest.test_case "oob stays within SODA's size limit" `Quick (fun () ->
        let open Lynx_soda.Wire in
        let limit = Soda.Costs.default.Soda.Costs.oob_limit in
        List.iter
          (fun o ->
            checkb "small enough" true
              (Bytes.length (encode_req_oob o) <= limit))
          [ Msg Lynx.Backend.Request; Sig; Freeze max_int; Unfreeze ];
        List.iter
          (fun o ->
            checkb "small enough" true
              (Bytes.length (encode_acc_oob o) <= limit))
          [ Ok_taken; Destroyed; Moved max_int; Hint max_int; No_hint ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"soda body round trip (property)" ~count:200
         QCheck.(
           pair
             (pair (string_of_size (QCheck.Gen.int_bound 20)) (string_of_size (QCheck.Gen.int_bound 300)))
             (pair (option (string_of_size (QCheck.Gen.int_bound 20))) (int_bound 1000)))
         (fun ((op, payload), (exn, corr)) ->
           let open Lynx_soda.Wire in
           let body =
             {
               b_corr = corr;
               b_op = op;
               b_exn = exn;
               b_encl = [];
               b_payload = Bytes.of_string payload;
               b_off = 0;
               b_len = String.length payload;
             }
           in
           let back = decode_body (For_tests.encode_body body) in
           back.b_corr = corr && back.b_op = op && back.b_exn = exn
           && Bytes.sub_string back.b_payload back.b_off back.b_len = payload));
  ]

(* ---- Chrysalis slot codec -------------------------------------------------- *)

let chrysalis_layout =
  [
    Alcotest.test_case "slot round trip" `Quick (fun () ->
        let open Lynx_chrysalis.Layout in
        let b =
          For_tests.encode_slot ~corr:9 ~op:"work" ~exn_msg:None ~enclosures:[ 100; 200 ]
            ~payload:(Bytes.of_string "xyz")
        in
        let d = decode_slot (Bytes.sub b 4 (decode_length b)) in
        checki "corr" 9 d.d_corr;
        Alcotest.check Alcotest.string "op" "work" d.d_op;
        Alcotest.check (Alcotest.list Alcotest.int) "encl" [ 100; 200 ]
          d.d_enclosures;
        Alcotest.check Alcotest.string "payload" "xyz"
          (Bytes.sub_string d.d_payload d.d_off d.d_len));
    Alcotest.test_case "slot indices partition by side and kind" `Quick
      (fun () ->
        let open Lynx_chrysalis.Layout in
        let all =
          [
            slot ~side:0 ~kind:Lynx.Backend.Request;
            slot ~side:0 ~kind:Lynx.Backend.Reply;
            slot ~side:1 ~kind:Lynx.Backend.Request;
            slot ~side:1 ~kind:Lynx.Backend.Reply;
          ]
        in
        checki "distinct" 4 (List.length (List.sort_uniq compare all));
        List.iter
          (fun s ->
            checkb "side recovered" true
              (side_of_slot s = s / 2);
            checkb "kind recovered" true
              (kind_of_slot s
              = if s land 1 = 0 then Lynx.Backend.Request else Lynx.Backend.Reply))
          all);
    Alcotest.test_case "oversize message rejected" `Quick (fun () ->
        let open Lynx_chrysalis.Layout in
        checkb "rejected" true
          (match
             For_tests.encode_slot ~corr:0 ~op:"x" ~exn_msg:None ~enclosures:[]
               ~payload:(Bytes.make (slot_size + 1) 'x')
           with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "notices encode object and tag" `Quick (fun () ->
        let open Lynx_chrysalis.Layout in
        let n = notice_msg ~obj:12345 ~slot:3 in
        checki "obj" 12345 (notice_obj n);
        checki "tag" 3 (notice_tag n);
        let d = notice_destroy ~obj:77 in
        checki "obj" 77 (notice_obj d);
        checki "tag" 15 (notice_tag d));
  ]

(* ---- SODA hint repair ------------------------------------------------------ *)

module P = Lynx.Process
module V = Lynx.Value

(* A link end hops A -> B -> C; then the fixed end's owner (D) uses it.
   D's hint still points at A; A redirects to B (cache), B redirects to
   C.  The call must still succeed, purely via hint repair. *)
let hint_chain_test =
  Alcotest.test_case "stale hints repaired via redirect cache" `Quick
    (fun () ->
      let (backend : Harness.Backend_world.backend) =
        Harness.Backend_world.soda
      in
      let e = Engine.create () in
      let w = backend.create e ~nodes:8 in
      let sts = Lynx.World.stats w in
      let ok = ref false in
      let l_da = Sync.Ivar.create e
      and l_ab = Sync.Ivar.create e
      and l_bc = Sync.Ivar.create e in
      (* D holds the fixed end and calls late. *)
      let d =
        Lynx.World.spawn w ~daemon:true ~node:0 ~name:"D" (fun p ->
            let fixed = Sync.Ivar.read l_da in
            P.sleep p (Time.ms 300);
            match P.call p fixed ~op:"ping" [] with
            | [ V.Str "pong from C" ] -> ok := true
            | _ -> ())
      in
      let a =
        Lynx.World.spawn w ~daemon:true ~node:1 ~name:"A" (fun p ->
            let ab = Sync.Ivar.read l_ab in
            (* A owns the moving end (other end of D's link): pass to B. *)
            let rec find_moving () =
              match
                List.filter (fun l -> l.Lynx.Link.lid <> ab.Lynx.Link.lid)
                  (P.live_links p)
              with
              | m :: _ -> m
              | [] ->
                P.sleep p (Time.ms 1);
                find_moving ()
            in
            let m = find_moving () in
            ignore (P.call p ab ~op:"take" [ V.Link m ]);
            P.sleep p (Time.sec 2))
      in
      let b =
        Lynx.World.spawn w ~daemon:true ~node:2 ~name:"B" (fun p ->
            let bc = Sync.Ivar.read l_bc in
            let inc = P.await_request p () in
            (match inc.P.in_args with
            | [ V.Link m ] ->
              inc.P.in_reply [];
              ignore (P.call p bc ~op:"take" [ V.Link m ])
            | _ -> inc.P.in_reply []);
            P.sleep p (Time.sec 2))
      in
      let c =
        Lynx.World.spawn w ~daemon:true ~node:3 ~name:"C" (fun p ->
            let inc = P.await_request p () in
            match inc.P.in_args with
            | [ V.Link m ] ->
              inc.P.in_reply [];
              (* Stay uninterested for a while: posting our status
                 signal early would refresh D's hint and bypass the
                 redirect path this test exercises. *)
              P.sleep p (Time.ms 450);
              let ping = P.await_request p ~links:[ m ] () in
              ping.P.in_reply [ V.Str "pong from C" ]
            | _ -> inc.P.in_reply [])
      in
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             let da, ad = Lynx.World.link_between w d a in
             let ab, _ = Lynx.World.link_between w a b in
             let bc, _ = Lynx.World.link_between w b c in
             ignore ad;
             Sync.Ivar.fill l_da da;
             Sync.Ivar.fill l_ab ab;
             Sync.Ivar.fill l_bc bc));
      Engine.run e;
      checkb "call succeeded across stale hints" true !ok;
      checkb "redirects actually served" true
        (Stats.get sts "lynx_soda.redirects_served" >= 1
        || Stats.get sts "lynx_soda.moved_redirects" >= 1))

(* When the cache holder has died, the far end is found by discover (or
   the freeze search), per §4.2. *)
let discover_repair_test =
  Alcotest.test_case "dead cache holder repaired via discover/freeze" `Quick
    (fun () ->
      let (backend : Harness.Backend_world.backend) =
        Harness.Backend_world.soda
      in
      let e = Engine.create () in
      let w = backend.create e ~nodes:8 in
      let sts = Lynx.World.stats w in
      let ok = ref false in
      let l_da = Sync.Ivar.create e and l_ab = Sync.Ivar.create e in
      let d =
        Lynx.World.spawn w ~daemon:true ~node:0 ~name:"D" (fun p ->
            let fixed = Sync.Ivar.read l_da in
            (* Wait until A (the cache holder) is long dead. *)
            P.sleep p (Time.ms 500);
            match P.call p fixed ~op:"ping" [] with
            | [ V.Str "pong" ] -> ok := true
            | _ -> ())
      in
      let a =
        Lynx.World.spawn w ~daemon:true ~node:1 ~name:"A" (fun p ->
            let ab = Sync.Ivar.read l_ab in
            let rec find_moving () =
              match
                List.filter (fun l -> l.Lynx.Link.lid <> ab.Lynx.Link.lid)
                  (P.live_links p)
              with
              | m :: _ -> m
              | [] ->
                P.sleep p (Time.ms 1);
                find_moving ()
            in
            let m = find_moving () in
            ignore (P.call p ab ~op:"take" [ V.Link m ]);
            (* Die soon after: the forwarding cache disappears. *)
            P.sleep p (Time.ms 50))
      in
      let b =
        Lynx.World.spawn w ~daemon:true ~node:2 ~name:"B" (fun p ->
            let inc = P.await_request p () in
            match inc.P.in_args with
            | [ V.Link m ] ->
              inc.P.in_reply [];
              (* Delay interest so D must find us by search, not via our
                 status signal. *)
              P.sleep p (Time.ms 650);
              let ping = P.await_request p ~links:[ m ] () in
              ping.P.in_reply [ V.Str "pong" ]
            | _ -> inc.P.in_reply [])
      in
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             let da, ad = Lynx.World.link_between w d a in
             let ab, _ = Lynx.World.link_between w a b in
             ignore ad;
             Sync.Ivar.fill l_da da;
             Sync.Ivar.fill l_ab ab));
      Engine.run e;
      checkb "call succeeded after cache death" true !ok;
      checkb "a search ran" true
        (Stats.get sts "lynx_soda.discover_attempts" >= 1
        || Stats.get sts "lynx_soda.freeze_searches" >= 1))

let soda_repair = [ hint_chain_test; discover_repair_test ]

(* With top-level reply acks, a reply the kernel delivered completes
   even when the link dies before its [Ack] arrives: here the client
   exits as soon as its call returns. *)
let reply_ack_test =
  Alcotest.test_case "a delivered reply survives the caller's exit" `Quick
    (fun () ->
      let e = Engine.create () in
      let w = Harness.Backend_world.charlotte_acks.create e ~nodes:2 in
      let link = Sync.Ivar.create e in
      let outcome = ref "not replied" and answer = ref [] in
      let server =
        Lynx.World.spawn w ~node:0 ~name:"server" (fun p ->
            let inc = P.await_request p () in
            (match inc.P.in_reply [ V.Int 7 ] with
            | () -> outcome := "completed"
            | exception exn -> outcome := Printexc.to_string exn);
            P.sleep p (Time.ms 50))
      in
      let client =
        Lynx.World.spawn w ~node:1 ~name:"client" (fun p ->
            answer := P.call p (Sync.Ivar.read link) ~op:"get" [])
      in
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             let _, cs = Lynx.World.link_between w server client in
             Sync.Ivar.fill link cs));
      Engine.run e;
      checkb "the call returned the reply" true (!answer = [ V.Int 7 ]);
      Alcotest.(check string) "the server's reply" "completed" !outcome)

(* A send on a link whose channel died before [b_send]: the backend
   settles the send inside [b_send], so the caller never blocks, gets
   [Link_destroyed] and its enclosure back.  The runtime here is blind
   to deaths below it (its backend's dead-link reports are dropped), so
   the link still looks live when the send starts.  The events, and so
   the fingerprint, are pinned: a send that fails synchronously emits
   what it always has. *)
let dead_before_send_test (name, make_ops, events_hash) =
  Alcotest.test_case
    (Printf.sprintf "a send on a link dead before b_send fails at once [%s]" name)
    `Quick (fun () ->
      let e = Engine.create () in
      let stats = Stats.create () in
      let outcome = ref "" and recovered = ref false in
      make_ops e stats (fun (ops : Lynx.Backend.ops) ->
          let p =
            P.make e ~name:"A" ~costs:Lynx.Costs.vax ~stats
              { ops with Lynx.Backend.b_take_dead = (fun () -> []) }
          in
          let a, _ = P.new_link p in
          let c, _ = P.new_link p in
          ops.Lynx.Backend.b_destroy ~link:a.Lynx.Link.lid;
          (outcome :=
             match P.call p a ~op:"ping" [ V.Int 1; V.Link c ] with
             | _ -> "replied"
             | exception exn -> Printexc.to_string exn);
          recovered := c.Lynx.Link.l_state = Lynx.Link.Live;
          P.finish p);
      Engine.run e;
      Alcotest.(check string) "the call failed" "Lynx.Excn.Link_destroyed" !outcome;
      checkb "the enclosure came back" true !recovered;
      checki "the send reached the backend" 1 (Stats.get stats "lynx.messages_sent");
      checki "and was not delivered" 0 (Stats.get stats "lynx.messages_delivered");
      Alcotest.(check string) "events hash" events_hash
        (Printf.sprintf "%016Lx" (Engine.events_hash e)))

let dead_before_send =
  List.map dead_before_send_test
    [
      ( "charlotte",
        (fun e stats k ->
          let kernel = Charlotte.Kernel.create e ~stats ~nodes:1 () in
          ignore
            (Charlotte.Kernel.spawn_process kernel ~node:0 ~name:"A" (fun pid ->
                 k (snd (Lynx_charlotte.Channel.make kernel pid ~stats))))),
        "ef4f532df9c9aa95" );
      ( "soda",
        (fun e stats k ->
          let kernel = Soda.Kernel.create e ~stats ~nodes:1 () in
          ignore
            (Soda.Kernel.spawn_process kernel ~node:0 ~name:"A" (fun pid ->
                 k (snd (Lynx_soda.Channel.make kernel pid ~stats))))),
        "39063fd8d3839718" );
      ( "chrysalis",
        (fun e stats k ->
          let kernel = Chrysalis.Kernel.create e ~stats ~processors:1 () in
          ignore
            (Chrysalis.Kernel.spawn_process kernel ~node:0 ~name:"A" (fun pid ->
                 k (snd (Lynx_chrysalis.Channel.make kernel pid ~stats))))),
        "f792f94ceaa73024" );
    ]

(* Fuzz: feeding arbitrary bytes to the wire decoders must produce a
   value or the codec's own Malformed error — never a crash. *)
let fuzz_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"charlotte packet decoder total on garbage"
         ~count:500
         QCheck.(string_of_size (QCheck.Gen.int_bound 64))
         (fun junk ->
           match Lynx_charlotte.Packet.decode (Bytes.of_string junk) with
           | _ -> true
           | exception Lynx_charlotte.Packet.Malformed -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"soda body decoder total on garbage" ~count:500
         QCheck.(string_of_size (QCheck.Gen.int_bound 64))
         (fun junk ->
           match Lynx_soda.Wire.decode_body (Bytes.of_string junk) with
           | _ -> true
           | exception Lynx_soda.Wire.Malformed -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"chrysalis slot decoder total on garbage"
         ~count:500
         QCheck.(string_of_size (QCheck.Gen.int_bound 64))
         (fun junk ->
           match Lynx_chrysalis.Layout.decode_slot (Bytes.of_string junk) with
           | _ -> true
           | exception Lynx_chrysalis.Layout.Malformed -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lynx codec decoder total on garbage" ~count:500
         QCheck.(string_of_size (QCheck.Gen.int_bound 64))
         (fun junk ->
           match Lynx.Codec.decode (Bytes.of_string junk) ~enclosures:[||] with
           | _ -> true
           | exception Lynx.Codec.Malformed _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"soda oob decoders total on garbage" ~count:500
         QCheck.(string_of_size (QCheck.Gen.int_bound 16))
         (fun junk ->
           let b = Bytes.of_string junk in
           ignore (Lynx_soda.Wire.decode_req_oob b);
           ignore (Lynx_soda.Wire.decode_acc_oob b);
           true));
  ]

let () =
  Alcotest.run "backends"
    [
      ("charlotte_packet", charlotte_packets);
      ("soda_wire", soda_wire);
      ("chrysalis_layout", chrysalis_layout);
      ("soda_repair", soda_repair);
      ("charlotte_acks", [ reply_ack_test ]);
      ("dead before send", dead_before_send);
      ("fuzz", fuzz_tests);
    ]
