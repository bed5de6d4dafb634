(* Tests for the typed-operation layer (Lynx.Lang) and the name-server
   service (Lynx.Nameserver) on all three backends. *)

open Sim
module P = Lynx.Process
module L = Lynx.Lang
module NS = Lynx.Nameserver

let checkb = Alcotest.check Alcotest.bool

let on_all = Each_backend.on_all

(* ---- Lang codecs (pure) -------------------------------------------------- *)

let codec_tests =
  let roundtrip (type a) (arg : a L.arg) (op_eq : a -> a -> bool) (x : a) =
    (* Exercise a codec through a full typed RPC on chrysalis. *)
    let (backend : Harness.Backend_world.backend) =
      Harness.Backend_world.chrysalis
    in
    let e = Engine.create () in
    let w = backend.create e ~nodes:4 in
    let op = L.defop ~name:"echo" ~req:arg ~resp:arg in
    let got = ref None in
    let lc = Sync.Ivar.create e in
    let server =
      Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
          let rec wait () =
            match P.live_links p with
            | l :: _ -> l
            | [] ->
              P.sleep p (Time.ms 1);
              wait ()
          in
          L.serve p (wait ()) op (fun v -> v);
          P.sleep p (Time.sec 10))
    in
    let client =
      Lynx.World.spawn w ~daemon:true ~node:1 ~name:"client" (fun p ->
          let lnk = Sync.Ivar.read lc in
          got := Some (L.call p lnk op x))
    in
    ignore
      (Engine.spawn e ~name:"driver" (fun () ->
           let c, _ = Lynx.World.link_between w client server in
           Sync.Ivar.fill lc c));
    Engine.run e;
    match !got with Some y -> op_eq x y | None -> false
  in
  [
    Alcotest.test_case "int round trips" `Quick (fun () ->
        checkb "ok" true (roundtrip L.int ( = ) (-12345)));
    Alcotest.test_case "string round trips" `Quick (fun () ->
        checkb "ok" true (roundtrip L.str String.equal "hello world"));
    Alcotest.test_case "bool round trips" `Quick (fun () ->
        checkb "ok" true (roundtrip L.bool ( = ) true));
    Alcotest.test_case "unit round trips" `Quick (fun () ->
        checkb "ok" true (roundtrip L.unit ( = ) ()));
    Alcotest.test_case "pairs round trip" `Quick (fun () ->
        checkb "pair" true (roundtrip L.(pair int str) ( = ) (7, "x")));
    Alcotest.test_case "lists round trip" `Quick (fun () ->
        checkb "ok" true (roundtrip L.(list int) ( = ) [ 1; 2; 3 ]);
        checkb "empty" true (roundtrip L.(list str) ( = ) []));
    Alcotest.test_case "options round trip" `Quick (fun () ->
        checkb "some" true (roundtrip L.(option int) ( = ) (Some 9));
        checkb "none" true (roundtrip L.(option int) ( = ) None));
  ]

let typed_mismatch_tests =
  on_all "mismatched defops are caught at run time" `Quick (fun backend ->
      (* Server serves (int -> int); client calls with a string request
         under the same operation name — the LYNX dynamic check fires. *)
      let e = Engine.create () in
      let w = backend.create e ~nodes:4 in
      let rejected = ref false in
      let lc = Sync.Ivar.create e in
      let server =
        Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
            let rec wait () =
              match P.live_links p with
              | l :: _ -> l
              | [] ->
                P.sleep p (Time.ms 1);
                wait ()
            in
            L.serve p (wait ())
              (L.defop ~name:"op" ~req:L.int ~resp:L.int)
              (fun x -> x);
            P.sleep p (Time.sec 10))
      in
      let client =
        Lynx.World.spawn w ~daemon:true ~node:1 ~name:"client" (fun p ->
            let lnk = Sync.Ivar.read lc in
            match
              L.call p lnk (L.defop ~name:"op" ~req:L.str ~resp:L.str) "oops"
            with
            | _ -> ()
            | exception (Lynx.Excn.Remote_error _ | Lynx.Excn.Type_error _) ->
              rejected := true)
      in
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             let c, _ = Lynx.World.link_between w client server in
             Sync.Ivar.fill lc c));
      Engine.run e;
      checkb "rejected" true !rejected)

(* ---- Name server ----------------------------------------------------------- *)

(* A world with one name server, one provider ("square"), two clients. *)
let ns_world (backend : Harness.Backend_world.backend) ~client_body =
  let e = Engine.create () in
  let w = backend.create e ~nodes:6 in
  let ns_member =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"nameserver" (fun p -> NS.body p)
  in
  let provider =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"provider" (fun p ->
        let rec wait () =
          match P.live_links p with
          | l :: _ -> l
          | [] ->
            P.sleep p (Time.ms 1);
            wait ()
        in
        let ns = wait () in
        NS.serve_clones p ~ns ~on_client:(fun mine ->
            L.serve p mine
              (L.defop ~name:"square" ~req:L.int ~resp:L.int)
              (fun x -> x * x));
        NS.register p ~ns ~name:"squarer";
        P.sleep p (Time.sec 30))
  in
  let clients =
    List.init 2 (fun i ->
        Lynx.World.spawn w ~daemon:true ~node:(2 + i) ~name:(Printf.sprintf "c%d" i)
          (fun p ->
            let rec wait () =
              match P.live_links p with
              | l :: _ -> l
              | [] ->
                P.sleep p (Time.ms 1);
                wait ()
            in
            let ns = wait () in
            (* Give the provider time to register. *)
            P.sleep p (Time.ms 200);
            client_body p ~ns ~who:i))
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         ignore (Lynx.World.link_between w provider ns_member);
         List.iter (fun c -> ignore (Lynx.World.link_between w c ns_member)) clients));
  Engine.run e;
  e

let ns_tests =
  on_all "lookup hands each client a private working link" `Quick
    (fun backend ->
      let results = ref [] in
      ignore
        (ns_world
           backend
           ~client_body:(fun p ~ns ~who ->
             match NS.lookup p ~ns ~name:"squarer" with
             | Some service ->
               (match
                  L.call p service
                    (L.defop ~name:"square" ~req:L.int ~resp:L.int)
                    (who + 3)
                with
               | r -> results := (who, r) :: !results)
             | None -> ()));
      Alcotest.check
        Alcotest.(list (pair int int))
        "both clients served" [ (0, 9); (1, 16) ]
        (List.sort compare !results))
  @ on_all "unknown names resolve to None" `Quick (fun backend ->
        let got = ref (Some ()) in
        ignore
          (ns_world
             backend
             ~client_body:(fun p ~ns ~who:_ ->
               match NS.lookup p ~ns ~name:"no-such-service" with
               | None -> got := None
               | Some _ -> ()));
        checkb "none" true (!got = None))
  @ on_all "list_names reports registrations" `Quick (fun backend ->
        let names = ref [] in
        ignore
          (ns_world
             backend
             ~client_body:(fun p ~ns ~who ->
               if who = 0 then names := NS.list_names p ~ns));
        Alcotest.check
          Alcotest.(list string)
          "names" [ "squarer" ] !names)
  @ [
      Alcotest.test_case "duplicate registration refused [chrysalis]" `Quick
        (fun () ->
          let (backend : Harness.Backend_world.backend) =
            Harness.Backend_world.chrysalis
          in
          let refused = ref false in
          let e = Engine.create () in
          let w = backend.create e ~nodes:4 in
          let ns_member =
            Lynx.World.spawn w ~daemon:true ~node:0 ~name:"nameserver" (fun p ->
                NS.body p)
          in
          let provider =
            Lynx.World.spawn w ~daemon:true ~node:1 ~name:"provider" (fun p ->
                let rec wait () =
                  match P.live_links p with
                  | l :: _ -> l
                  | [] ->
                    P.sleep p (Time.ms 1);
                    wait ()
                in
                let ns = wait () in
                NS.serve_clones p ~ns ~on_client:(fun _ -> ());
                NS.register p ~ns ~name:"dup";
                (match NS.register p ~ns ~name:"dup" with
                | () -> ()
                | exception Lynx.Excn.Remote_error _ -> refused := true);
                P.sleep p (Time.ms 100))
          in
          ignore
            (Engine.spawn e ~name:"driver" (fun () ->
                 ignore (Lynx.World.link_between w provider ns_member)));
          Engine.run e;
          checkb "refused" true !refused);
    ]

let () =
  Alcotest.run "services"
    [
      ("lang", codec_tests);
      ("lang_mismatch", typed_mismatch_tests);
      ("nameserver", ns_tests);
    ]
