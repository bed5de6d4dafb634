(* Fault injection: processes die at awkward moments and the survivors
   must carry on — LYNX's whole reason for reflecting failures as
   exceptions (§2.2). *)

open Sim
module P = Lynx.Process
module V = Lynx.Value
module L = Lynx.Lang
module NS = Lynx.Nameserver

let checkb = Alcotest.check Alcotest.bool

let on_all = Each_backend.on_all

let wait_first_link p =
  let rec go () =
    match P.live_links p with
    | l :: _ -> l
    | [] ->
      P.sleep p (Time.ms 1);
      go ()
  in
  go ()

(* Clients with random lifetimes die mid-conversation; the server and
   the long-lived client must be unaffected. *)
let random_kill ~seed (backend : Harness.Backend_world.backend) =
  let e = Engine.create ~seed () in
  let w = backend.create e ~nodes:8 in
  let survivor_ok = ref false in
  let served = ref 0 in
  let server =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
        P.on_new_link p (fun l ->
            P.serve p l ~op:"ping" (fun _ ->
                incr served;
                [ V.Int !served ]));
        List.iter
          (fun l ->
            P.serve p l ~op:"ping" (fun _ ->
                incr served;
                [ V.Int !served ]))
          (P.live_links p);
        P.park p)
  in
  let rng = Rng.create seed in
  (* Three mortal clients with random lifetimes mid-burst. *)
  let mortals =
    List.init 3 (fun i ->
        let lifetime = Time.ms (20 + Rng.int rng 150) in
        Lynx.World.spawn w ~daemon:true ~node:(1 + i) ~name:(Printf.sprintf "mortal%d" i)
          (fun p ->
            let lnk = wait_first_link p in
            P.spawn_thread p (fun () ->
                for _ = 1 to 50 do
                  ignore (P.call p lnk ~op:"ping" [])
                done);
            (* Death interrupts the burst. *)
            P.sleep p lifetime))
  in
  let survivor =
    Lynx.World.spawn w ~daemon:true ~node:5 ~name:"survivor" (fun p ->
        let lnk = wait_first_link p in
        P.sleep p (Time.ms 400) (* after every mortal is gone *);
        match P.call p lnk ~op:"ping" [] with
        | [ V.Int _ ] -> survivor_ok := true
        | _ -> ())
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         List.iter (fun m -> ignore (Lynx.World.link_between w m server)) mortals;
         ignore (Lynx.World.link_between w survivor server)));
  Engine.run e;
  (!survivor_ok, !served)

let kill_tests =
  on_all "server survives clients dying mid-burst" `Quick (fun backend ->
      let ok, served = random_kill ~seed:42 backend in
      checkb "survivor served" true ok;
      checkb "some mortal calls served before death" true (served > 1))
  @ List.map
      (fun (backend : Harness.Backend_world.backend) ->
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make
             ~name:
               (Printf.sprintf "survivor served for any kill timing [%s]"
                  backend.name)
             ~count:6
             QCheck.(int_bound 10_000)
             (fun seed -> fst (random_kill ~seed backend))))
      Harness.Backend_world.all

(* The name server forgets providers that die: lookups turn to None
   instead of hanging or crashing. *)
let ns_fault_tests =
  on_all "nameserver survives provider death" `Quick (fun backend ->
      let e = Engine.create () in
      let w = backend.create e ~nodes:6 in
      let before = ref None and after = ref (Some ()) in
      let ns_member =
        Lynx.World.spawn w ~daemon:true ~node:0 ~name:"nameserver" NS.body
      in
      let provider =
        Lynx.World.spawn w ~daemon:true ~node:1 ~name:"provider" (fun p ->
            let ns = wait_first_link p in
            NS.serve_clones p ~ns ~on_client:(fun mine ->
                L.serve p mine (L.defop ~name:"id" ~req:L.int ~resp:L.int)
                  (fun x -> x));
            NS.register p ~ns ~name:"flaky";
            (* Die shortly after registering. *)
            P.sleep p (Time.ms 300))
      in
      let client =
        Lynx.World.spawn w ~daemon:true ~node:2 ~name:"client" (fun p ->
            let ns = wait_first_link p in
            P.sleep p (Time.ms 150);
            (* While alive: the service resolves and works. *)
            (match NS.lookup p ~ns ~name:"flaky" with
            | Some svc ->
              before :=
                Some (L.call p svc (L.defop ~name:"id" ~req:L.int ~resp:L.int) 5)
            | None -> ());
            P.sleep p (Time.ms 600);
            (* After the provider's death: cleanly unresolvable. *)
            match NS.lookup p ~ns ~name:"flaky" with
            | None -> after := None
            | Some _ -> ())
      in
      ignore
        (Engine.spawn e ~name:"driver" (fun () ->
             ignore (Lynx.World.link_between w provider ns_member);
             ignore (Lynx.World.link_between w client ns_member)));
      Engine.run e;
      checkb "worked while alive" true (!before = Some 5);
      checkb "cleanly gone after death" true (!after = None))

(* A call racing with the peer's destroy either completes or raises
   Link_destroyed — never hangs, never returns garbage. *)
let race_outcome ~delay_ms (backend : Harness.Backend_world.backend) =
  let e = Engine.create () in
  let w = backend.create e ~nodes:4 in
  let outcome = ref `Hung in
  let server =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
        P.on_new_link p (fun l ->
            P.serve p l ~op:"ping" (fun _ -> [ V.Int 1 ]));
        List.iter
          (fun l -> P.serve p l ~op:"ping" (fun _ -> [ V.Int 1 ]))
          (P.live_links p);
        (* Destroy our end at a varying instant. *)
        P.sleep p (Time.ms delay_ms);
        List.iter
          (fun l -> try P.destroy_link p l with _ -> ())
          (P.live_links p);
        P.park p)
  in
  let client =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"client" (fun p ->
        let lnk = wait_first_link p in
        P.sleep p (Time.ms 10);
        match P.call p lnk ~op:"ping" [] with
        | [ V.Int 1 ] -> outcome := `Completed
        | _ -> outcome := `Garbage
        | exception
            ( Lynx.Excn.Link_destroyed | Lynx.Excn.Process_terminated
            | Lynx.Excn.Remote_error _ ) ->
          outcome := `Raised)
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         ignore (Lynx.World.link_between w client server)));
  Engine.run e;
  !outcome

let race_tests =
  on_all "call racing a destroy completes or raises cleanly" `Quick
    (fun backend ->
      let outcomes =
        List.map
          (fun d -> race_outcome ~delay_ms:d backend)
          [ 5; 11; 25; 40; 70; 120 ]
      in
      checkb "no hangs or garbage" true
        (List.for_all (function `Completed | `Raised -> true | _ -> false)
           outcomes);
      (* The sweep must actually cover both fates. *)
      checkb "some raise" true (List.mem `Raised outcomes);
      checkb "some complete" true (List.mem `Completed outcomes))

(* The targeted plans are named presets; their distinguishing fields —
   the crash victim, the partition window, the replica-group cut — must
   survive into [Plan.to_string], because that string is the only
   rendering of the plan a chaos repro prints. *)
let test_targeted_plan_strings () =
  let has affix s =
    try
      ignore (Str.search_forward (Str.regexp_string affix) s 0);
      true
    with Not_found -> false
  in
  let check plan affixes =
    let s = Faults.Plan.to_string plan in
    List.iter
      (fun a -> checkb (Printf.sprintf "%S carries %S" s a) true (has a s))
      affixes
  in
  check Faults.Plan.leader_crash
    [ "leader-crash"; "crash@10.000ms"; "victim=leader" ];
  check Faults.Plan.partition_minority
    [ "partition-minority"; "partition@[10.000ms,300.000ms)"; "cut=high4" ];
  check Faults.Plan.partition_majority
    [ "partition-majority"; "partition@[10.000ms,300.000ms)"; "cut=high3" ];
  (* And the windows the liveness judge measures from. *)
  let close plan = Faults.Plan.window_close (Faults.Plan.validate plan) in
  Alcotest.(check int)
    "leader-crash heals at 310ms" 310
    (Time.to_ns (close Faults.Plan.leader_crash) / 1_000_000);
  Alcotest.(check int)
    "partitions lift at 300ms" 300
    (Time.to_ns (close Faults.Plan.partition_majority) / 1_000_000);
  Alcotest.(check bool)
    "windowless plans have no window" true
    (Time.is_zero (close Faults.Plan.drops))

(* A frame a partition stalls is retried by rescheduling the closure
   it already is, with the stall kind it built once: on an unobserved
   engine each stall allocates its task-queue entry and nothing else.
   [stalls n] runs one frame across a minority cut through [n + 1]
   stalls, a retransmit interval apart. *)
let stalls n =
  let e = Engine.create ~log_capacity:0 () in
  let inj =
    Faults.Injector.create e ~stats:(Stats.create ()) Faults.Plan.partition_minority
  in
  let start = Time.ms 10 in
  Engine.schedule_at e start
    (Faults.Injector.wrap_delivery (Some inj) ~src:0 ~dst:5 ~obj:"q" ~op:"frame"
       (fun () -> Alcotest.fail "delivered across the cut"));
  Engine.run_until e (Time.add start (Time.us (200 * n)))

let test_stall_words () =
  Budgets.check "faults.partition-stall" (Budgets.words_per_iter stalls)

let () =
  Alcotest.run "faults"
    [
      ("kills", kill_tests);
      ("nameserver", ns_fault_tests);
      ("races", race_tests);
      ( "plans",
        [
          Alcotest.test_case "targeted plan strings" `Quick
            test_targeted_plan_strings;
        ] );
      ( "allocation",
        [ Alcotest.test_case "words per partition stall" `Quick test_stall_words ] );
    ]
