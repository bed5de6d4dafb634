(** The paper's qualitative scenarios, runnable on every backend:
    figure 1 (both ends of a link moved simultaneously), figure 2 (the
    multi-enclosure protocol), and the unwanted-message cases of §3.2.1.
    Used by both the test suite and the bench harness. *)

open Sim
open Backend_world
include Stage
module P = Lynx.Process

let str s = Lynx.Value.Str s
let link l = Lynx.Value.Link l

(* The common driver: one link between [a] and [b], each end handed to
   its process through an ivar. *)
let fill_pair w a b ia ib () =
  let la, lb = Lynx.World.link_between w a b in
  Sync.Ivar.fill ia la;
  Sync.Ivar.fill ib lb

(* The SODA-only scenarios build their own SODA world: they set the
   kernel's costs or the channel layer's signal budget. *)
let soda_with ~kernel_costs ~signal_budget =
  {
    name = "soda";
    create =
      (fun ?plan e ~nodes ->
        Lynx_soda.World.create ~kernel_costs ~signal_budget ?plan e ~nodes);
  }

(** Figure 1: processes A and D hold the two ends of link 3 and move
    them {e simultaneously} — A gives its end to B, D gives its end to
    C.  What used to connect A to D must now connect B to C, proven by a
    B->C call over the moved link. *)
let simultaneous_move ctx backend =
  stage ctx backend ~nodes:6 @@ fun eng w ->
  let result = ref "not finished" in
  let finished = Sync.Ivar.create eng in
  (* Links: 1 connects A-B, 2 connects C-D, 3 connects A-D. *)
  let l_ab = Sync.Ivar.create eng and l_ba = Sync.Ivar.create eng in
  let l_cd = Sync.Ivar.create eng and l_dc = Sync.Ivar.create eng in
  let l_ad = Sync.Ivar.create eng and l_da = Sync.Ivar.create eng in
  let a =
    Lynx.World.spawn w ~node:0 ~name:"A" (fun p ->
        let ab = Sync.Ivar.read l_ab and ad = Sync.Ivar.read l_ad in
        (* Move our end of link 3 to B. *)
        ignore (P.call p ab ~op:"take" [ link ad ]);
        (* Linger so trailing protocol traffic (e.g. reply acks in the
           ablation variant) can drain before our links die with us. *)
        P.sleep p (Time.ms 100))
  in
  let b =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"B" (fun p ->
        let _ba = Sync.Ivar.read l_ba in
        let inc = P.await_request p () in
        match inc.P.in_args with
        | [ Lynx.Value.Link moved ] ->
          inc.P.in_reply [];
          (* The moved end now connects us to whoever holds the other
             end (C, once D's move completes). *)
          (match P.call p moved ~op:"ping" [ str "hello from B" ] with
          | [ Lynx.Value.Str "pong from C" ] ->
            result := "ok";
            Sync.Ivar.fill finished true
          | _ ->
            result := "bad pong";
            Sync.Ivar.fill finished false);
          P.sleep p (Time.ms 100)
        | _ ->
          result := "B got garbage";
          Sync.Ivar.fill finished false)
  in
  let c =
    Lynx.World.spawn w ~daemon:true ~node:2 ~name:"C" (fun p ->
        let _dc = Sync.Ivar.read l_dc in
        let inc = P.await_request p () in
        match inc.P.in_args with
        | [ Lynx.Value.Link moved ] ->
          inc.P.in_reply [];
          let ping = P.await_request p ~links:[ moved ] () in
          ping.P.in_reply [ str "pong from C" ]
        | _ ->
          result := "C got garbage";
          Sync.Ivar.fill finished false)
  in
  let d =
    Lynx.World.spawn w ~node:3 ~name:"D" (fun p ->
        let dc = Sync.Ivar.read l_cd and da = Sync.Ivar.read l_da in
        (* Simultaneously with A's move: give our end of link 3 to C. *)
        ignore (P.call p dc ~op:"take" [ link da ]);
        P.sleep p (Time.ms 100))
  in
  {
    links =
      (fun () ->
        let ab, ba = Lynx.World.link_between w a b in
        let cd, dc = Lynx.World.link_between w d c in
        let ad, da = Lynx.World.link_between w a d in
        Sync.Ivar.fill l_ab ab;
        Sync.Ivar.fill l_ba ba;
        Sync.Ivar.fill l_cd cd;
        Sync.Ivar.fill l_dc dc;
        Sync.Ivar.fill l_ad ad;
        Sync.Ivar.fill l_da da);
    verdict = (fun () -> (Sync.Ivar.peek finished = Some true, !result));
  }

(** Figure 2: one LYNX request moving [n_encl] link ends, answered by an
    empty reply.  The interesting output is the counter diff: under
    Charlotte the kernel-message count grows with the enclosure count
    (first packet, goahead, enc packets); under SODA and Chrysalis it
    does not. *)
let enclosure_protocol ~n_encl ctx backend =
  stage ctx backend ~nodes:4 @@ fun eng w ->
  let ok = ref false in
  let client_link = Sync.Ivar.create eng in
  let received = ref 0 in
  let server =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
        let inc = P.await_request p () in
        received := List.length (Lynx.Value.links_of_list inc.P.in_args);
        inc.P.in_reply [])
  in
  let client =
    Lynx.World.spawn w ~node:1 ~name:"client" (fun p ->
        let lnk = Sync.Ivar.read client_link in
        (* Fresh links whose far ends we keep; we move the near ends. *)
        let ends =
          List.init n_encl (fun _ ->
              let near, _far = P.new_link p in
              link near)
        in
        match P.call p lnk ~op:"take" ends with
        | [] -> ok := true
        | _ -> ())
  in
  {
    links =
      (fun () ->
        let ce, _se = Lynx.World.link_between w client server in
        Sync.Ivar.fill client_link ce);
    verdict =
      (fun () ->
        ( !ok && !received = n_encl,
          Printf.sprintf "%d enclosures arrived" !received ));
  }

(** §3.2.1, first scenario: A requests an operation on L and waits for
    the reply with its request queue closed; B, before replying,
    requests an operation in the reverse direction.  A receives B's
    request unintentionally and must bounce it with [Forbid] (it cannot
    stop receiving — it still wants the reply), then [Allow] it once it
    is willing.  On SODA and Chrysalis nothing is ever bounced. *)
let cross_request ctx backend =
  stage ctx backend ~nodes:4 @@ fun eng w ->
  let a_done = ref false and b_done = ref false in
  let link_a = Sync.Ivar.create eng in
  let a =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"A" (fun p ->
        let l = Sync.Ivar.read link_a in
        (* Request queue closed: we only expect the reply. *)
        let r = P.call p l ~op:"fwd" [ str "from A" ] in
        (match r with [ Lynx.Value.Str "fwd done" ] -> () | _ -> ());
        (* Now willing: serve B's reverse request. *)
        let inc = P.await_request p ~links:[ l ] () in
        inc.P.in_reply [ str "rev done" ];
        a_done := true)
  in
  let b =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"B" (fun p ->
        let inc = P.await_request p () in
        let l = inc.P.in_link in
        let rev_finished = Sync.Ivar.create eng in
        (* Before replying, fire a request back up the same link (the
           coroutine mechanism makes this plausible, §3.2.1). *)
        P.spawn_thread p (fun () ->
            (match P.call p l ~op:"rev" [ str "from B" ] with
            | [ Lynx.Value.Str "rev done" ] -> b_done := true
            | _ -> ());
            Sync.Ivar.fill rev_finished ());
        (* Give the reverse request a head start so it arrives while A
           still has only the reply receive posted. *)
        P.sleep p (Time.ms 40);
        inc.P.in_reply [ str "fwd done" ];
        (* Keep the process (and its links) alive until the reverse
           call has completed. *)
        Sync.Ivar.read rev_finished)
  in
  {
    links =
      (fun () ->
        let la, _lb = Lynx.World.link_between w a b in
        Sync.Ivar.fill link_a la);
    verdict =
      (fun () ->
        ( !a_done && !b_done,
          Printf.sprintf "a_done=%b b_done=%b" !a_done !b_done ));
  }

(** §3.2.1, second scenario: A opens its request queue and closes it
    again before reaching a block point; B requests in the window.  The
    cancel fails, A receives the unwanted request and returns it with
    [Retry]; the kernel delays B's retransmission until A reopens. *)
let open_close_race ctx backend =
  stage ctx backend ~nodes:4 @@ fun eng w ->
  let served = ref false and b_done = ref false in
  let link_a = Sync.Ivar.create eng and link_b = Sync.Ivar.create eng in
  let a =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"A" (fun p ->
        let l = Sync.Ivar.read link_a in
        P.open_queue p l;
        (* Stay away from block points long enough for B's request to
           arrive, then change our mind. *)
        P.sleep p (Time.ms 60);
        P.close_queue p l;
        P.sleep p (Time.ms 80);
        (* Reopen and serve for real. *)
        let inc = P.await_request p ~links:[ l ] () in
        served := true;
        inc.P.in_reply [ str "served" ])
  in
  let b =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"B" (fun p ->
        let l = Sync.Ivar.read link_b in
        (* Timed so that under Charlotte the message is still in flight
           when A tries to cancel its receive: the cancel fails (the
           kernel has already matched the activities) and the unwanted
           request must be bounced with [Retry]. *)
        P.sleep p (Time.ms 36);
        match P.call p l ~op:"poke" [] with
        | [ Lynx.Value.Str "served" ] -> b_done := true
        | _ -> ())
  in
  {
    links = fill_pair w a b link_a link_b;
    verdict =
      (fun () ->
        ( !served && !b_done,
          Printf.sprintf "served=%b b_done=%b" !served !b_done ));
  }

(** §3.2.2: the Charlotte deviation.  B calls A and waits for the reply
    — so under Charlotte B has a receive posted, wanting only replies.
    A sends B a request enclosing a link end; B's posted receive picks
    it up unintentionally, and B dies before the [Forbid] returning the
    enclosure reaches A.  The enclosed end is lost: the thread watching
    the enclosure's far end sees its link destroyed.  Under SODA and
    Chrysalis B never receives the unwanted message, so the enclosure
    survives ([far_end_died] stays false and the failed send recovers
    the end). *)
let lost_enclosure ctx backend =
  stage ctx backend ~nodes:4 @@ fun eng w ->
  let far_end_died = ref false
  and send_failed = ref false
  and enclosure_recovered = ref false in
  let link_a = Sync.Ivar.create eng and link_b = Sync.Ivar.create eng in
  let a =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"A" (fun p ->
        let l = Sync.Ivar.read link_a in
        let near, far = P.new_link p in
        (* Watch the far end of the link whose near end we enclose. *)
        P.spawn_thread p (fun () ->
            match P.await_request p ~links:[ far ] () with
            | _ -> ()
            | exception Lynx.Excn.Link_destroyed -> far_end_died := true);
        (* Serve B's "slow" call in a thread so the main thread can send
           the fateful request. *)
        P.spawn_thread p (fun () ->
            match P.await_request p ~links:[ l ] () with
            | inc ->
              P.sleep p (Time.ms 400);
              (try inc.P.in_reply [] with _ -> ())
            | exception Lynx.Excn.Link_destroyed -> ());
        P.sleep p (Time.ms 10);
        (match P.call p l ~op:"unwanted" [ link near ] with
        | _ -> ()
        | exception
            ( Lynx.Excn.Link_destroyed | Lynx.Excn.Process_terminated
            | Lynx.Excn.Remote_error _ ) ->
          send_failed := true;
          enclosure_recovered := near.Lynx.Link.l_state = Lynx.Link.Live);
        P.sleep p (Time.ms 800))
  in
  let b =
    Lynx.World.spawn w ~node:1 ~name:"B" (fun p ->
        let l = Sync.Ivar.read link_b in
        (* Expect a reply — nothing else — then die mid-protocol. *)
        P.spawn_thread p (fun () ->
            try ignore (P.call p l ~op:"slow" []) with _ -> ());
        P.sleep p (Time.ms 60))
  in
  {
    links = fill_pair w a b link_a link_b;
    verdict =
      (fun () ->
        ( !send_failed,
          Printf.sprintf "far_end_died=%b send_failed=%b recovered=%b"
            !far_end_died !send_failed !enclosure_recovered ));
  }

(** SODA-specific: the hint-repair machinery under a given broadcast
    loss rate.  A link end moves A -> B, then the cache holder A dies;
    the fixed end's owner D uses the link afterwards, so its hint is
    doubly stale.  With a reliable broadcast one [discover] fixes it;
    as the loss rate rises the freeze/unfreeze absolute search (§4.2)
    takes over.  This is the scene of [soda_hint_repair], which reports
    the repair's own time, kept in [repair_duration], as [o_duration];
    the counters of interest are [lynx_soda.discover_attempts] and
    [lynx_soda.freeze_searches]. *)
let hint_repair ~broadcast_loss repair_duration eng w =
  let ok = ref false in
  let l_da = Sync.Ivar.create eng and l_ab = Sync.Ivar.create eng in
  let d =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"D" (fun p ->
        let fixed = Sync.Ivar.read l_da in
        P.sleep p (Time.ms 500);
        let t0 = Engine.now eng in
        (match P.call p fixed ~op:"ping" [] with
        | [ Lynx.Value.Str "pong" ] -> ok := true
        | _ -> ()
        | exception _ -> ());
        repair_duration := Time.sub (Engine.now eng) t0)
  in
  let a =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"A" (fun p ->
        let ab = Sync.Ivar.read l_ab in
        let rec find_moving () =
          match
            List.filter
              (fun (l : Lynx.Link.t) -> l.Lynx.Link.lid <> ab.Lynx.Link.lid)
              (P.live_links p)
          with
          | m :: _ -> m
          | [] ->
            P.sleep p (Time.ms 1);
            find_moving ()
        in
        let m = find_moving () in
        ignore (P.call p ab ~op:"take" [ link m ]);
        (* Die: the forwarding cache disappears with us. *)
        P.sleep p (Time.ms 50))
  in
  let b =
    Lynx.World.spawn w ~daemon:true ~node:2 ~name:"B" (fun p ->
        let inc = P.await_request p () in
        match inc.P.in_args with
        | [ Lynx.Value.Link m ] ->
          inc.P.in_reply [];
          (* Stay uninterested until D has had to search. *)
          P.sleep p (Time.ms 700);
          let ping = P.await_request p ~links:[ m ] () in
          ping.P.in_reply [ str "pong" ]
        | _ -> inc.P.in_reply [])
  in
  {
    links =
      (fun () ->
        let da, _ = Lynx.World.link_between w d a in
        let ab, _ = Lynx.World.link_between w a b in
        Sync.Ivar.fill l_da da;
        Sync.Ivar.fill l_ab ab);
    verdict =
      (fun () ->
        ( !ok,
          Printf.sprintf "loss=%.2f repaired=%b in %s" broadcast_loss !ok
            (Time.to_string !repair_duration) ));
  }

let soda_hint_repair ?(broadcast_loss = 0.05) ctx (_ : backend) =
  let repair_duration = ref Time.zero in
  let lossy =
    soda_with ~signal_budget:true
      ~kernel_costs:{ Soda.Costs.default with Soda.Costs.broadcast_loss }
  in
  let o =
    stage ctx lossy ~nodes:8 (hint_repair ~broadcast_loss repair_duration)
  in
  { o with o_duration = !repair_duration }

(** An unwanted request {e carrying a link end}: under Charlotte the
    bounce (retry or forbid) must return the enclosure to the sender,
    which retransmits; the end must arrive intact once the receiver
    becomes willing.  Under SODA/Chrysalis the message simply waits. *)
let bounced_enclosure ctx backend =
  stage ctx backend ~nodes:4 @@ fun eng w ->
  let delivered = ref false and pong = ref false in
  let link_a = Sync.Ivar.create eng and link_b = Sync.Ivar.create eng in
  let a =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"A" (fun p ->
        let l = Sync.Ivar.read link_a in
        let near, far = P.new_link p in
        (* B is not willing yet: under Charlotte this request is
           received unintentionally (B has a reply receive posted from
           its own concurrent call) and bounced with our enclosure. *)
        ignore (P.call p l ~op:"take" [ link near ]);
        delivered := true;
        (* Prove the end survived the bounce: serve a ping on our side. *)
        let inc = P.await_request p ~links:[ far ] () in
        inc.P.in_reply [ str "pong" ];
        P.sleep p (Time.ms 200))
  in
  let b =
    Lynx.World.spawn w ~daemon:true ~node:1 ~name:"B" (fun p ->
        let l = Sync.Ivar.read link_b in
        (* Fire our own call first so a reply receive is posted and the
           unwanted request cannot simply wait at the kernel. *)
        P.spawn_thread p (fun () ->
            try ignore (P.call p l ~op:"busywork" []) with _ -> ());
        P.sleep p (Time.ms 120);
        (* Now willing: A's retransmitted enclosure arrives. *)
        let inc = P.await_request p ~links:[ l ] () in
        (match inc.P.in_args with
        | [ Lynx.Value.Link moved ] ->
          inc.P.in_reply [];
          (match P.call p moved ~op:"ping" [] with
          | [ Lynx.Value.Str "pong" ] -> pong := true
          | _ -> ())
        | _ -> inc.P.in_reply []);
        P.sleep p (Time.ms 200))
  in
  {
    links = fill_pair w a b link_a link_b;
    verdict =
      (fun () ->
        ( !delivered && !pong,
          Printf.sprintf "delivered=%b pong=%b" !delivered !pong ));
  }

(** SODA-specific (§4.2.1): six links between one pair of processes,
    one concurrent call on each, bounded by 2 s of virtual time.  With the channel layer's signal budget every call
    completes; with [budget:false] the status signals exhaust the
    kernel's per-pair outstanding-request limit and the data puts
    starve — the deadlock the paper warns about.  [o_ok] reports
    whether {e all} calls completed; [o_detail] has the tally. *)
let soda_pair_pressure ?(budget = true) ctx (_ : backend) =
  let n_links = 6 and deadline = Time.sec 2 in
  let soda = soda_with ~kernel_costs:Soda.Costs.default ~signal_budget:budget in
  (* The unbudgeted variant livelocks: cut it off at the deadline. *)
  stage_until deadline ctx soda ~nodes:4 @@ fun eng w ->
  let completed = ref 0 in
  let server =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
        P.on_new_link p (fun l ->
            P.serve p l ~op:"hit" (fun _ -> [ Lynx.Value.Int 1 ]));
        List.iter
          (fun l -> P.serve p l ~op:"hit" (fun _ -> [ Lynx.Value.Int 1 ]))
          (P.live_links p);
        P.park p)
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
        let fin = Sync.Ivar.create eng in
        let remaining = ref (List.length links) in
        List.iter
          (fun l ->
            P.spawn_thread p (fun () ->
                (match P.call p l ~op:"hit" [] with
                | [ Lynx.Value.Int 1 ] -> incr completed
                | _ -> ());
                decr remaining;
                if !remaining = 0 then Sync.Ivar.fill fin ()))
          links;
        (* Stay alive until every call has concluded (the unbudgeted
           variant never gets here; the deadline cuts it off). *)
        Sync.Ivar.read fin)
  in
  {
    links =
      (fun () ->
        for _ = 1 to n_links do
          ignore (Lynx.World.link_between w client server)
        done);
    verdict =
      (fun () ->
        ( !completed = n_links,
          Printf.sprintf "budget=%b completed=%d/%d" budget !completed n_links ));
  }

(* ---- the scenario registry ------------------------------------------- *)

(* One entry per runnable scenario: its sweep name, the backends it
   applies to, and a uniform runner.  Every sweep pipeline (explore,
   chaos, races, repro) resolves scenarios here instead of keeping its
   own name-matched list; a new scenario plugs into all of them with one
   entry. *)

type registered = {
  sc_name : string;
  sc_applies_to : backend -> bool;
  sc_parameterised : bool;
      (* accepts a population (the spec's ~nN axis)?  Only the workload
         scenarios do; Exec.check rejects a population elsewhere. *)
  sc_run : ctx -> backend -> outcome;
  sc_recovery_deadline : Time.t option;
      (* fault-tolerant scenarios: recovery budget after window close *)
}

let every_backend (_ : backend) = true

(* SODA-specific scenarios exercise kernel machinery (hints, discover,
   the pair budget) the other kernels do not have. *)
let soda_only (backend : backend) = String.equal backend.name "soda"

let entry ?(applies_to = every_backend) ?(parameterised = false) ?deadline
    name run =
  {
    sc_name = name;
    sc_applies_to = applies_to;
    sc_parameterised = parameterised;
    sc_run = run;
    sc_recovery_deadline = deadline;
  }

(* Workload.run keeps its labelled signature (the benchmark drives it
   directly); this is where a registry context meets it. *)
let workload topology load c w =
  let population =
    Option.value ~default:Workload.default_population c.population
  in
  let r =
    Workload.run ~seed:c.seed ~policy:c.policy ~shards:c.shards ~topology ~load
      ~population w
  in
  {
    (report c ~ok:r.Workload.r_ok ~detail:r.Workload.r_detail
       ~duration:r.Workload.r_duration ~counters:r.Workload.r_counters
       r.Workload.r_view)
    with
    o_latency = r.Workload.r_latency;
  }

let registry =
  [
    entry "move" simultaneous_move;
    entry "enclosures" (enclosure_protocol ~n_encl:3);
    entry "cross-request" cross_request;
    entry "open-close" open_close_race;
    entry "lost-enclosure" lost_enclosure;
    entry "bounced-enclosure" bounced_enclosure;
    (* Priced by the backend's kernel cost table; the engine policy kind
       is reinterpreted at the shard barriers, so it passes through
       unchanged.  Only shard-rpc and the workloads fan out over
       [c.shards]. *)
    entry "shard-rpc" Shard_rpc.run;
    entry "ring-election" ~deadline:Election.deadline Election.run;
    entry "quorum" ~deadline:Quorum.deadline Quorum.run;
    (* Parameterised workload scenarios: population-scale topologies over
       the shard engine, priced by the backend cost tables.  The
       population is the spec's ~nN axis; with no axis they run at
       Workload.default_population so the default sweeps stay fast. *)
    entry "wl-farm" ~parameterised:true
      (workload Workload.Farm (Workload.default_load Workload.Farm));
    entry "wl-farm-open" ~parameterised:true
      (workload Workload.Farm (Workload.Open { window = Workload.default_window }));
    entry "wl-ring" ~parameterised:true
      (workload Workload.Ring (Workload.default_load Workload.Ring));
    entry "wl-tree" ~parameterised:true
      (workload Workload.Tree (Workload.default_load Workload.Tree));
    entry "hint-repair" ~applies_to:soda_only soda_hint_repair;
    entry "pair-pressure" ~applies_to:soda_only soda_pair_pressure;
  ]

let names = List.map (fun r -> r.sc_name) registry
let find name_ = List.find_opt (fun r -> String.equal r.sc_name name_) registry
let applies r b = r.sc_applies_to b
