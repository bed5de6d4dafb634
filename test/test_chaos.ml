(* The chaos layer: deterministic fault injection (lib/faults), LYNX
   screening — reply timeouts, capped backoff, retry budgets, at-most-once
   request dedup — and the chaos sweep that drives catalog scenarios
   under fault plans and judges them with the invariant suite. *)

open Sim
module P = Lynx.Process
module V = Lynx.Value
module A = Run.Artifact
module Spec = Run.Spec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let str s = V.Str s

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

(* ---- Rng.split ---------------------------------------------------------- *)

(* The injector's whole determinism story rests on [Rng.split]: the
   child stream must be independent of the parent's subsequent draws,
   and splitting must advance the parent exactly one step. *)
let rng_split_independent () =
  let a = Rng.create 99 in
  let b = Rng.create 99 in
  let child = Rng.split a in
  (* Same child regardless of what the parent does afterwards. *)
  let child' = Rng.split b in
  ignore (Rng.int b 1000);
  ignore (Rng.int b 1000);
  let c1 = List.init 16 (fun _ -> Rng.float child) in
  let c2 = List.init 16 (fun _ -> Rng.float child') in
  checkb "child stream is a function of the split point only" true (c1 = c2);
  (* Splitting advanced the parent exactly once: both parents have now
     consumed split + 2 ints vs split + 0 — resync by drawing. *)
  ignore (Rng.int a 1000);
  ignore (Rng.int a 1000);
  checkb "parents resynchronise" true
    (Rng.float a = Rng.float b);
  (* Child and parent streams differ. *)
  let p = List.init 16 (fun _ -> Rng.float a) in
  let c = List.init 16 (fun _ -> Rng.float child) in
  checkb "child differs from parent" true (p <> c)

(* ---- plan validation ----------------------------------------------------- *)

let plan_validate () =
  let p =
    Faults.Plan.validate
      { Faults.Plan.none with label = "wild"; drop = 1.0; dup = -0.5 }
  in
  checkb "drop clamped below 1" true (p.Faults.Plan.drop <= 0.95);
  checkb "dup clamped to 0" true (p.Faults.Plan.dup = 0.0);
  let c =
    Faults.Plan.validate
      { Faults.Plan.none with label = "crash"; crash_at = Some (Time.ms 1) }
  in
  checkb "restart defaulted so crashes always heal" true
    (c.Faults.Plan.restart_after <> None)

(* ---- at-most-once under duplication (satellite 3) ------------------------ *)

(* A dup-heavy plan duplicates nearly every delivery at both the kernel
   transport and the LYNX ops seam.  The server's handler must still run
   exactly once per distinct request, and every reply must be coherent. *)
let dup_heavy =
  { Faults.Plan.none with label = "dup-heavy"; dup = 0.9 }

let at_most_once ~seed (backend : Harness.Backend_world.backend) =
  let e = Engine.create ~seed () in
  let w = backend.create ~plan:dup_heavy e ~nodes:4 in
  let sts = Lynx.World.stats w in
  let calls = 5 in
  let handled = ref 0 in
  let replies = ref [] in
  let server =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"server" (fun p ->
        let rec loop () =
          let inc = P.await_request p () in
          incr handled;
          (match inc.P.in_args with
          | [ V.Str tag ] -> inc.P.in_reply [ str ("echo:" ^ tag) ]
          | _ -> inc.P.in_reply [ str "?" ]);
          loop ()
        in
        loop ())
  in
  let client =
    Lynx.World.spawn w ~node:1 ~name:"client" (fun p ->
        let l = wait_first_link p in
        for i = 1 to calls do
          let tag = Printf.sprintf "c%d" i in
          match P.call p l ~op:"echo" [ str tag ] with
          | [ V.Str r ] -> replies := r :: !replies
          | _ -> ()
        done)
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         ignore (Lynx.World.link_between w client server)));
  Engine.run e;
  (* Duplicates really were injected... *)
  let injected =
    Stats.get sts "faults.dups" + Stats.get sts "faults.rx_dups"
  in
  checkb "duplicates were injected" true (injected > 0);
  (* ...and the screen absorbed them: the handler ran once per call. *)
  checki "handler ran exactly once per request" calls !handled;
  checkb "every reply coherent" true
    (List.sort compare !replies
    = List.sort compare (List.init calls (fun i -> Printf.sprintf "echo:c%d" (i + 1))));
  checkb "dedup screen fired" true
    (Stats.get sts "lynx.dup_requests_dropped"
     + Stats.get sts "lynx.dup_replies_resent"
     > 0)

(* ---- retry budget exhaustion --------------------------------------------- *)

(* A server that accepts requests but never replies: the client's
   screened call must time out, retry with backoff, and surface
   [Excn.Timeout] when the budget runs out — never hang. *)
let budget_exhaustion ~seed (backend : Harness.Backend_world.backend) =
  let e = Engine.create ~seed () in
  let w = backend.create ~plan:Faults.Plan.none e ~nodes:4 in
  let sts = Lynx.World.stats w in
  let timed_out = ref false in
  let server =
    Lynx.World.spawn w ~daemon:true ~node:0 ~name:"blackhole" (fun p ->
        let rec loop () =
          ignore (P.await_request p ());
          loop ()
        in
        loop ())
  in
  let client =
    Lynx.World.spawn w ~node:1 ~name:"client" (fun p ->
        let l = wait_first_link p in
        match P.call p l ~op:"void" [ str "hello" ] with
        | _ -> ()
        | exception Lynx.Excn.Timeout _ -> timed_out := true)
  in
  ignore
    (Engine.spawn e ~name:"driver" (fun () ->
         ignore (Lynx.World.link_between w client server)));
  Engine.run e;
  checkb "call raised Excn.Timeout instead of hanging" true !timed_out;
  let b = (Option.get Faults.Plan.none.Faults.Plan.screening).Faults.Plan.s_budget in
  checki "one attempt per budget slot" b (Stats.get sts "lynx.call_timeouts");
  checki "retries = budget - 1" (b - 1) (Stats.get sts "lynx.call_retries");
  checki "budget exhausted once" 1
    (Stats.get sts "lynx.call_budget_exhausted")

(* ---- base runs are untouched --------------------------------------------- *)

(* With no plan the fault layer must be inert: the same context gives
   the same event-stream fingerprint every time, and only a context
   that carries a plan moves it. *)
let no_plan_no_change () =
  let module S = Harness.Scenarios in
  let fingerprint ctx =
    (S.cross_request ctx Harness.Backend_world.soda).S.o_view.Engine.v_events_hash
  in
  let ctx = { S.default with seed = 11 } in
  let base = fingerprint ctx in
  checkb "same context, same hash" true (base = fingerprint ctx);
  checkb "faulted run actually diverged" true
    (base <> fingerprint { ctx with plan = Some dup_heavy })

(* ---- modeled CSMA broadcast loss is a typed Drop (satellite 2) ------------ *)

let broadcast_loss_event () =
  let o =
    Harness.Scenarios.(
      soda_hint_repair ~broadcast_loss:0.4 { default with seed = 5 })
      Harness.Backend_world.soda
  in
  let losses = Harness.Scenarios.counter o "csma.broadcast_losses" in
  checkb "losses occurred at 40%" true (losses > 0);
  let drops =
    Array.to_list o.Harness.Scenarios.o_view.Engine.v_events
    |> List.filter (fun (ev : Event.t) ->
           match ev.Event.ev_kind with
           | Event.Drop { op = "broadcast"; _ } -> true
           | _ -> false)
  in
  checki "every modeled loss is a typed Drop event" losses (List.length drops)

(* ---- the chaos sweep ------------------------------------------------------ *)

(* The chaos CLI's sweep: the spec product under fault plans, run on
   the pool, inapplicable combinations dropped. *)
let chaos_sweep ~jobs ?scenarios ~seeds plans =
  List.filter_map Fun.id
    (Run.execute_many ~jobs
       (Spec.product ?scenarios ~seeds ~plans:(List.map Option.some plans) ()))

(* Acceptance: every catalog scenario, on every backend, passes the full
   invariant suite under drop, duplicate and crash-restart plans. *)
let chaos_catalog_invariants () =
  let results =
    chaos_sweep
      ~jobs:(Parallel.Pool.default_jobs ())
      ~seeds:[ 1 ]
      [ Spec.Drop; Spec.Duplicate; Spec.Crash_restart ]
  in
  checkb "sweep ran" true (List.length results > 0);
  match List.filter A.failed results with
  | [] -> ()
  | fails ->
    Alcotest.failf "%d chaos failures, first: %s" (List.length fails)
      (Run.repro (List.hd fails).A.spec)

(* Determinism: the same sweep renders a byte-identical table on a
   second run and at every job count. *)
let chaos_deterministic () =
  let run jobs =
    A.table
      (chaos_sweep ~jobs
         ~scenarios:[ "move"; "cross-request" ]
         ~seeds:[ 2 ] [ Spec.Duplicate; Spec.Mix ])
  in
  let t1 = run 1 in
  let t2 = run 1 in
  let t3 = run 3 in
  Alcotest.(check string) "same sweep, same table" t1 t2;
  Alcotest.(check string) "identical at -j 3" t1 t3

(* Faulted runs must actually exercise the machinery they claim to. *)
let chaos_faults_fire () =
  let sum results key =
    List.fold_left
      (fun acc a ->
        acc + (try List.assoc key a.A.counters with Not_found -> 0))
      0 results
  in
  let sweep plan = chaos_sweep ~jobs:2 ~seeds:[ 1; 2 ] [ plan ] in
  let drops = sweep Spec.Drop in
  checkb "drop plan drops frames" true
    (sum drops "faults.drops" + sum drops "faults.rx_drops" > 0);
  let dups = sweep Spec.Duplicate in
  checkb "duplicate plan duplicates frames" true
    (sum dups "faults.dups" + sum dups "faults.rx_dups" > 0);
  let crash = sweep Spec.Crash_restart in
  checkb "crash plan crashes" true (sum crash "faults.crashes" > 0);
  (* Scenario counters are diffed against a baseline taken after the
     bootstrap link is up, which can postdate the crash itself — so a
     run may show the restart without its crash, but never the
     reverse. *)
  checkb "every crash heals" true
    (sum crash "faults.restarts" >= sum crash "faults.crashes"
    && sum crash "faults.restarts" > 0)

let () =
  Alcotest.run "chaos"
    [
      ( "rng",
        [
          Alcotest.test_case "split independence" `Quick rng_split_independent;
        ] );
      ("plan", [ Alcotest.test_case "validate" `Quick plan_validate ]);
      ( "screening",
        on_all "at-most-once under duplication" `Quick (at_most_once ~seed:3)
        @ on_all "budget exhaustion raises Timeout" `Quick
            (budget_exhaustion ~seed:4) );
      ( "inert",
        [
          Alcotest.test_case "no plan, no change" `Quick
            no_plan_no_change;
          Alcotest.test_case "broadcast loss is a typed Drop" `Quick
            broadcast_loss_event;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "catalog passes invariants under faults" `Slow
            chaos_catalog_invariants;
          Alcotest.test_case "deterministic at any -j" `Slow chaos_deterministic;
          Alcotest.test_case "faults actually fire" `Slow chaos_faults_fire;
        ] );
    ]
