(* Tier-1 exploration suite.

   Small-N version of what `lynx_sim explore` does at scale: every
   scenario x every backend x seeds 1-5 under both the deterministic
   FIFO schedule and the seeded random schedule, with every invariant
   checked on every run.  Plus: a deliberately broken outcome pushed
   through the same assessment path to prove the checker actually
   fires, and cross-backend differential checks that the three kernels
   agree on language-level behaviour. *)

open Sim
module A = Run.Artifact
module Spec = Run.Spec
module I = Run.Invariant
module S = Harness.Scenarios
module BW = Harness.Backend_world

let seeds = [ 1; 2; 3; 4; 5 ]
let fifo_random = [ Spec.Fifo; Spec.Random ]

(* The CLI's sweep: the spec product, run on the pool, inapplicable
   combinations dropped. *)
let sweep ?(jobs = 1) ~seeds ~policies () =
  List.filter_map Fun.id
    (Run.execute_many ~jobs (Spec.product ~seeds ~policies ()))

let name (a : A.t) = Spec.to_string a.A.spec

(* ---- the sweep itself ---------------------------------------------- *)

let test_sweep_green () =
  let results = sweep ~seeds ~policies:fifo_random () in
  (* 13 cross-backend scenarios x 3 backends + 2 SODA-only, x 5 seeds x 2
     policies. *)
  Alcotest.(check int) "run count" ((13 * 3 + 2) * 5 * 2) (List.length results);
  List.iter
    (fun sc ->
      Alcotest.(check bool)
        (Printf.sprintf "scenario %s covered" sc)
        true
        (List.exists (fun a -> a.A.spec.Spec.scenario = sc) results))
    S.names;
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "backend %s covered" b)
        true
        (List.exists (fun a -> a.A.spec.Spec.backend = b) results))
    BW.names;
  match List.filter A.failed results with
  | [] -> ()
  | fails ->
    List.iter (fun a -> print_string (Run.repro a.A.spec)) fails;
    Alcotest.failf "%d of %d exploration runs failed (first: %s)"
      (List.length fails) (List.length results)
      (name (List.hd fails))

let test_sweep_jitter_green () =
  let results = sweep ~seeds:[ 1; 2 ] ~policies:[ Spec.Jitter ] () in
  Alcotest.(check int) "run count" ((13 * 3 + 2) * 2) (List.length results);
  Alcotest.(check int) "no failures under jitter" 0
    (List.length (List.filter A.failed results))

(* ---- the domain pool must be invisible in the results ---------------- *)

let render_races rs =
  String.concat "; "
    (List.map (fun f -> Format.asprintf "%a" Analysis.Races.pp_finding f) rs)

let test_parallel_matches_sequential () =
  let seq = sweep ~jobs:1 ~seeds:[ 1; 2 ] ~policies:fifo_random () in
  let par = sweep ~jobs:4 ~seeds:[ 1; 2 ] ~policies:fifo_random () in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      let name = name a in
      Alcotest.(check string) "case order" name (Spec.to_string b.A.spec);
      Alcotest.(check bool) (name ^ " verdict") a.A.ok b.A.ok;
      Alcotest.(check string) (name ^ " detail") a.A.detail b.A.detail;
      Alcotest.(check int) (name ^ " duration")
        (Time.to_ns a.A.duration)
        (Time.to_ns b.A.duration);
      Alcotest.(check string) (name ^ " races") (render_races a.A.races)
        (render_races b.A.races);
      Alcotest.(check bool) (name ^ " events hash") true
        (Int64.equal a.A.events_hash b.A.events_hash))
    seq par;
  (* ... and therefore anything rendered from them is byte-identical. *)
  Alcotest.(check string) "summary identical" (A.summary seq) (A.summary par)

let test_jobs_determinism () =
  (* The full per-case verdict/race/fingerprint table at -j1, -j4 and
     -j8: running with more workers than cases must change nothing. *)
  let table jobs =
    sweep ~jobs ~seeds:[ 1; 2 ] ~policies:fifo_random ()
    |> List.map (fun a ->
           Printf.sprintf "%s ok=%b races=[%s] hash=%016Lx" (name a) a.A.ok
             (render_races a.A.races) a.A.events_hash)
  in
  let reference = table 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "-j%d table" jobs)
        reference (table jobs))
    [ 4; 8 ]

let test_case_determinism () =
  let spec = Spec.v ~policy:Spec.Random ~scenario:"move" ~backend:"soda" 3 in
  match (Run.execute spec, Run.execute spec) with
  | Some a, Some b ->
    Alcotest.(check bool) "same verdict" a.A.ok b.A.ok;
    Alcotest.(check int) "same duration"
      (Time.to_ns a.A.duration)
      (Time.to_ns b.A.duration);
    Alcotest.(check string) "same detail" a.A.detail b.A.detail
  | _ -> Alcotest.fail "move/soda should be runnable"

let test_soda_only_skipped () =
  Alcotest.(check bool) "hint-repair skipped off SODA" true
    (Run.execute (Spec.v ~scenario:"hint-repair" ~backend:"charlotte" 1)
    = None)

(* ---- broken fixture: the checker must actually catch violations ----- *)

(* A hand-built outcome in which every invariant is violated at once:
   messages duplicated, a link end duplicated, the trace running
   backwards, a fiber still blocked and another left runnable. *)
let broken_outcome =
  let v =
    {
      Engine.v_now = Time.ms 5;
      v_pending = 0;
      v_blocked = [ "server" ];
      v_fibers =
        [
          { Engine.fi_id = 0; fi_name = "server"; fi_daemon = false; fi_state = "blocked:receive" };
          { Engine.fi_id = 1; fi_name = "client"; fi_daemon = false; fi_state = "runnable" };
        ];
      v_finished = 0;
      v_crashes = [];
      v_events =
        Array.map
          (fun (t, msg) ->
            { Event.ev_time = t; ev_fiber = 1; ev_clock = Vclock.empty;
              ev_kind = Event.Note msg })
          [| (Time.ms 3, "late"); (Time.ms 1, "early") |];
      v_events_hash = 0L;
      v_events_dropped = 0;
    }
  in
  {
    S.o_ok = true;
    (* the scenario itself claims success: only the invariants notice *)
    o_duration = Time.ms 5;
    o_counters =
      [
        ("lynx.messages_sent", 2);
        ("lynx.messages_delivered", 3);
        ("lynx.ends_moved_out", 1);
        ("lynx.ends_adopted", 2);
      ];
    o_detail = "fixture";
    o_seed = 3;
    o_policy = "fifo";
    o_latency = None;
    o_view = v;
  }

let test_broken_fixture_caught () =
  let spec = Spec.v ~scenario:"fixture" ~backend:"soda" 3 in
  let a = Run.judge spec broken_outcome in
  let found = List.map (fun v -> v.I.v_invariant) a.A.violations in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "invariant %s fired" name)
        true
        (List.mem name found))
    [ "no-deadlock"; "no-leaked-fibers"; "time-monotone"; "link-conservation"; "at-most-once" ];
  Alcotest.(check (list string))
    "monotonicity cites the regressing event"
    [ {|time-monotone: trace went backwards at 1.000ms (event "note early", previous 3.000ms)|} ]
    (List.filter_map
       (fun v ->
         if v.I.v_invariant = "time-monotone" then Some (I.to_string v)
         else None)
       a.A.violations);
  (* the failure is reported together with the seed that reproduces it *)
  Alcotest.(check int) "failing seed reported" 3 a.A.spec.Spec.seed;
  Alcotest.(check bool) "case name carries the seed" true
    (let re = Str.regexp_string "/3/" in
     try
       ignore (Str.search_forward re (name a) 0);
       true
     with Not_found -> false);
  match List.filter A.failed [ a ] with
  | [ f ] ->
    Alcotest.(check string) "failures keeps it" (Spec.to_string spec) (name f)
  | _ -> Alcotest.fail "broken fixture must be reported as a failure"

let test_clean_outcome_passes () =
  (* A genuine run through the same assessment path yields no violations. *)
  match
    Run.execute (Spec.v ~scenario:"cross-request" ~backend:"chrysalis" 3)
  with
  | None -> Alcotest.fail "cross-request runs on chrysalis"
  | Some a ->
    Alcotest.(check bool) "ok" true a.A.ok;
    Alcotest.(check (list string)) "no violations" []
      (List.map I.to_string a.A.violations)

let test_repro_dump () =
  let spec =
    Spec.v ~policy:Spec.Random ~scenario:"bounced-enclosure"
      ~backend:"charlotte" 2
  in
  let dump = Run.repro spec in
  let contains needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) dump 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "names the case" true (contains (Spec.to_string spec));
  Alcotest.(check bool) "has a trace tail" true (contains "trace tail");
  Alcotest.(check bool) "states the verdict" true (contains "ok=true")

(* ---- cross-backend differential checks ------------------------------ *)

let cross_scenarios : (string * (S.ctx -> BW.backend -> S.outcome)) list =
  [
    ("move", S.simultaneous_move);
    ("enclosures", S.enclosure_protocol ~n_encl:3);
    ("cross-request", S.cross_request);
    ("open-close", S.open_close_race);
    ("lost-enclosure", S.lost_enclosure);
    ("bounced-enclosure", S.bounced_enclosure);
  ]

let lynx_counters o =
  List.filter
    (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "lynx.")
    o.S.o_counters

(* Counters every backend must agree on, for every scenario: what the
   language level asked for.  Delivery-side counters may legitimately
   differ where the scenario is *about* backend loss semantics. *)
let core_counters =
  [
    "lynx.calls";
    "lynx.messages_sent";
    "lynx.links_made";
    "lynx.processes_finished";
    "lynx.threads";
  ]

(* Scenarios whose entire lynx.* counter delta must be identical across
   backends (no loss, no bounce: the kernels are indistinguishable at
   the language level). *)
let fully_deterministic = [ "move"; "enclosures"; "cross-request"; "open-close" ]

let test_differential_verdicts () =
  List.iter
    (fun (name, run) ->
      List.iter
        (fun seed ->
          let outs =
            List.map
              (fun (backend : BW.backend) ->
                (backend.name, run { S.default with seed } backend))
              BW.all
          in
          let _, first = List.hd outs in
          List.iter
            (fun (b, o) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d: %s verdict matches" name seed b)
                first.S.o_ok o.S.o_ok)
            outs)
        [ 1; 4 ])
    cross_scenarios

let test_differential_core_counters () =
  List.iter
    (fun (name, run) ->
      let outs =
        List.map
          (fun (backend : BW.backend) ->
            (backend.name, run { S.default with seed = 2 } backend))
          BW.all
      in
      List.iter
        (fun key ->
          let vals = List.map (fun (b, o) -> (b, S.counter o key)) outs in
          let _, first = List.hd vals in
          List.iter
            (fun (b, v) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: %s on %s" name key b)
                first v)
            vals)
        core_counters)
    cross_scenarios

let test_differential_full_counters () =
  List.iter
    (fun (name, run) ->
      if List.mem name fully_deterministic then
        let outs =
          List.map
            (fun (backend : BW.backend) ->
              (backend.name, run { S.default with seed = 5 } backend))
            BW.all
        in
        let _, first = List.hd outs in
        let expect = lynx_counters first in
        List.iter
          (fun (b, o) ->
            Alcotest.(check (list (pair string int)))
              (Printf.sprintf "%s: full lynx counter delta on %s" name b)
              expect (lynx_counters o))
          outs)
    cross_scenarios

(* ---- policy metadata ------------------------------------------------ *)

let test_policy_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Spec.policy_name p ^ " roundtrips")
        true
        (Spec.policy_of_string (Spec.policy_name p) = Some p))
    Spec.all_policies;
  Alcotest.(check bool) "unknown rejected" true
    (Spec.policy_of_string "bogus" = None)

let test_outcome_records_policy () =
  let o =
    S.cross_request
      { S.default with seed = 9; policy = Spec.engine_policy Spec.Random ~seed:9 }
      BW.charlotte
  in
  Alcotest.(check string) "policy recorded" "random:9" o.S.o_policy;
  Alcotest.(check int) "seed recorded" 9 o.S.o_seed

let () =
  Alcotest.run "explore"
    [
      ( "sweep",
        [
          Alcotest.test_case "all scenarios x backends x seeds stay green" `Quick
            test_sweep_green;
          Alcotest.test_case "jitter policy stays green" `Quick
            test_sweep_jitter_green;
          Alcotest.test_case "parallel sweep equals sequential sweep" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "result tables identical at -j1/-j4/-j8" `Quick
            test_jobs_determinism;
          Alcotest.test_case "a case replays identically" `Quick
            test_case_determinism;
          Alcotest.test_case "SODA-only scenarios skip other backends" `Quick
            test_soda_only_skipped;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "broken fixture trips every invariant" `Quick
            test_broken_fixture_caught;
          Alcotest.test_case "clean run passes the same path" `Quick
            test_clean_outcome_passes;
          Alcotest.test_case "repro dump is self-contained" `Quick
            test_repro_dump;
        ] );
      ( "differential",
        [
          Alcotest.test_case "verdicts agree across backends" `Quick
            test_differential_verdicts;
          Alcotest.test_case "core counters agree across backends" `Quick
            test_differential_core_counters;
          Alcotest.test_case "loss-free scenarios agree on all counters" `Quick
            test_differential_full_counters;
        ] );
      ( "policy",
        [
          Alcotest.test_case "policy names roundtrip" `Quick
            test_policy_roundtrip;
          Alcotest.test_case "outcome records seed and policy" `Quick
            test_outcome_records_policy;
        ] );
    ]
