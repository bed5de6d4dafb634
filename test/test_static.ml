(* Tier-1 suite for the static may-race / may-deadlock analyzer.

   Three layers: unit tests for the MHP happens-before approximation
   itself; the rule-level contract (every clean catalog protocol is
   alarm-free, every broken fixture fires exactly its own rule, DLK01
   is contained in S-DLK); and the soundness differential — across the
   full scenario x backend x seed x fault-plan product, at -j1 and
   -j4, every dynamic race finding must sit inside the static
   prediction set.  The containment logic is also exercised
   non-vacuously with synthetic artifacts, since the shipped scenarios
   are currently dynamically race-free. *)

module St = Analysis.Static
module M = Analysis.Mhp
module Pr = Analysis.Protocol
module C = Analysis.Catalog
module L = Analysis.Lint
module R = Analysis.Races
module Spec = Run.Spec
module S = Harness.Scenarios

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let alarm_rules p = List.map (fun a -> St.rule_name a.St.p_rule) (St.alarms p)

let show_pred p = Format.asprintf "%a" St.pp_prediction p

(* ---- the MHP approximation ------------------------------------------- *)

let two_links = [ ("c.x", "s.x"); ("c.y", "s.y") ]

let entry ?(thread = "s") ?(endpoint = "s.x") ?op () =
  Pr.Entry { thread; endpoint; op; sg = None; mode = Pr.Await }

let call ?(thread = "c") ?(endpoint = "c.x") op =
  Pr.Call { thread; endpoint; op; args = []; results = [] }

let mhp_tests =
  [
    Alcotest.test_case "program order serializes a thread" `Quick (fun () ->
        let p =
          {
            Pr.p_name = "po";
            p_links = two_links;
            p_items = [ call "a"; call ~endpoint:"c.y" "b" ];
          }
        in
        let m = M.of_protocol p in
        let c = M.calls m in
        checkb "same-thread sends ordered" false
          (M.concurrent_sends m c.(0) c.(1)));
    Alcotest.test_case "separate threads are concurrent" `Quick (fun () ->
        let p =
          {
            Pr.p_name = "par";
            p_links = two_links;
            p_items =
              [ call ~thread:"c1" "a"; call ~thread:"c2" ~endpoint:"c.y" "b" ];
          }
        in
        let m = M.of_protocol p in
        let c = M.calls m in
        checkb "cross-thread sends concurrent" true
          (M.concurrent_sends m c.(0) c.(1)));
    Alcotest.test_case "unique rendezvous orders caller and server" `Quick
      (fun () ->
        (* The server's later send can only happen after it served the
           client's call — but only while the pairing is unambiguous. *)
        let p =
          {
            Pr.p_name = "rdv";
            p_links = two_links;
            p_items =
              [ entry (); call "a"; call ~thread:"s" ~endpoint:"s.y" "b" ];
          }
        in
        let m = M.of_protocol p in
        let c = M.calls m in
        checkb "send < serve < later send" false
          (M.concurrent_sends m c.(0) c.(1)));
    Alcotest.test_case "ambiguous rendezvous keeps sends concurrent" `Quick
      (fun () ->
        (* A second client call contending for the same await: which one
           the server serves first is a scheduler accident, so neither
           send is ordered against the server's later send. *)
        let p =
          {
            Pr.p_name = "amb";
            p_links = two_links;
            p_items =
              [
                entry ();
                call ~thread:"c1" "a";
                call ~thread:"c2" "a";
                call ~thread:"s" ~endpoint:"s.y" "b";
              ];
          }
        in
        let m = M.of_protocol p in
        let c = M.calls m in
        checkb "no rendezvous edge under ambiguity" true
          (M.concurrent_sends m c.(0) c.(2)));
    Alcotest.test_case "wait-for quantifiers: Must within May" `Quick
      (fun () ->
        let m = M.of_protocol (List.assoc "broken-s-dlk" C.broken_static) in
        let must = M.wait_edges m M.Must in
        let may = M.wait_edges m M.May in
        Array.iteri
          (fun i es ->
            List.iter
              (fun j ->
                checkb
                  (Printf.sprintf "must edge %d->%d also in may" i j)
                  true
                  (List.mem j may.(i)))
              es)
          must;
        checki "must graph has no cycle" 0 (List.length (M.cycles must));
        checki "may graph has the cycle" 1 (List.length (M.cycles may)));
  ]

(* ---- rule-level contract --------------------------------------------- *)

let rule_tests =
  [
    Alcotest.test_case "every clean catalog protocol is alarm-free" `Quick
      (fun () ->
        List.iter
          (fun (name, p) ->
            Alcotest.(check (list string))
              (name ^ " alarms") []
              (List.map show_pred (St.alarms (St.predict p))))
          C.all);
    Alcotest.test_case "predictions are deterministic" `Quick (fun () ->
        List.iter
          (fun (name, p) ->
            Alcotest.(check (list string))
              (name ^ " stable")
              (List.map show_pred (St.predict p))
              (List.map show_pred (St.predict p)))
          (C.all @ C.broken_static));
    Alcotest.test_case "each broken fixture fires exactly its rule" `Quick
      (fun () ->
        List.iter
          (fun (name, expected) ->
            let p = List.assoc name C.broken_static in
            checks (name ^ " protocol name") name p.Pr.p_name;
            Alcotest.(check (list string))
              (name ^ " alarm rules") [ expected ]
              (alarm_rules (St.predict p)))
          [
            ("broken-s-msg", "S-MSG");
            ("broken-s-sig", "S-SIG");
            ("broken-s-move", "S-MOVE");
            ("broken-s-dlk", "S-DLK");
          ]);
    Alcotest.test_case "static fixtures are lint-clean" `Quick (fun () ->
        (* The static and lint defect families stay separable: none of
           the new fixtures trips a lint rule. *)
        List.iter
          (fun (name, p) ->
            checki (name ^ " lint findings") 0 (List.length (L.check p)))
          C.broken_static);
    Alcotest.test_case "S-DLK widens DLK01: may-cycle invisible to lint"
      `Quick (fun () ->
        let p = List.assoc "broken-s-dlk" C.broken_static in
        checki "DLK01 silent" 0 (List.length (L.check p));
        match St.alarms (St.predict p) with
        | [ a ] ->
          checkb "rule is S-DLK" true (a.St.p_rule = St.S_dlk);
          checkb "detail says fault-widened" true
            (let re = Str.regexp_string "crashed" in
             try
               ignore (Str.search_forward re a.St.p_detail 0);
               true
             with Not_found -> false)
        | _ -> Alcotest.fail "expected exactly one S-DLK alarm");
    Alcotest.test_case "DLK01 cycles are contained in S-DLK" `Quick (fun () ->
        (* On the lint fixture the must-cycle shows up on both sides
           with the same subject, and the static detail records that it
           is also a must-cycle. *)
        let dlk01 =
          List.filter (fun f -> f.L.f_code = "DLK01") (L.check C.broken)
        in
        let sdlk =
          List.filter
            (fun a -> a.St.p_rule = St.S_dlk)
            (St.predict C.broken)
        in
        checki "one cycle each" (List.length dlk01) (List.length sdlk);
        List.iter2
          (fun f a ->
            checks "same cycle subject" f.L.f_subject a.St.p_subject;
            checkb "flagged as must-cycle" true
              (let re = Str.regexp_string "must-cycle" in
               try
                 ignore (Str.search_forward re a.St.p_detail 0);
                 true
               with Not_found -> false))
          dlk01 sdlk);
    Alcotest.test_case "dynamic rules map onto static rules" `Quick (fun () ->
        checkb "R-MSG" true (St.rule_of_race "R-MSG" = Some St.S_msg);
        checkb "R-SIG" true (St.rule_of_race "R-SIG" = Some St.S_sig);
        checkb "R-MOVE" true (St.rule_of_race "R-MOVE" = Some St.S_move);
        checkb "unknown" true (St.rule_of_race "R-XYZ" = None));
    Alcotest.test_case "clean protocols still predict concurrency" `Quick
      (fun () ->
        (* The non-alarm predictions are the coverage fodder: racing
           moves and receive contexts the paper treats as normal
           operation must stay visible to the soundness check. *)
        List.iter
          (fun (name, rule) ->
            let preds = St.predict (Option.get (C.find name)) in
            checkb
              (Printf.sprintf "%s has a %s prediction" name
                 (St.rule_name rule))
              true
              (List.exists (fun p -> p.St.p_rule = rule) preds))
          [
            ("move", St.S_move);
            ("hint-repair", St.S_move);
            ("cross-request", St.S_sig);
            ("lost-enclosure", St.S_sig);
            ("bounced-enclosure", St.S_sig);
          ]);
  ]

(* ---- soundness: containment logic, exercised non-vacuously ------------ *)

let synthetic_artifact ~scenario ~rule =
  {
    Run.Artifact.spec = Spec.v ~scenario ~backend:"charlotte" 1;
    ok = true;
    violations = [];
    races = [ { R.r_rule = rule; r_obj = "synth.obj"; r_detail = "synthetic" } ];
    liveness = Run.Liveness.Vacuous;
    detail = "synthetic";
    duration = Sim.Time.zero;
    counters = [];
    events_hash = 0L;
    latency = None;
  }

let soundness_logic_tests =
  [
    Alcotest.test_case "a predicted dynamic race is not a gap" `Quick
      (fun () ->
        (* "move" has an S-MOVE prediction, so a dynamic R-MOVE there is
           inside the static set. *)
        let a = synthetic_artifact ~scenario:"move" ~rule:"R-MOVE" in
        checki "no gaps" 0 (List.length (Run.Soundness.unpredicted a)));
    Alcotest.test_case "an unpredicted dynamic race is a gap" `Quick
      (fun () ->
        (* "open-close" has an empty prediction set: any dynamic finding
           there must surface as a soundness gap. *)
        let a = synthetic_artifact ~scenario:"open-close" ~rule:"R-MSG" in
        match Run.Soundness.unpredicted a with
        | [ g ] ->
          checks "names the rule" "R-MSG" g.Run.Soundness.g_race.R.r_rule;
          checkb "report flags it" true
            (let report = Run.Soundness.report [ g ] in
             let re = Str.regexp_string "SOUNDNESS GAP" in
             try
               ignore (Str.search_forward re report 0);
               true
             with Not_found -> false)
        | gs -> Alcotest.failf "expected one gap, got %d" (List.length gs));
    Alcotest.test_case "coverage marks observed rules" `Quick (fun () ->
        let a = synthetic_artifact ~scenario:"move" ~rule:"R-MOVE" in
        let lines = Run.Soundness.coverage [ a ] in
        checkb "move's S-MOVE prediction observed" true
          (List.exists
             (fun l ->
               l.Run.Soundness.c_scenario = "move"
               && l.Run.Soundness.c_prediction.St.p_rule = St.S_move
               && l.Run.Soundness.c_observed)
             lines));
  ]

(* ---- the soundness differential over the full sweep product ----------- *)

let product_specs =
  Spec.product
    ~backends:[ "charlotte"; "soda"; "chrysalis" ]
    ~seeds:[ 1; 2 ]
    ~plans:(None :: List.map Option.some (Spec.Screen :: Spec.all_plans))
    ()

let gap_str g =
  Printf.sprintf "%s: %s %s — %s"
    (Spec.to_string g.Run.Soundness.g_spec)
    g.Run.Soundness.g_race.R.r_rule g.Run.Soundness.g_race.R.r_obj
    g.Run.Soundness.g_reason

let test_soundness_product () =
  let artifacts jobs =
    Run.execute_many ~jobs product_specs |> List.filter_map Fun.id
  in
  let a1 = artifacts 1 in
  (* 13 cross-backend scenarios x 3 backends + 2 SODA-only, x 2 seeds x
     (clean + screen + 6 fault plans). *)
  checki "product size" ((13 * 3 + 2) * 2 * 8) (List.length a1);
  Alcotest.(check (list string))
    "no soundness gaps at -j1" []
    (List.map gap_str (Run.Soundness.check a1));
  let a4 = artifacts 4 in
  Alcotest.(check (list string))
    "no soundness gaps at -j4" []
    (List.map gap_str (Run.Soundness.check a4));
  checks "coverage report identical at -j1/-j4"
    (Run.Soundness.coverage_report a1)
    (Run.Soundness.coverage_report a4);
  (* The coverage universe is exactly the prediction sets of the
     scenarios the sweep touched. *)
  let expected_lines =
    List.fold_left
      (fun n sc ->
        n + List.length (St.predict (Option.get (C.find sc))))
      0 S.names
  in
  checki "coverage lines" expected_lines
    (List.length (Run.Soundness.coverage a1));
  checkb "all-clear report" true
    (Run.Soundness.report (Run.Soundness.check a1)
    = "soundness: every dynamic race finding was predicted\n")

let test_driver_chaos_soundness () =
  (* The sweep wiring the CLI uses: the explore and chaos spec products,
     and the soundness audit over their artifacts is gap-free. *)
  let sweep ?plans () =
    List.filter_map Fun.id
      (Run.execute_many (Spec.product ~seeds:[ 1 ] ?plans ()))
  in
  let explore = sweep () in
  checkb "explore sweep non-empty" true (explore <> []);
  Alcotest.(check (list string))
    "explore sweep gap-free" []
    (List.map gap_str (Run.Soundness.check explore));
  let chaos = sweep ~plans:[ Some Spec.Drop; Some Spec.Mix ] () in
  checkb "chaos sweep non-empty" true (chaos <> []);
  Alcotest.(check (list string))
    "chaos sweep gap-free" []
    (List.map gap_str (Run.Soundness.check chaos))

let () =
  Alcotest.run "static"
    [
      ("mhp", mhp_tests);
      ("rules", rule_tests);
      ("soundness-logic", soundness_logic_tests);
      ( "soundness-sweep",
        [
          Alcotest.test_case
            "dynamic races contained in static predictions (full product, \
             -j1/-j4)"
            `Slow test_soundness_product;
          Alcotest.test_case "explore and chaos sweeps are gap-free" `Quick
            test_driver_chaos_soundness;
        ] );
    ]
