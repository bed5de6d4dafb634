(* Tests for lib/analysis: the static protocol linter, the
   happens-before race detector, and the structured event log they
   build on. *)

open Sim
module L = Analysis.Lint
module Pr = Analysis.Protocol
module C = Analysis.Catalog
module R = Analysis.Races
module S = Harness.Scenarios

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let codes fs = List.sort_uniq compare (List.map (fun f -> f.L.f_code) fs)
let rules fs = List.map (fun f -> f.R.r_rule) fs

(* The detector takes the engine's array log; the synthetic streams
   below are written as lists for readability. *)
let analyze evs = R.analyze (Array.of_list evs)

let proto ?(links = [ ("c.x", "s.x") ]) items =
  { Pr.p_name = "mini"; p_links = links; p_items = items }

let handler ?sg op =
  Pr.Entry
    { thread = "s"; endpoint = "s.x"; op = Some op; sg; mode = Pr.Handler }

let call ?(results = []) op args =
  Pr.Call { thread = "c"; endpoint = "c.x"; op; args; results }

(* ---- Linter ----------------------------------------------------------- *)

let lint_tests =
  let open Lynx.Ty in
  [
    Alcotest.test_case "every shipped protocol is clean" `Quick (fun () ->
        List.iter
          (fun (name, p) ->
            checki (name ^ " findings") 0 (List.length (L.check p)))
          C.all);
    Alcotest.test_case "catalog covers the explore registry" `Quick (fun () ->
        List.iter
          (fun name ->
            match C.find name with
            | None -> Alcotest.failf "scenario %s has no catalog protocol" name
            | Some p ->
              checks (name ^ " protocol name matches") name p.Pr.p_name;
              Pr.validate p)
          S.names);
    Alcotest.test_case "broken fixture reports all three defects" `Quick
      (fun () ->
        let fs = L.check C.broken in
        Alcotest.(check (list string))
          "distinct codes"
          [ "DLK01"; "LNK01"; "SIG02" ]
          (codes fs);
        (* Both ends of the untouched link leak. *)
        checki "finding count" 4 (List.length fs));
    Alcotest.test_case "SIG01: argument arity" `Quick (fun () ->
        let p =
          proto
            [ handler "op" ~sg:(signature [ Int; Int ]); call "op" [ Int ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG01" ] (codes (L.check p)));
    Alcotest.test_case "SIG02: argument type" `Quick (fun () ->
        let p =
          proto [ handler "op" ~sg:(signature [ Int ]); call "op" [ Str ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG02" ] (codes (L.check p)));
    Alcotest.test_case "SIG03: result type" `Quick (fun () ->
        let p =
          proto
            [
              handler "op" ~sg:(signature [] ~results:[ Str ]);
              call "op" [] ~results:[ Int ];
            ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG03" ] (codes (L.check p)));
    Alcotest.test_case "SIG04: link where non-link expected" `Quick (fun () ->
        let p =
          proto [ handler "op" ~sg:(signature [ Str ]); call "op" [ Link ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG04" ] (codes (L.check p)));
    Alcotest.test_case "SIG04: non-link where enclosure expected" `Quick
      (fun () ->
        let p =
          proto [ handler "op" ~sg:(signature [ Link ]); call "op" [ Int ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG04" ] (codes (L.check p)));
    Alcotest.test_case "matching signature is clean" `Quick (fun () ->
        let p =
          proto
            [
              handler "op" ~sg:(signature [ Int; Link ] ~results:[ Str ]);
              call "op" [ Int; Link ] ~results:[ Str ];
            ]
        in
        checki "findings" 0 (List.length (L.check p)));
    Alcotest.test_case "ENT01: unreachable handler entry" `Quick (fun () ->
        let p = proto [ handler "never"; call "other" [] ] in
        Alcotest.(check (list string)) "codes" [ "ENT01" ] (codes (L.check p)));
    Alcotest.test_case "ENT01 exempts await entries" `Quick (fun () ->
        let p =
          proto
            [
              Pr.Entry
                {
                  thread = "s";
                  endpoint = "s.x";
                  op = None;
                  sg = None;
                  mode = Pr.Await;
                };
            ]
        in
        (* The call-less await is not unreachable; only LNK01 on the
           untouched client end remains out of the question because the
           await touches s.x and nothing touches c.x. *)
        Alcotest.(check (list string)) "codes" [ "LNK01" ] (codes (L.check p)));
    Alcotest.test_case "LNK01 suppressed by Retain" `Quick (fun () ->
        let p =
          proto
            ~links:[ ("c.x", "s.x"); ("k.a", "k.b") ]
            [
              handler "op";
              call "op" [];
              Pr.Retain { endpoint = "k.a"; why = "kept" };
              Pr.Retain { endpoint = "k.b"; why = "kept" };
            ]
        in
        checki "findings" 0 (List.length (L.check p)));
    Alcotest.test_case "DLK01: two-thread call-before-serve cycle" `Quick
      (fun () ->
        let p =
          proto
            ~links:[ ("t1.w1", "t2.w1"); ("t1.w2", "t2.w2") ]
            [
              Pr.Call
                { thread = "t1"; endpoint = "t1.w1"; op = "a"; args = [];
                  results = [] };
              Pr.Entry
                { thread = "t1"; endpoint = "t1.w2"; op = Some "b"; sg = None;
                  mode = Pr.Handler };
              Pr.Call
                { thread = "t2"; endpoint = "t2.w2"; op = "b"; args = [];
                  results = [] };
              Pr.Entry
                { thread = "t2"; endpoint = "t2.w1"; op = Some "a"; sg = None;
                  mode = Pr.Handler };
            ]
        in
        Alcotest.(check (list string)) "codes" [ "DLK01" ] (codes (L.check p)));
    Alcotest.test_case "DLK01: serve-before-call is clean" `Quick (fun () ->
        let p =
          proto
            ~links:[ ("t1.w1", "t2.w1"); ("t1.w2", "t2.w2") ]
            [
              Pr.Call
                { thread = "t1"; endpoint = "t1.w1"; op = "a"; args = [];
                  results = [] };
              Pr.Entry
                { thread = "t1"; endpoint = "t1.w2"; op = Some "b"; sg = None;
                  mode = Pr.Handler };
              Pr.Entry
                { thread = "t2"; endpoint = "t2.w1"; op = Some "a"; sg = None;
                  mode = Pr.Handler };
              Pr.Call
                { thread = "t2"; endpoint = "t2.w2"; op = "b"; args = [];
                  results = [] };
            ]
        in
        checki "findings" 0 (List.length (L.check p)));
  ]

(* ---- Protocol structural validation ----------------------------------- *)

let protocol_tests =
  [
    Alcotest.test_case "validate: endpoint on two links rejected" `Quick
      (fun () ->
        let p = proto ~links:[ ("c.x", "s.x"); ("c.x", "s.y") ] [] in
        Alcotest.check_raises "duplicate declaration"
          (Invalid_argument "Protocol mini: endpoint c.x declared twice")
          (fun () -> Pr.validate p));
    Alcotest.test_case "validate: undeclared endpoint in an item rejected"
      `Quick (fun () ->
        let p =
          proto
            [
              Pr.Call
                { thread = "c"; endpoint = "q.z"; op = "op"; args = [];
                  results = [] };
            ]
        in
        Alcotest.check_raises "undeclared use"
          (Invalid_argument "Protocol mini: item uses undeclared endpoint q.z")
          (fun () -> Pr.validate p));
    Alcotest.test_case "validate: undeclared move via rejected" `Quick
      (fun () ->
        let p = proto [ Pr.Move { endpoint = "c.x"; via = "ghost" } ] in
        Alcotest.check_raises "undeclared via"
          (Invalid_argument
             "Protocol mini: item uses undeclared endpoint ghost")
          (fun () -> Pr.validate p));
    Alcotest.test_case "peer: endpoint in zero links rejected" `Quick
      (fun () ->
        Alcotest.check_raises "unknown endpoint"
          (Invalid_argument "Protocol.peer: unknown endpoint nope") (fun () ->
            ignore (Pr.peer (proto []) "nope")));
    Alcotest.test_case "peer: endpoint in two links rejected" `Quick
      (fun () ->
        let p = proto ~links:[ ("c.x", "s.x"); ("c.x", "s.y") ] [] in
        Alcotest.check_raises "ambiguous endpoint"
          (Invalid_argument "Protocol.peer: endpoint c.x on several links")
          (fun () -> ignore (Pr.peer p "c.x")));
    Alcotest.test_case "validate: clean protocol accepted" `Quick (fun () ->
        Pr.validate (proto [ handler "op"; call "op" [] ]));
  ]

(* ---- Race detector: synthetic event streams --------------------------- *)

(* Hand-built streams with hand-built clocks: fiber [i]'s initial clock
   is {i -> 1}, so two events from different fibers that never merged
   are incomparable by construction. *)
let clock_of fid = Vclock.tick Vclock.empty fid

let ev ?(fid = 1) ?(clock = None) kind =
  {
    Event.ev_time = Time.zero;
    ev_fiber = fid;
    ev_clock = (match clock with Some c -> c | None -> clock_of fid);
    ev_kind = kind;
  }

let race_synth_tests =
  [
    Alcotest.test_case "R-MSG: concurrent sends into one queue" `Quick
      (fun () ->
        let events =
          [
            ev ~fid:1 (Event.Send { obj = "q"; op = "a"; unordered = false });
            ev ~fid:2 (Event.Send { obj = "q"; op = "b"; unordered = false });
          ]
        in
        (* Sanity: the clocks really are incomparable. *)
        checkb "concurrent" true (Vclock.concurrent (clock_of 1) (clock_of 2));
        Alcotest.(check (list string))
          "rules" [ "R-MSG" ]
          (rules (analyze events)));
    Alcotest.test_case "R-MSG: causally ordered sends are clean" `Quick
      (fun () ->
        let c1 = clock_of 1 in
        let c2 = Vclock.tick c1 2 in
        let events =
          [
            ev ~fid:1 ~clock:(Some c1) (Event.Send { obj = "q"; op = "a"; unordered = false });
            ev ~fid:2 ~clock:(Some c2) (Event.Send { obj = "q"; op = "b"; unordered = false });
          ]
        in
        checki "findings" 0 (List.length (analyze events)));
    Alcotest.test_case "R-SIG: queued signal vs unserved concurrent wait"
      `Quick (fun () ->
        let events =
          [
            ev ~fid:3 (Event.Wait { obj = "chry.dq1" });
            ev ~fid:1 (Event.Signal { obj = "chry.dq1"; woke = false });
          ]
        in
        Alcotest.(check (list string))
          "rules" [ "R-SIG" ]
          (rules (analyze events)));
    Alcotest.test_case "R-SIG: served wait is not a lost signal" `Quick
      (fun () ->
        (* The wait was handed a datum by a woke=true enqueue; the later
           queued signal is shutdown residue, concurrent or not. *)
        let events =
          [
            ev ~fid:3 (Event.Wait { obj = "chry.dq1" });
            ev ~fid:1 (Event.Signal { obj = "chry.dq1"; woke = true });
            ev ~fid:1
              ~clock:(Some (Vclock.tick (clock_of 1) 1))
              (Event.Signal { obj = "chry.dq1"; woke = false });
          ]
        in
        checki "findings" 0 (List.length (analyze events)));
    Alcotest.test_case "R-SIG: latched interrupt skipped by drain" `Quick
      (fun () ->
        let c1 = clock_of 1 in
        let events =
          [
            ev ~fid:1 ~clock:(Some c1)
              (Event.Signal { obj = "soda.int7"; woke = false });
            ev ~fid:2 (Event.Signal { obj = "soda.int7"; woke = false });
            ev ~fid:1
              ~clock:(Some (Vclock.tick c1 1))
              (Event.Signal_seen { obj = "soda.int7" });
          ]
        in
        (* FIFO: the one seen consumes fiber 1's latch; fiber 2's is
           unmatched and concurrent with the drain. *)
        Alcotest.(check (list string))
          "rules" [ "R-SIG" ]
          (rules (analyze events)));
    Alcotest.test_case "R-MOVE: transfer races an unreceived message" `Quick
      (fun () ->
        let events =
          [
            ev ~fid:1 (Event.Send { obj = "cha.L9.s0.req"; op = "ping"; unordered = false });
            ev ~fid:2 (Event.Link_move { obj = "cha.L9.s0" });
          ]
        in
        Alcotest.(check (list string))
          "rules" [ "R-MOVE" ]
          (rules (analyze events)));
    Alcotest.test_case "R-MOVE: a received message is no race" `Quick
      (fun () ->
        let events =
          [
            ev ~fid:1 (Event.Send { obj = "cha.L9.s0.req"; op = "ping"; unordered = false });
            ev ~fid:2 (Event.Link_move { obj = "cha.L9.s0" });
            ev ~fid:3 (Event.Receive { obj = "cha.L9.s0.req"; op = "ping" });
          ]
        in
        checki "findings" 0 (List.length (analyze events)));
  ]

(* ---- Race detector: shipped scenarios stay clean ----------------------- *)

let races_clean_tests =
  List.map
    (fun (backend : Harness.Backend_world.backend) ->
      Alcotest.test_case
        (Printf.sprintf "shipped scenarios race-clean [%s]" backend.name)
        `Quick
        (fun () ->
          List.iter
            (fun sc ->
              List.iter
                (fun seed ->
                  match
                    Run.execute
                      (Run.Spec.v ~scenario:sc ~backend:backend.name seed)
                  with
                  | None -> ()
                  | Some a ->
                    checki
                      (Printf.sprintf "%s/%s/%d races" sc backend.name seed)
                      0
                      (List.length a.Run.Artifact.races))
                [ 1; 2; 3; 4; 5 ])
            S.names))
    Harness.Backend_world.all

(* ---- Structured trace: spawn records and hashing ---------------------- *)

let event_log_tests =
  List.map
    (fun (backend : Harness.Backend_world.backend) ->
      Alcotest.test_case
        (Printf.sprintf "spawn events match the fiber table [%s]" backend.name)
        `Quick
        (fun () ->
          let o = S.simultaneous_move ~seed:7 backend in
          let v = o.S.o_view in
          checki "no dropped events" 0 v.Engine.v_events_dropped;
          let spawns =
            Array.to_list v.Engine.v_events
            |> List.filter_map (fun e ->
                   match e.Event.ev_kind with
                   | Event.Spawn { fid; name } -> Some (fid, name)
                   | _ -> None)
          in
          checki "one spawn per fiber"
            (List.length v.Engine.v_fibers + v.Engine.v_finished)
            (List.length spawns);
          checkb "unfinished fibers in spawn order" true
            (List.filter
               (fun s ->
                 List.exists
                   (fun f -> (f.Engine.fi_id, f.Engine.fi_name) = s)
                   v.Engine.v_fibers)
               spawns
            = List.map
                (fun f -> (f.Engine.fi_id, f.Engine.fi_name))
                v.Engine.v_fibers)))
    Harness.Backend_world.all
  @ [
      Alcotest.test_case "same seed, same events hash" `Quick (fun () ->
          let run () =
            (S.simultaneous_move ~seed:11 Harness.Backend_world.charlotte)
              .S.o_view
              .Engine.v_events_hash
          in
          checkb "deterministic" true (run () = run ()));
    ]

let () =
  Alcotest.run "analysis"
    [
      ("lint", lint_tests);
      ("protocol", protocol_tests);
      ("races-synthetic", race_synth_tests);
      ("races-clean", races_clean_tests);
      ("event-log", event_log_tests);
    ]
