(* Tier-1 suite for the run core (lib/run).

   The spec string "scenario/backend/seed/policy[@plan]" is the
   universal repro handle — every sweep table, failing test and CI log
   line prints one, and `lynx_sim repro` must parse it back.  So the
   round-trip law is property-tested here, the historical chaos handle
   (plan in the policy position) is pinned, and the explore/chaos
   renderings are compared byte-for-byte against outputs captured
   before the pipelines were rebased onto [Run.execute]. *)

module R = Run
module Spec = Run.Spec
module A = Run.Artifact
module D = Explore.Driver
module C = Explore.Chaos
module S = Harness.Scenarios
module BW = Harness.Backend_world

(* ---- spec round-trip ------------------------------------------------- *)

let spec_of_tuple
    ((scenario, backend, seed, policy, plan, shards), population) =
  { Spec.scenario; backend; seed; policy; plan; population; shards }

let spec_arb =
  let open QCheck in
  let name_gen =
    Gen.oneof
      [
        Gen.oneofl S.names;
        Gen.oneofl [ "x"; "my-scenario"; "a_b.c"; "weird backend" ];
      ]
  in
  make
    ~print:(fun t -> Spec.to_string (spec_of_tuple t))
    Gen.(
      pair
        (tup6 name_gen
           (oneof [ oneofl BW.names; name_gen ])
           small_signed_int
           (oneofl Spec.all_policies)
           (oneofl
              (None
              :: List.map Option.some
                   ((Spec.Screen :: Spec.all_plans) @ Spec.targeted_plans)))
           (oneofl [ 1; 1; 2; 4; 8 ]))
        (* The population axis: round K/M values print with multipliers,
           ragged ones as digits; all must round-trip. *)
        (oneofl
           [
             None;
             None;
             Some 1;
             Some 24;
             Some 999;
             Some 2000;
             Some 64_000;
             Some 123_456;
             Some 1_000_000;
             Some 2_500_000;
           ]))

let test_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"of_string (to_string s) = s" spec_arb
       (fun t ->
         let s = spec_of_tuple t in
         match Spec.of_string (Spec.to_string s) with
         | Ok s' -> Spec.equal s s'
         | Error m -> QCheck.Test.fail_reportf "no parse: %s" m))

let check_spec = Alcotest.testable Spec.pp Spec.equal

let test_parse_forms () =
  Alcotest.(check check_spec)
    "plain"
    (Spec.v ~scenario:"move" ~backend:"chrysalis" 3)
    (Spec.of_string_exn "move/chrysalis/3/fifo");
  Alcotest.(check check_spec)
    "policy and plan"
    (Spec.v ~policy:Spec.Random ~plan:Spec.Drop ~scenario:"cross-request"
       ~backend:"soda" 2)
    (Spec.of_string_exn "cross-request/soda/2/random@drop");
  (* The chaos tables' historical handle puts the plan in the policy
     position; it must keep working as a repro string. *)
  Alcotest.(check check_spec)
    "legacy chaos handle"
    (Spec.v ~plan:Spec.Crash_restart ~scenario:"move" ~backend:"charlotte" 1)
    (Spec.of_string_exn "move/charlotte/1/crash-restart");
  Alcotest.(check string)
    "legacy handle canonicalises" "move/charlotte/1/fifo@crash-restart"
    (Spec.to_string (Spec.of_string_exn "move/charlotte/1/crash-restart"));
  (* The retired [~trace] suffix is an ordinary one-line parse error. *)
  Alcotest.(check (result check_spec string))
    "trace suffix rejected"
    (Error {|unknown or repeated suffix "~trace" in "move/soda/7/fifo~trace"|})
    (Spec.of_string "move/soda/7/fifo~trace");
  Alcotest.(check check_spec)
    "screening plan"
    (Spec.v ~plan:Spec.Screen ~scenario:"open-close" ~backend:"chrysalis" 1)
    (Spec.of_string_exn "open-close/chrysalis/1/fifo@screen");
  (* The targeted plans parse in both positions too — the chaos tables
     print them in the policy slot. *)
  Alcotest.(check check_spec)
    "targeted plan"
    (Spec.v ~plan:Spec.Leader_crash ~scenario:"ring-election"
       ~backend:"charlotte" 1)
    (Spec.of_string_exn "ring-election/charlotte/1/fifo@leader-crash");
  Alcotest.(check string)
    "targeted legacy handle canonicalises"
    "quorum/soda/2/fifo@partition-majority"
    (Spec.to_string (Spec.of_string_exn "quorum/soda/2/partition-majority"));
  (* The population axis parses with K/M multipliers, composes with the
     other suffixes, and canonicalises. *)
  Alcotest.(check check_spec)
    "population suffix"
    (Spec.v ~population:100_000 ~scenario:"wl-farm" ~backend:"chrysalis" 1)
    (Spec.of_string_exn "wl-farm/chrysalis/1/fifo~n100K");
  Alcotest.(check check_spec)
    "population with plan and shards"
    (Spec.v ~plan:Spec.Mix ~population:2_000_000 ~shards:4 ~scenario:"wl-tree"
       ~backend:"soda" 5)
    (Spec.of_string_exn "wl-tree/soda/5/fifo@mix~n2M~s4");
  Alcotest.(check string)
    "ragged population prints as digits" "wl-ring/charlotte/2/fifo~n1234"
    (Spec.to_string
       (Spec.v ~population:1234 ~scenario:"wl-ring" ~backend:"charlotte" 2));
  Alcotest.(check string)
    "sub-million K multiple keeps K" "wl-farm/soda/1/fifo~n1500K"
    (Spec.to_string (Spec.of_string_exn "wl-farm/soda/1/fifo~n1500K"))

let test_parse_errors () =
  let rejects s =
    match Spec.of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error m -> Alcotest.(check bool) "message nonempty" true (m <> "")
  in
  List.iter rejects
    [
      "garbage";
      "move/soda/notaseed/fifo";
      "/soda/1/fifo";
      "move//1/fifo";
      "move/soda/1/warp";
      "move/soda/1/fifo@meteor";
      "move/soda/1/fifo/extra";
      "wl-farm/soda/1/fifo~n0";
      "wl-farm/soda/1/fifo~nx";
      "wl-farm/soda/1/fifo~n5X";
      "wl-farm/soda/1/fifo~n-3";
    ]

(* Mutating a valid handle (insert, delete or replace one character,
   several times over) must yield a spec or a one-line error — never an
   exception — and whatever parses must round-trip canonically. *)
let test_mutations_never_raise =
  let open QCheck in
  let alphabet = "/~@nsKM0123456789-+x_fiorandmtesp " in
  let mutate str ops =
    List.fold_left
      (fun s (op, pos, c) ->
        let n = String.length s in
        let i = if n = 0 then 0 else pos mod n in
        let c = String.make 1 alphabet.[c mod String.length alphabet] in
        match op mod 3 with
        | 0 -> String.sub s 0 i ^ c ^ String.sub s i (n - i)
        | 1 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
        | _ when n > 0 -> String.sub s 0 i ^ c ^ String.sub s (i + 1) (n - i - 1)
        | _ -> s)
      str ops
  in
  let gen =
    Gen.pair (QCheck.gen spec_arb)
      (Gen.list_size (Gen.int_range 1 4)
         (Gen.triple Gen.nat Gen.nat Gen.nat))
  in
  let print (t, ops) = mutate (Spec.to_string (spec_of_tuple t)) ops in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:1000 ~name:"of_string never raises on mutated handles"
       (make ~print gen) (fun (t, ops) ->
         let str = mutate (Spec.to_string (spec_of_tuple t)) ops in
         match Spec.of_string str with
         | Error m -> m <> "" && not (String.contains m '\n')
         | Ok s -> (
           match Spec.of_string (Spec.to_string s) with
           | Ok s' -> Spec.equal s s'
           | Error m -> Test.fail_reportf "%S re-parse failed: %s" str m)))

(* ---- the registry ----------------------------------------------------- *)

let test_registry () =
  Alcotest.(check (list string))
    "scenario registry order"
    [
      "move";
      "enclosures";
      "cross-request";
      "open-close";
      "lost-enclosure";
      "bounced-enclosure";
      "shard-rpc";
      "ring-election";
      "quorum";
      "wl-farm";
      "wl-farm-open";
      "wl-ring";
      "wl-tree";
      "hint-repair";
      "pair-pressure";
    ]
    S.names;
  let applies sc b =
    match (S.find sc, BW.find b) with
    | Some sc, Some b -> S.applies sc b
    | _ -> Alcotest.failf "lookup failed for %s/%s" sc b
  in
  Alcotest.(check bool) "move applies everywhere" true (applies "move" "charlotte");
  Alcotest.(check bool) "hint-repair is SODA-only" false
    (applies "hint-repair" "charlotte");
  Alcotest.(check bool) "hint-repair on soda" true (applies "hint-repair" "soda");
  Alcotest.(check bool) "pair-pressure is SODA-only" false
    (applies "pair-pressure" "chrysalis");
  (* Variant backends resolve by name too, so repro handles from
     ablation runs work. *)
  (match BW.find "charlotte+acks" with
  | Some (module W : BW.WORLD) ->
    Alcotest.(check string) "variant lookup" "charlotte+acks" W.name
  | None -> Alcotest.fail "charlotte+acks not found");
  Alcotest.(check bool) "unknown backend" true (BW.find "hydra" = None);
  Alcotest.(check bool)
    "inapplicable spec refuses to run" true
    (R.execute (Spec.v ~scenario:"hint-repair" ~backend:"charlotte" 1) = None)

(* ---- execution: equivalence, determinism, judging --------------------- *)

let test_execute_matches_driver () =
  let case =
    { D.c_scenario = "move"; c_backend = "chrysalis"; c_seed = 3;
      c_policy = D.Fifo }
  in
  match (R.execute (D.spec case), D.run_case case) with
  | Some a, Some r ->
    Alcotest.(check bool) "ok" r.D.r_ok a.A.ok;
    Alcotest.(check string) "detail" r.D.r_detail a.A.detail;
    Alcotest.(check int64) "events hash" r.D.r_events_hash a.A.events_hash;
    Alcotest.(check int)
      "violations" (List.length r.D.r_violations)
      (List.length a.A.violations)
  | _ -> Alcotest.fail "both paths should produce a result"

let test_faulted_execute_deterministic () =
  let spec =
    Spec.v ~plan:Spec.Mix ~scenario:"cross-request" ~backend:"soda" 2
  in
  match (R.execute spec, R.execute spec) with
  | Some a, Some b ->
    Alcotest.(check int64) "events hash stable" a.A.events_hash b.A.events_hash;
    Alcotest.(check string) "detail stable" a.A.detail b.A.detail;
    Alcotest.(check (list string))
      "violations stable"
      (List.map R.Invariant.to_string a.A.violations)
      (List.map R.Invariant.to_string b.A.violations);
    Alcotest.(check bool)
      "fault counters present" true
      (List.exists
         (fun (k, _) -> String.starts_with ~prefix:"faults." k)
         a.A.counters)
  | _ -> Alcotest.fail "faulted run should produce an artifact"

let test_execute_many_order () =
  let specs =
    List.concat_map
      (fun sc ->
        List.map
          (fun b -> Spec.v ~scenario:sc ~backend:b 1)
          BW.(List.map (fun (module W : WORLD) -> W.name) all))
      [ "move"; "open-close"; "hint-repair" ]
  in
  let seq = R.execute_many ~jobs:1 specs in
  let par = R.execute_many ~jobs:4 specs in
  Alcotest.(check int) "length" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      match (a, b) with
      | None, None -> ()
      | Some a, Some b ->
        Alcotest.(check int64) "hash" a.A.events_hash b.A.events_hash;
        Alcotest.(check string)
          "spec" (Spec.to_string a.A.spec)
          (Spec.to_string b.A.spec)
      | _ -> Alcotest.fail "applicability must not depend on jobs")
    seq par

let test_json_shape () =
  let spec = Spec.v ~scenario:"move" ~backend:"chrysalis" 3 in
  match R.execute spec with
  | None -> Alcotest.fail "move/chrysalis should run"
  | Some a ->
    let j = A.to_json a in
    let has needle =
      Alcotest.(check bool)
        (Printf.sprintf "json has %s" needle)
        true
        (let nl = String.length needle and jl = String.length j in
         let rec go i = i + nl <= jl && (String.sub j i nl = needle || go (i + 1)) in
         go 0)
    in
    has "\"schema\": \"lynx-run/1\"";
    has "\"spec\": \"move/chrysalis/3/fifo\"";
    has "\"events_hash\"";
    has "\"counters\"";
    (* The recovery additions ride in the same schema: a liveness string
       (vacuous for a clean run) and a pre-filtered fault-counter
       object, both inside the compare.exe parser subset. *)
    has "\"liveness\": \"vacuous\"";
    has "\"faults\"";
    (match
       R.execute
         (Spec.v ~plan:Spec.Leader_crash ~scenario:"ring-election"
            ~backend:"chrysalis" 1)
     with
    | None -> Alcotest.fail "ring-election/chrysalis should run"
    | Some a ->
      let j = A.to_json a in
      Alcotest.(check bool)
        "faulted json reports live" true
        (let needle = "\"liveness\": \"live" in
         let nl = String.length needle and jl = String.length j in
         let rec go i =
           i + nl <= jl && (String.sub j i nl = needle || go (i + 1))
         in
         go 0))

(* ---- repro dump ------------------------------------------------------- *)

(* The dump's trace tail: the header line and the event lines after it. *)
let trace_tail dump =
  let rec from = function
    | [] -> Alcotest.fail "dump has no trace tail"
    | l :: rest when String.starts_with ~prefix:"  trace tail" l ->
      (l, List.filter (fun l -> l <> "") rest)
    | _ :: rest -> from rest
  in
  from (String.split_on_char '\n' dump)

let dump_spec = Spec.v ~scenario:"move" ~backend:"chrysalis" 3

let test_dump_tail () =
  match R.execute_full dump_spec with
  | Some (Some o, a) ->
    let v = o.S.o_view in
    let evs = v.Sim.Engine.v_events in
    let n = Array.length evs in
    Alcotest.(check bool) "run outlasts the tail" true (n > 64);
    let header, lines = trace_tail (R.dump (Some o) a) in
    Alcotest.(check string)
      "header"
      (Printf.sprintf "  trace tail (last 64 of %d events):"
         (n + v.Sim.Engine.v_events_dropped))
      header;
    let expect =
      List.init 64 (fun i ->
          let ev = evs.(n - 64 + i) in
          Printf.sprintf "    %-12s %-7s %s"
            (Sim.Time.to_string ev.Sim.Event.ev_time)
            ("#" ^ string_of_int ev.Sim.Event.ev_fiber)
            (Sim.Event.kind_to_string ev.Sim.Event.ev_kind))
    in
    Alcotest.(check (list string)) "last 64 events" expect lines
  | _ -> Alcotest.fail "move/chrysalis should produce an outcome"

(* [repro] retains a ring of 64, far fewer than the run emits: its
   tail must still be the end of the run, as a full log shows it. *)
let test_repro_tail_is_run_end () =
  match R.execute_full dump_spec with
  | Some (Some o, a) ->
    Alcotest.(check bool)
      "run outlasts the ring" true
      (Array.length o.S.o_view.Sim.Engine.v_events > R.tail_length);
    Alcotest.(check (pair string (list string)))
      "same tail as the full log"
      (trace_tail (R.dump (Some o) a))
      (trace_tail (R.repro dump_spec))
  | _ -> Alcotest.fail "move/chrysalis should produce an outcome"

let test_dump_log_capacity () =
  let _, full = trace_tail (R.repro dump_spec) in
  let header, short =
    match R.execute_full ~log_capacity:5 dump_spec with
    | Some (o, a) -> trace_tail (R.dump o a)
    | None -> Alcotest.fail "move/chrysalis should run"
  in
  Alcotest.(check int) "ring of 5 shows 5" 5 (List.length short);
  Alcotest.(check bool)
    "header counts the retained window" true
    (String.starts_with ~prefix:"  trace tail (last 5 of " header);
  Alcotest.(check (list string))
    "same newest events"
    (List.filteri (fun i _ -> i >= List.length full - 5) full)
    short

let test_dump_without_outcome () =
  match R.execute dump_spec with
  | None -> Alcotest.fail "move/chrysalis should run"
  | Some a ->
    let d = R.dump None a in
    let lines = String.split_on_char '\n' d in
    Alcotest.(check string)
      "first line" "repro move/chrysalis/3/fifo" (List.hd lines);
    Alcotest.(check bool)
      "full 64-bit events hash" true
      (List.exists
         (String.ends_with
            ~suffix:(Printf.sprintf "events hash %016Lx" a.A.events_hash))
         lines);
    Alcotest.(check bool)
      "no trace tail without an outcome" false
      (List.exists (String.starts_with ~prefix:"  trace tail") lines)

(* ---- golden compatibility -------------------------------------------- *)

(* These strings were captured from the pre-refactor pipelines (before
   explore/chaos were rebased onto [Run.execute]).  The rendering must
   stay byte-identical: the tables are the determinism witness and the
   case names are repro handles people have in old logs. *)

let golden_explore_summary =
  "scenario             policy     runs   fail\n\
   bounced-enclosure    fifo          6      0\n\
   bounced-enclosure    random        6      0\n\
   cross-request        fifo          6      0\n\
   cross-request        random        6      0\n\
   enclosures           fifo          6      0\n\
   enclosures           random        6      0\n\
   hint-repair          fifo          2      0\n\
   hint-repair          random        2      0\n\
   lost-enclosure       fifo          6      0\n\
   lost-enclosure       random        6      0\n\
   move                 fifo          6      0\n\
   move                 random        6      0\n\
   open-close           fifo          6      0\n\
   open-close           random        6      0\n\
   pair-pressure        fifo          2      0\n\
   pair-pressure        random        2      0\n\
   quorum               fifo          6      0\n\
   quorum               random        6      0\n\
   ring-election        fifo          6      0\n\
   ring-election        random        6      0\n\
   shard-rpc            fifo          6      0\n\
   shard-rpc            random        6      0\n\
   wl-farm              fifo          6      0\n\
   wl-farm              random        6      0\n\
   wl-farm-open         fifo          6      0\n\
   wl-farm-open         random        6      0\n\
   wl-ring              fifo          6      0\n\
   wl-ring              random        6      0\n\
   wl-tree              fifo          6      0\n\
   wl-tree              random        6      0\n"

(* Recaptured when screening timeouts gained the per-backend RTT floor:
   move under duplicate/mix on Charlotte now succeeds (the old captures
   failed only because sub-RTT timeouts made every healthy call
   retransmit), and the Charlotte/SODA hashes moved with the timing.
   The liveness column is "-" throughout: duplicate and mix are
   windowless plans, so the recovery judge is vacuous here. *)
let golden_chaos_table =
  "case                                     ok     events             \
   liveness       verdict\n\
   move/charlotte/2/duplicate               true   f01f93cb0f33d8e7  \
   -              pass\n\
   move/charlotte/2/mix                     true   c97ff84200aea4b4  \
   -              pass\n\
   move/soda/2/duplicate                    true   d666c291fdc324a4  \
   -              pass\n\
   move/soda/2/mix                          true   067d43d0064d3eb8  \
   -              pass\n\
   move/chrysalis/2/duplicate               true   038e238703c788e9  \
   -              pass\n\
   move/chrysalis/2/mix                     false  105144786418775b  \
   -              pass\n\
   cross-request/charlotte/2/duplicate      false  fdbe6bfa44a64148  \
   -              pass\n\
   cross-request/charlotte/2/mix            false  1662c12adbc6b6ef  \
   -              pass\n\
   cross-request/soda/2/duplicate           false  cc2a331adc1e2384  \
   -              pass\n\
   cross-request/soda/2/mix                 false  c36650601c3050b1  \
   -              pass\n\
   cross-request/chrysalis/2/duplicate      false  dcfe1c5c4b30a0c8  \
   -              pass\n\
   cross-request/chrysalis/2/mix            false  e64d19f8aac0a403  \
   -              pass\n"

let test_golden_explore () =
  let results = D.sweep ~jobs:2 ~seeds:[ 1; 2 ] () in
  Alcotest.(check string)
    "explore summary unchanged" golden_explore_summary (D.summary results)

(* Captured from `lynx_sim races -b charlotte --seed 1` and
   `-b soda --seed 2` before the detector went streaming. *)
let golden_races_charlotte =
  "move                 clean\n\
   enclosures           clean\n\
   cross-request        clean\n\
   open-close           clean\n\
   lost-enclosure       clean\n\
   bounced-enclosure    clean\n\
   shard-rpc            clean\n\
   ring-election        clean\n\
   quorum               clean\n\
   wl-farm              clean\n\
   wl-farm-open         clean\n\
   wl-ring              clean\n\
   wl-tree              clean\n\
   hint-repair          n/a on charlotte\n\
   pair-pressure        n/a on charlotte\n"

let golden_races_soda =
  "move                 clean\n\
   enclosures           clean\n\
   cross-request        clean\n\
   open-close           clean\n\
   lost-enclosure       clean\n\
   bounced-enclosure    clean\n\
   shard-rpc            clean\n\
   ring-election        clean\n\
   quorum               clean\n\
   wl-farm              clean\n\
   wl-farm-open         clean\n\
   wl-ring              clean\n\
   wl-tree              clean\n\
   hint-repair          clean\n\
   pair-pressure        clean\n"

let test_golden_races () =
  let report backend seed =
    let specs =
      List.map
        (fun sc -> Spec.v ~policy:Spec.Fifo ~scenario:sc ~backend seed)
        S.names
    in
    D.races_report ~backend ~scenarios:S.names
      (R.execute_many ~jobs:2 specs)
  in
  let charlotte, n_charlotte = report "charlotte" 1 in
  Alcotest.(check string)
    "races report unchanged (charlotte)" golden_races_charlotte charlotte;
  Alcotest.(check int) "race total (charlotte)" 0 n_charlotte;
  let soda, n_soda = report "soda" 2 in
  Alcotest.(check string)
    "races report unchanged (soda)" golden_races_soda soda;
  Alcotest.(check int) "race total (soda)" 0 n_soda

let test_golden_chaos () =
  let results =
    C.sweep ~jobs:2
      ~scenarios:[ "move"; "cross-request" ]
      ~seeds:[ 2 ]
      ~plans:[ C.Duplicate; C.Mix ] ()
  in
  Alcotest.(check string) "chaos table unchanged" golden_chaos_table
    (C.table results)

let () =
  Alcotest.run "run"
    [
      ( "spec",
        [
          test_roundtrip;
          Alcotest.test_case "parse forms" `Quick test_parse_forms;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          test_mutations_never_raise;
        ] );
      ("registry", [ Alcotest.test_case "registry" `Quick test_registry ]);
      ( "execute",
        [
          Alcotest.test_case "matches driver" `Quick test_execute_matches_driver;
          Alcotest.test_case "faulted determinism" `Quick
            test_faulted_execute_deterministic;
          Alcotest.test_case "pool order" `Quick test_execute_many_order;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
      ( "dump",
        [
          Alcotest.test_case "trace tail is the last 64 events" `Quick
            test_dump_tail;
          Alcotest.test_case "repro tail is the end of the run" `Quick
            test_repro_tail_is_run_end;
          Alcotest.test_case "log capacity shortens the tail exactly" `Quick
            test_dump_log_capacity;
          Alcotest.test_case "hash line, no tail without an outcome" `Quick
            test_dump_without_outcome;
        ] );
      ( "golden",
        [
          Alcotest.test_case "explore summary" `Slow test_golden_explore;
          Alcotest.test_case "chaos table" `Slow test_golden_chaos;
          Alcotest.test_case "races report" `Slow test_golden_races;
        ] );
    ]
