(* Tier-1 suite for the run core (lib/run).

   The spec string "scenario/backend/seed/policy[@plan]" is the
   universal repro handle — every sweep table, failing test and CI log
   line prints one, and `lynx_sim repro` must parse it back.  So the
   round-trip law is property-tested here, a plan in the policy position
   is pinned as a parse error, and the explore/chaos/races renderings
   are compared byte-for-byte against pinned outputs. *)

module R = Run
module Spec = Run.Spec
module A = Run.Artifact
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
  (* A plan in the policy position (the old chaos-table handle) is a
     one-line parse error that names the canonical form. *)
  Alcotest.(check (result check_spec string))
    "plan in the policy slot rejected"
    (Error
       {|unknown policy "crash-restart" in "move/charlotte/1/crash-restart" (a fault plan follows the policy: fifo@crash-restart)|})
    (Spec.of_string "move/charlotte/1/crash-restart");
  (* The retired [~trace] suffix is an ordinary one-line parse error. *)
  Alcotest.(check (result check_spec string))
    "trace suffix rejected"
    (Error {|unknown or repeated suffix "~trace" in "move/soda/7/fifo~trace"|})
    (Spec.of_string "move/soda/7/fifo~trace");
  Alcotest.(check check_spec)
    "screening plan"
    (Spec.v ~plan:Spec.Screen ~scenario:"open-close" ~backend:"chrysalis" 1)
    (Spec.of_string_exn "open-close/chrysalis/1/fifo@screen");
  Alcotest.(check check_spec)
    "targeted plan"
    (Spec.v ~plan:Spec.Leader_crash ~scenario:"ring-election"
       ~backend:"charlotte" 1)
    (Spec.of_string_exn "ring-election/charlotte/1/fifo@leader-crash");
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
      "move/soda/1/drop";
      "quorum/soda/2/partition-majority";
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
  Alcotest.(check (list string))
    "variant names"
    [ "charlotte"; "soda"; "chrysalis"; "charlotte+acks"; "charlotte+hints";
      "chrysalis+tuned" ]
    (List.map BW.name BW.variants);
  List.iter
    (fun (b : BW.backend) ->
      Alcotest.(check bool) (b.name ^ " round-trips") true
        (match BW.find b.name with Some b' -> b' == b | None -> false))
    BW.variants;
  Alcotest.(check bool) "unknown backend" true (BW.find "hydra" = None);
  Alcotest.(check bool)
    "inapplicable spec refuses to run" true
    (R.execute (Spec.v ~scenario:"hint-repair" ~backend:"charlotte" 1) = None)

(* ---- execution: equivalence, determinism, judging --------------------- *)

(* ---- the sweep product ------------------------------------------------ *)

let test_product () =
  let scenarios = [ "move"; "hint-repair"; "wl-farm" ]
  and backends = [ "soda"; "charlotte" ]
  and seeds = [ 3; 1 ]
  and policies = [ Spec.Random; Spec.Fifo ]
  and plans = [ None; Some Spec.Drop; Some Spec.Leader_crash ] in
  let specs =
    Spec.product ~scenarios ~backends ~seeds ~policies ~plans ~shards:2 ()
  in
  Alcotest.(check int) "length is the product of the axes" (3 * 2 * 2 * 2 * 3)
    (List.length specs);
  (* Scenario-major: each axis varies slower than the one after it. *)
  let expect =
    List.concat_map
      (fun sc ->
        List.concat_map
          (fun b ->
            List.concat_map
              (fun seed ->
                List.concat_map
                  (fun pol ->
                    List.map
                      (fun pl ->
                        Printf.sprintf "%s/%s/%d/%s%s~s2" sc b seed
                          (Spec.policy_name pol)
                          (Option.fold ~none:""
                             ~some:(fun p -> "@" ^ Spec.plan_name p)
                             pl))
                      plans)
                  policies)
              seeds)
          backends)
      scenarios
  in
  Alcotest.(check (list string)) "scenario-major order" expect
    (List.map Spec.to_string specs);
  List.iter
    (fun s ->
      Alcotest.(check (result check_spec string))
        (Spec.to_string s ^ " round-trips") (Ok s)
        (Spec.of_string (Spec.to_string s)))
    specs;
  Alcotest.(check (list string))
    "defaults: every scenario on the primaries, seed 1, fifo, clean"
    (List.concat_map
       (fun sc ->
         List.map (fun b -> Printf.sprintf "%s/%s/1/fifo" sc b) BW.names)
       S.names)
    (List.map Spec.to_string (Spec.product ()))

let test_product_matches_execute () =
  let specs =
    Spec.product
      ~scenarios:[ "move"; "hint-repair" ]
      ~seeds:[ 3 ]
      ~plans:[ None; Some Spec.Drop ]
      ()
  in
  Alcotest.(check bool)
    "product + execute_many = per-spec execute" true
    (R.execute_many ~jobs:2 specs = List.map R.execute specs)

(* The failure criterion follows the spec: strict on a clean run, only a
   safety or liveness breach under a fault plan. *)
let test_failed () =
  let clean = Spec.v ~scenario:"move" ~backend:"soda" 1 in
  let base =
    match R.execute clean with
    | Some a -> a
    | None -> Alcotest.fail "move/soda should run"
  in
  let missed_finale = { base with A.ok = false } in
  let raced =
    {
      base with
      A.races =
        [
          {
            Analysis.Races.r_rule = "R-MSG";
            r_obj = "x";
            r_detail = "fixture";
          };
        ];
    }
  in
  let violated =
    {
      base with
      A.violations =
        [ { R.Invariant.v_invariant = "no-deadlock"; v_detail = "fixture" } ];
    }
  in
  let missed = { base with A.liveness = R.Liveness.Missed "fixture" } in
  let faulted a =
    { a with A.spec = { clean with Spec.plan = Some Spec.Drop } }
  in
  List.iter
    (fun (name, a) ->
      Alcotest.(check bool)
        (name ^ ", clean: strict")
        (A.strict_failed a) (A.failed a);
      Alcotest.(check bool)
        (name ^ ", faulted: anomalous")
        (A.anomalous (faulted a))
        (A.failed (faulted a)))
    [
      ("pass", base);
      ("missed finale", missed_finale);
      ("raced", raced);
      ("violated", violated);
      ("liveness missed", missed);
    ];
  Alcotest.(check (list bool))
    "clean verdicts" [ false; true; true; true; false ]
    (List.map A.failed [ base; missed_finale; raced; violated; missed ]);
  Alcotest.(check (list bool))
    "faulted verdicts" [ false; false; false; true; true ]
    (List.map
       (fun a -> A.failed (faulted a))
       [ base; missed_finale; raced; violated; missed ])

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
          BW.names)
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

(* The bytes of every [--json] rendering, pinned by MD5: a clean run, a
   faulted one, a live one and a workload with a [latency] object, and
   the claims of one value and one bracket (not measured: their
   results are built here). *)
let test_json_bytes () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let artifacts =
    List.filter_map
      (fun s -> R.execute (Result.get_ok (Spec.of_string s)))
      [
        "move/chrysalis/3/fifo";
        "cross-request/soda/2/fifo@drop";
        "ring-election/chrysalis/1/fifo@leader-crash";
        "wl-farm-open/chrysalis/1/fifo";
      ]
  in
  Alcotest.(check int) "four artifacts" 4 (List.length artifacts);
  Alcotest.(check string)
    "artifact list json" "94b0a84059a52b84ba1729cd70241363" (md5 (A.list_to_json artifacts));
  let module C = Metrics.Claims in
  let claim id = List.find (fun c -> c.C.id = id) C.all in
  let results =
    [
      { C.claim = claim "E1.lynx-0B"; measured = Ok (C.Value 57.25); ok = true };
      {
        C.claim = claim "E3.crossover";
        measured = Ok (C.Bracket (1369., 1370.));
        ok = true;
      };
    ]
  in
  Alcotest.(check string) "claims json" "74db24d9ff485a3b9d33d955898e2dc0" (md5 (C.to_json results))

(* `lynx_sim static move broken-s-msg --json`, alone and with `--sweep
   -n 2`, pinned at the bytes the command printed before its report
   moved into Run.Soundness. *)
let test_static_json_bytes () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let targets =
    [
      ("move", Option.get (Analysis.Catalog.find "move"));
      ("broken-s-msg", List.assoc "broken-s-msg" Analysis.Catalog.broken_static);
    ]
  in
  let report sweep = R.Soundness.static_report ~json:true ~seeds:2 targets sweep in
  let plans = None :: List.map Option.some (Spec.Screen :: Spec.all_plans) in
  let sweep =
    List.filter_map Fun.id
      (R.execute_many ~jobs:2
         (Spec.product ~scenarios:[ "move" ] ~seeds:[ 1; 2 ] ~plans ()))
  in
  let check name digest (json, failures) =
    Alcotest.(check string) name digest (md5 json);
    Alcotest.(check int) (name ^ ": one alarm, no gap") 1 failures
  in
  check "static json" "474b501d6ba042b780e2be2dc27f5034" (report None);
  check "static sweep json" "3df7a7e6ea7f3565143dd360bdce1e44" (report (Some sweep))

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
   windowless plans, so the recovery judge is vacuous here.  The case
   column is the canonical spec ("…/fifo@plan"), so every row parses
   back as a repro handle. *)
let golden_chaos_table =
  "case                                     ok     events             \
   liveness       verdict\n\
   move/charlotte/2/fifo@duplicate          true   f01f93cb0f33d8e7  \
   -              pass\n\
   move/charlotte/2/fifo@mix                true   c97ff84200aea4b4  \
   -              pass\n\
   move/soda/2/fifo@duplicate               true   d666c291fdc324a4  \
   -              pass\n\
   move/soda/2/fifo@mix                     true   067d43d0064d3eb8  \
   -              pass\n\
   move/chrysalis/2/fifo@duplicate          true   038e238703c788e9  \
   -              pass\n\
   move/chrysalis/2/fifo@mix                false  105144786418775b  \
   -              pass\n\
   cross-request/charlotte/2/fifo@duplicate false  fdbe6bfa44a64148  \
   -              pass\n\
   cross-request/charlotte/2/fifo@mix       false  1662c12adbc6b6ef  \
   -              pass\n\
   cross-request/soda/2/fifo@duplicate      false  cc2a331adc1e2384  \
   -              pass\n\
   cross-request/soda/2/fifo@mix            false  c36650601c3050b1  \
   -              pass\n\
   cross-request/chrysalis/2/fifo@duplicate false  dcfe1c5c4b30a0c8  \
   -              pass\n\
   cross-request/chrysalis/2/fifo@mix       false  e64d19f8aac0a403  \
   -              pass\n"

let sweep ?scenarios ?seeds ?policies ?plans () =
  List.filter_map Fun.id
    (R.execute_many ~jobs:2
       (Spec.product ?scenarios ?seeds ?policies ?plans ()))

(* The summary counts runs and failures only.  This digest pins what
   each run of the same sweep returned: one row per spec with its
   verdict, events hash, virtual duration in ns, detail and the MD5 of
   its counters.  It covers every registry scenario on every backend it
   applies to, so a change to how scenarios are set up or report must
   keep it byte-identical. *)
let golden_explore_digest =
  {|move/charlotte/1/fifo                true  e77d079ddb6126ce    276823000 c904a2b76742ddb8704fa9225785b8ef "ok"
move/charlotte/1/random              true  f68b150773be0885    276823000 d18d3e3162d3bcdeb2cdc5f8bd917fa6 "ok"
move/charlotte/2/fifo                true  e77d079ddb6126ce    276823000 c904a2b76742ddb8704fa9225785b8ef "ok"
move/charlotte/2/random              true  e6d3e2bba6b81d26    276935750 c904a2b76742ddb8704fa9225785b8ef "ok"
move/soda/1/fifo                     true  c5f05ef55555fe21    205826400 2e58ac34862070f485e21922d5c51e21 "ok"
move/soda/1/random                   true  f0ea56547cb52da6    205826400 2e58ac34862070f485e21922d5c51e21 "ok"
move/soda/2/fifo                     true  e9ca21f1d6d42201    205826400 2e58ac34862070f485e21922d5c51e21 "ok"
move/soda/2/random                   true  ca3d466fe0f9bd41    206322400 805cb45d576bd06e6e463a947369f1be "ok"
move/chrysalis/1/fifo                true  046247c01ff5f02b    104908400 e332dde71bd5911de25b7d37efb133ad "ok"
move/chrysalis/1/random              true  38aceca9801022bc    104908400 e332dde71bd5911de25b7d37efb133ad "ok"
move/chrysalis/2/fifo                true  046247c01ff5f02b    104908400 e332dde71bd5911de25b7d37efb133ad "ok"
move/chrysalis/2/random              true  f348639c2020b9fd    104908400 e332dde71bd5911de25b7d37efb133ad "ok"
enclosures/charlotte/1/fifo          true  1b51ce33d96f6a01    168512500 609cf162ba3b898e295f1fea664960b8 "3 enclosures arrived"
enclosures/charlotte/1/random        true  f965f20473f8bd30    168512500 609cf162ba3b898e295f1fea664960b8 "3 enclosures arrived"
enclosures/charlotte/2/fifo          true  1b51ce33d96f6a01    168512500 609cf162ba3b898e295f1fea664960b8 "3 enclosures arrived"
enclosures/charlotte/2/random        true  36e64096dda52108    168512500 609cf162ba3b898e295f1fea664960b8 "3 enclosures arrived"
enclosures/soda/1/fifo               true  089f1595d3ad23be     33119600 6c1ef4d73787f4cefa58311286a7dcb7 "3 enclosures arrived"
enclosures/soda/1/random             true  ea12594665cb2a84     33119600 6c1ef4d73787f4cefa58311286a7dcb7 "3 enclosures arrived"
enclosures/soda/2/fifo               true  de12db8196eadd7e     33219600 6c1ef4d73787f4cefa58311286a7dcb7 "3 enclosures arrived"
enclosures/soda/2/random             true  c0ca0f61e5e92a73     33219600 6c1ef4d73787f4cefa58311286a7dcb7 "3 enclosures arrived"
enclosures/chrysalis/1/fifo          true  fd2f64e4eca9a14e      8146500 f92493faff2fbfe97fa9d828706a591a "3 enclosures arrived"
enclosures/chrysalis/1/random        true  3590f2728ccb5c72      8146500 f92493faff2fbfe97fa9d828706a591a "3 enclosures arrived"
enclosures/chrysalis/2/fifo          true  fd2f64e4eca9a14e      8146500 f92493faff2fbfe97fa9d828706a591a "3 enclosures arrived"
enclosures/chrysalis/2/random        true  3f855585ded1fb7b      8146500 f92493faff2fbfe97fa9d828706a591a "3 enclosures arrived"
cross-request/charlotte/1/fifo       true  2c370c821bab3b9a    197294750 f5b47a33fb4e75795e02c788d4ba0699 "a_done=true b_done=true"
cross-request/charlotte/1/random     true  ec69d23a06c4ebd5    197294750 8965f442fc7072167a7b7209692edf1d "a_done=true b_done=true"
cross-request/charlotte/2/fifo       true  2c370c821bab3b9a    197294750 f5b47a33fb4e75795e02c788d4ba0699 "a_done=true b_done=true"
cross-request/charlotte/2/random     true  3af216ce3484f28c    197294750 8965f442fc7072167a7b7209692edf1d "a_done=true b_done=true"
cross-request/soda/1/fifo            true  2fb41b416529fba5     82618800 6443509fdf41b3ccd0522dfd014575f1 "a_done=true b_done=true"
cross-request/soda/1/random          true  344198efa1d19520     82618800 6443509fdf41b3ccd0522dfd014575f1 "a_done=true b_done=true"
cross-request/soda/2/fifo            true  01fb0511f9b98b85     82718800 6443509fdf41b3ccd0522dfd014575f1 "a_done=true b_done=true"
cross-request/soda/2/random          true  f8099032afa3551c     82718800 6443509fdf41b3ccd0522dfd014575f1 "a_done=true b_done=true"
cross-request/chrysalis/1/fifo       true  c8471136796d819d     44369100 d6d4c8ef59574dd02698b1eb9d483a23 "a_done=true b_done=true"
cross-request/chrysalis/1/random     true  33e625bc7688df2c     44369100 a9c5d8253146e32a7c11d412e4e4e4a9 "a_done=true b_done=true"
cross-request/chrysalis/2/fifo       true  c8471136796d819d     44369100 d6d4c8ef59574dd02698b1eb9d483a23 "a_done=true b_done=true"
cross-request/chrysalis/2/random     true  00b69b2c87740991     44369100 d6d4c8ef59574dd02698b1eb9d483a23 "a_done=true b_done=true"
open-close/charlotte/1/fifo          true  2fcc6f259358cd07    200169000 85fd46441a34f3748a6aff6c4fd622d6 "served=true b_done=true"
open-close/charlotte/1/random        true  da246516f3bea9ec    200169000 85fd46441a34f3748a6aff6c4fd622d6 "served=true b_done=true"
open-close/charlotte/2/fifo          true  2fcc6f259358cd07    200169000 85fd46441a34f3748a6aff6c4fd622d6 "served=true b_done=true"
open-close/charlotte/2/random        true  1fd4caebd653ed5b    200169000 0f93ef6cf397c63ceef457279109b52d "served=true b_done=true"
open-close/soda/1/fifo               true  1d8c181e5056c1eb    159098800 aade5a4dcaa954436d7dd491846b616d "served=true b_done=true"
open-close/soda/1/random             true  d0b94f28f7956fff    159098800 aade5a4dcaa954436d7dd491846b616d "served=true b_done=true"
open-close/soda/2/fifo               true  2640d29f847d578b    159198800 aade5a4dcaa954436d7dd491846b616d "served=true b_done=true"
open-close/soda/2/random             true  3f4b656c75aeadb3    159198800 aade5a4dcaa954436d7dd491846b616d "served=true b_done=true"
open-close/chrysalis/1/fifo          true  e055f20ab32b378f    141934500 289025bc8f4f2ade1b78fae6cec37183 "served=true b_done=true"
open-close/chrysalis/1/random        true  dd41cd280e2dcd6a    141934500 30f7466bbc1d709b128bd7fe8ff44040 "served=true b_done=true"
open-close/chrysalis/2/fifo          true  e055f20ab32b378f    141934500 289025bc8f4f2ade1b78fae6cec37183 "served=true b_done=true"
open-close/chrysalis/2/random        true  26cb0446843b7b23    141934500 289025bc8f4f2ade1b78fae6cec37183 "served=true b_done=true"
lost-enclosure/charlotte/1/fifo      true  cd299b2579cd7ec4    862847500 57b5534134fde100e48dcc6674542aa7 "far_end_died=true send_failed=true recovered=false"
lost-enclosure/charlotte/1/random    true  018f15d29d9d5bf0    862847500 9dfb3cd67e64818a1e13308e8081972e "far_end_died=true send_failed=true recovered=false"
lost-enclosure/charlotte/2/fifo      true  cd299b2579cd7ec4    862847500 57b5534134fde100e48dcc6674542aa7 "far_end_died=true send_failed=true recovered=false"
lost-enclosure/charlotte/2/random    true  2d763e2202cbfa4d    862847500 57b5534134fde100e48dcc6674542aa7 "far_end_died=true send_failed=true recovered=false"
lost-enclosure/soda/1/fifo           true  0cdd3bf4f6f0c4b4    869400000 a08d40bccdd9587f96a93a06916b4b42 "far_end_died=false send_failed=true recovered=true"
lost-enclosure/soda/1/random         true  176772f1442abd44    869400000 a08d40bccdd9587f96a93a06916b4b42 "far_end_died=false send_failed=true recovered=true"
lost-enclosure/soda/2/fifo           true  e6432da3e51fc9f4    869400000 a08d40bccdd9587f96a93a06916b4b42 "far_end_died=false send_failed=true recovered=true"
lost-enclosure/soda/2/random         true  c791a22f5d14fbd7    869400000 a08d40bccdd9587f96a93a06916b4b42 "far_end_died=false send_failed=true recovered=true"
lost-enclosure/chrysalis/1/fifo      true  186434f60dd71349    860530000 577b17116a7bb0649a3ba19f23fa7fb6 "far_end_died=false send_failed=true recovered=true"
lost-enclosure/chrysalis/1/random    true  3abc21244381d546    860530000 577b17116a7bb0649a3ba19f23fa7fb6 "far_end_died=false send_failed=true recovered=true"
lost-enclosure/chrysalis/2/fifo      true  186434f60dd71349    860530000 577b17116a7bb0649a3ba19f23fa7fb6 "far_end_died=false send_failed=true recovered=true"
lost-enclosure/chrysalis/2/random    true  da62d713cd76b077    860530000 577b17116a7bb0649a3ba19f23fa7fb6 "far_end_died=false send_failed=true recovered=true"
bounced-enclosure/charlotte/1/fifo   true  f178dc49fe8629ef    496770500 57a674ffa7409554040c0c212b059f92 "delivered=true pong=true"
bounced-enclosure/charlotte/1/random true  fffb2f497ac07aec    496770500 57a674ffa7409554040c0c212b059f92 "delivered=true pong=true"
bounced-enclosure/charlotte/2/fifo   true  f178dc49fe8629ef    496770500 57a674ffa7409554040c0c212b059f92 "delivered=true pong=true"
bounced-enclosure/charlotte/2/random true  3e4a5a8bd905fa9d    496770500 57a674ffa7409554040c0c212b059f92 "delivered=true pong=true"
bounced-enclosure/soda/1/fifo        true  1ddfb888ab190cbf    367132750 477dcb030cf2ed199505a31951fa73eb "delivered=true pong=true"
bounced-enclosure/soda/1/random      true  16794a53cf947b38    367132750 477dcb030cf2ed199505a31951fa73eb "delivered=true pong=true"
bounced-enclosure/soda/2/fifo        true  0e16a4d7f3c2397f    367132750 477dcb030cf2ed199505a31951fa73eb "delivered=true pong=true"
bounced-enclosure/soda/2/random      true  0f1edf5bfdc05611    367132750 477dcb030cf2ed199505a31951fa73eb "delivered=true pong=true"
bounced-enclosure/chrysalis/1/fifo   true  00c8bc6fe929ed3b    324459150 e5404af10e9e7bd7af7373e40936fe08 "delivered=true pong=true"
bounced-enclosure/chrysalis/1/random true  c63124900330ebd9    324459150 e5404af10e9e7bd7af7373e40936fe08 "delivered=true pong=true"
bounced-enclosure/chrysalis/2/fifo   true  00c8bc6fe929ed3b    324459150 e5404af10e9e7bd7af7373e40936fe08 "delivered=true pong=true"
bounced-enclosure/chrysalis/2/random true  dc142949058bcc59    324459150 e5404af10e9e7bd7af7373e40936fe08 "delivered=true pong=true"
shard-rpc/charlotte/1/fifo           true  f05b73b39e49079f    182000000 72f091518f85e1f78326e72a9c01524e "12/12 rpcs verified, 7 windows"
shard-rpc/charlotte/1/random         true  f05b73b39e49079f    182000000 72f091518f85e1f78326e72a9c01524e "12/12 rpcs verified, 7 windows"
shard-rpc/charlotte/2/fifo           true  dff4ab58652df5af    182000000 b1ac739c208261e212f8c6fdd46fd7ed "12/12 rpcs verified, 7 windows"
shard-rpc/charlotte/2/random         true  dff4ab58652df5af    182000000 b1ac739c208261e212f8c6fdd46fd7ed "12/12 rpcs verified, 7 windows"
shard-rpc/soda/1/fifo                true  33ec47649b0755e9     52800000 72f091518f85e1f78326e72a9c01524e "12/12 rpcs verified, 12 windows"
shard-rpc/soda/1/random              true  33ec47649b0755e9     52800000 72f091518f85e1f78326e72a9c01524e "12/12 rpcs verified, 12 windows"
shard-rpc/soda/2/fifo                true  db3cc18c037b4f8b     61600000 b1ac739c208261e212f8c6fdd46fd7ed "12/12 rpcs verified, 12 windows"
shard-rpc/soda/2/random              true  db3cc18c037b4f8b     61600000 b1ac739c208261e212f8c6fdd46fd7ed "12/12 rpcs verified, 12 windows"
shard-rpc/chrysalis/1/fifo           true  c0b14da5fde08f23      1160000 72f091518f85e1f78326e72a9c01524e "12/12 rpcs verified, 17 windows"
shard-rpc/chrysalis/1/random         true  c0b14da5fde08f23      1160000 72f091518f85e1f78326e72a9c01524e "12/12 rpcs verified, 17 windows"
shard-rpc/chrysalis/2/fifo           true  d5fab22d93add649      1440000 b1ac739c208261e212f8c6fdd46fd7ed "12/12 rpcs verified, 23 windows"
shard-rpc/chrysalis/2/random         true  d5fab22d93add649      1440000 b1ac739c208261e212f8c6fdd46fd7ed "12/12 rpcs verified, 23 windows"
ring-election/charlotte/1/fifo       true  3220a1b7e83f7efb    749025500 d1e8e9905cddd0342d886846d58a8902 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/charlotte/1/random     true  c56f228267969a55    749025500 d1e8e9905cddd0342d886846d58a8902 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/charlotte/2/fifo       true  3220a1b7e83f7efb    749025500 d1e8e9905cddd0342d886846d58a8902 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/charlotte/2/random     true  127c358ba3abaa7b    749025500 d1e8e9905cddd0342d886846d58a8902 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/soda/1/fifo            true  3a219cd81fc3d2d8    365170000 f99d09cc82d1ace9ae88a7f3b24ace44 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/soda/1/random          true  d7b2619c14ad6fe8    365170000 f99d09cc82d1ace9ae88a7f3b24ace44 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/soda/2/fifo            true  fe28d76895a4afb8    365770000 3e8e64212affe493e608d16fb8711c0b "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/soda/2/random          true  0707cfe26cf365b0    365770000 3e8e64212affe493e608d16fb8711c0b "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/chrysalis/1/fifo       true  f9efea829833948a     21718850 8d01c8de3f35305bef71c0def9ab5178 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/chrysalis/1/random     true  d307be56c290369a     21718850 8d01c8de3f35305bef71c0def9ab5178 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/chrysalis/2/fifo       true  f9efea829833948a     21718850 8d01c8de3f35305bef71c0def9ab5178 "leader=3 epoch=1 recovered=true wc=0.000ms"
ring-election/chrysalis/2/random     true  046529a6e8b16906     21718850 8d01c8de3f35305bef71c0def9ab5178 "leader=3 epoch=1 recovered=true wc=0.000ms"
quorum/charlotte/1/fifo              true  02a5be688a680ada    463081000 ba803b42e3e6fff008f45e148ee3017b "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/charlotte/1/random            true  08690cf3ea1feef4    463081000 ba803b42e3e6fff008f45e148ee3017b "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/charlotte/2/fifo              true  02a5be688a680ada    463081000 ba803b42e3e6fff008f45e148ee3017b "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/charlotte/2/random            true  fbe0a8e10828c0da    463081000 ba803b42e3e6fff008f45e148ee3017b "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/soda/1/fifo                   true  03ff8c59b1df623d    221852800 0ce6ef5fc330b49a5d6b05a57d299d52 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/soda/1/random                 true  de2a7a0e0e82f84f    221852800 0ce6ef5fc330b49a5d6b05a57d299d52 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/soda/2/fifo                   true  c07d23411cee77bd    221952800 0ce6ef5fc330b49a5d6b05a57d299d52 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/soda/2/random                 true  fcadc5634ce1a25e    221952800 0ce6ef5fc330b49a5d6b05a57d299d52 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/chrysalis/1/fifo              true  308c98676b3c099b     21415300 ece2d9e8a4f75563b27a71e3d4a7d239 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/chrysalis/1/random            true  02897849512ca14d     21415300 ece2d9e8a4f75563b27a71e3d4a7d239 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/chrysalis/2/fifo              true  308c98676b3c099b     21415300 ece2d9e8a4f75563b27a71e3d4a7d239 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
quorum/chrysalis/2/random            true  ff086fa694519e90     21415300 ece2d9e8a4f75563b27a71e3d4a7d239 "rounds=1 committed=1 unsafe=0 recovered=true wc=0.000ms"
wl-farm/charlotte/1/fifo             true  e08e3817e7d3ec2d    130000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=52.953ms p99=53.440ms"
wl-farm/charlotte/1/random           true  e08e3817e7d3ec2d    130000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=52.953ms p99=53.440ms"
wl-farm/charlotte/2/fifo             true  f75cf6e15d161b55    130000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=52.953ms p99=53.422ms"
wl-farm/charlotte/2/random           true  f75cf6e15d161b55    130000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=52.953ms p99=53.422ms"
wl-farm/soda/1/fifo                  true  292353c4bcb415cf     44000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=14.287ms p99=17.786ms"
wl-farm/soda/1/random                true  292353c4bcb415cf     44000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=14.287ms p99=17.786ms"
wl-farm/soda/2/fifo                  true  c9441b1ddaa2cf79     44000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=13.894ms p99=17.676ms"
wl-farm/soda/2/random                true  c9441b1ddaa2cf79     44000000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=13.894ms p99=17.676ms"
wl-farm/chrysalis/1/fifo             true  0b7284ea95427499     13680000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=0.274ms p99=0.397ms"
wl-farm/chrysalis/1/random           true  0b7284ea95427499     13680000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=0.274ms p99=0.397ms"
wl-farm/chrysalis/2/fifo             true  d830e4132a0d17db     13080000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=0.258ms p99=0.393ms"
wl-farm/chrysalis/2/random           true  d830e4132a0d17db     13080000 6c6f06996df0e915681ae93501b4d4a0 "farm/closed: 24 clients in 3 cells, 48/48 replies, p50=0.258ms p99=0.393ms"
wl-farm-open/charlotte/1/fifo        true  1be9dabf2aa36db3    104000000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=52.953ms p99=53.435ms"
wl-farm-open/charlotte/1/random      true  1be9dabf2aa36db3    104000000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=52.953ms p99=53.435ms"
wl-farm-open/charlotte/2/fifo        true  10188caf33381365    104000000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=52.953ms p99=53.260ms"
wl-farm-open/charlotte/2/random      true  10188caf33381365    104000000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=52.953ms p99=53.260ms"
wl-farm-open/soda/1/fifo             true  c62869b0222efdb9     61600000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=14.680ms p99=17.754ms"
wl-farm-open/soda/1/random           true  c62869b0222efdb9     61600000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=14.680ms p99=17.754ms"
wl-farm-open/soda/2/fifo             true  cca778d331c6bcef     66000000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=14.025ms p99=16.662ms"
wl-farm-open/soda/2/random           true  cca778d331c6bcef     66000000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=14.025ms p99=16.662ms"
wl-farm-open/chrysalis/1/fifo        true  e5320db1da87d4d3     46200000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=0.291ms p99=0.396ms"
wl-farm-open/chrysalis/1/random      true  e5320db1da87d4d3     46200000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=0.291ms p99=0.396ms"
wl-farm-open/chrysalis/2/fifo        true  2051abfa7565000f     48800000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=0.266ms p99=0.357ms"
wl-farm-open/chrysalis/2/random      true  2051abfa7565000f     48800000 7258c6423a7ffc4a8bb3abaa0cd2b4cc "farm/open: 24 clients in 3 cells, 24/24 replies, p50=0.266ms p99=0.357ms"
wl-ring/charlotte/1/fifo             true  1f2ab96e7861cef9    234000000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=106.955ms p99=108.240ms"
wl-ring/charlotte/1/random           true  1f2ab96e7861cef9    234000000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=106.955ms p99=108.240ms"
wl-ring/charlotte/2/fifo             true  f7eb30416c190598    234000000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=106.955ms p99=108.308ms"
wl-ring/charlotte/2/random           true  f7eb30416c190598    234000000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=106.955ms p99=108.308ms"
wl-ring/soda/1/fifo                  true  df3cffb214340bc7     92400000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=35.127ms p99=44.058ms"
wl-ring/soda/1/random                true  df3cffb214340bc7     92400000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=35.127ms p99=44.058ms"
wl-ring/soda/2/fifo                  true  fadf1f8d6cdd5589     83600000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=32.768ms p99=44.479ms"
wl-ring/soda/2/random                true  fadf1f8d6cdd5589     83600000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=32.768ms p99=44.479ms"
wl-ring/chrysalis/1/fifo             true  fa7c22359eb74588     14480000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=0.770ms p99=1.093ms"
wl-ring/chrysalis/1/random           true  fa7c22359eb74588     14480000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=0.770ms p99=1.093ms"
wl-ring/chrysalis/2/fifo             true  f1cf17afa6084113     14000000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=0.696ms p99=1.108ms"
wl-ring/chrysalis/2/random           true  f1cf17afa6084113     14000000 6c6f06996df0e915681ae93501b4d4a0 "ring/closed: 24 clients in 3 cells, 48/48 replies, p50=0.696ms p99=1.108ms"
wl-tree/charlotte/1/fifo             true  2aad852eaa77a822    910000000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=423.625ms p99=473.412ms"
wl-tree/charlotte/1/random           true  2aad852eaa77a822    910000000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=423.625ms p99=473.412ms"
wl-tree/charlotte/2/fifo             true  c0a33e5f0ec3de57    910000000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=419.430ms p99=470.962ms"
wl-tree/charlotte/2/random           true  c0a33e5f0ec3de57    910000000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=419.430ms p99=470.962ms"
wl-tree/soda/1/fifo                  true  cd01404645135f34    246400000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=110.100ms p99=130.352ms"
wl-tree/soda/1/random                true  cd01404645135f34    246400000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=110.100ms p99=130.352ms"
wl-tree/soda/2/fifo                  true  12b219790f53c000    242000000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=106.955ms p99=121.745ms"
wl-tree/soda/2/random                true  12b219790f53c000    242000000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=106.955ms p99=121.745ms"
wl-tree/chrysalis/1/fifo             true  e9bd8485567d1b3d     14400000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=0.721ms p99=1.463ms"
wl-tree/chrysalis/1/random           true  e9bd8485567d1b3d     14400000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=0.721ms p99=1.463ms"
wl-tree/chrysalis/2/fifo             true  e3c36590f4d4ce82     15040000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=0.606ms p99=1.021ms"
wl-tree/chrysalis/2/random           true  e3c36590f4d4ce82     15040000 6c6f06996df0e915681ae93501b4d4a0 "tree/closed: 24 clients in 3 cells, 48/48 replies, p50=0.606ms p99=1.021ms"
hint-repair/soda/1/fifo              true  effae7b03cb45d3e    242498350 e1a11c74aeb1e6ef7d80071bf70cd91e "loss=0.05 repaired=true in 242.498ms"
hint-repair/soda/1/random            true  f312c0c608cb860a    242498350 e1a11c74aeb1e6ef7d80071bf70cd91e "loss=0.05 repaired=true in 242.498ms"
hint-repair/soda/2/fifo              true  1c1269c9a4052116    242398350 5100172291df0a92d7f480a876618d9e "loss=0.05 repaired=true in 242.398ms"
hint-repair/soda/2/random            true  09f6211bd85ac3ac    242398350 5100172291df0a92d7f480a876618d9e "loss=0.05 repaired=true in 242.398ms"
pair-pressure/soda/1/fifo            true  f7ff934f1c7877bb   2000000000 b8710bfc3f789fbffbc08bda5b89da27 "budget=true completed=6/6"
pair-pressure/soda/1/random          true  dc7a1e9007782226   2000000000 c1adea5931011820fd230ded55a836f0 "budget=true completed=6/6"
pair-pressure/soda/2/fifo            true  121cd0fa8a731fca   2000000000 b6d45f0049abd8683a8aa5ab0c3bcd5c "budget=true completed=6/6"
pair-pressure/soda/2/random          true  ece5283bd3192b5c   2000000000 b6d45f0049abd8683a8aa5ab0c3bcd5c "budget=true completed=6/6"
|}

let counters_md5 (a : A.t) =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d\n" k v) a.A.counters)))

let explore_digest_row (a : A.t) =
  Printf.sprintf "%-36s %-5b %016Lx %12d %s %S\n" (Spec.to_string a.A.spec)
    a.A.ok a.A.events_hash
    (Sim.Time.to_ns a.A.duration)
    (counters_md5 a) a.A.detail

let test_golden_explore () =
  let results = sweep ~seeds:[ 1; 2 ] ~policies:[ Spec.Fifo; Spec.Random ] () in
  Alcotest.(check string)
    "explore summary unchanged" golden_explore_summary (A.summary results);
  Alcotest.(check string)
    "explore digest unchanged" golden_explore_digest
    (String.concat "" (List.map explore_digest_row results))

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
    A.races_report ~backend ~scenarios:S.names
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
    sweep
      ~scenarios:[ "move"; "cross-request" ]
      ~seeds:[ 2 ]
      ~plans:[ Some Spec.Duplicate; Some Spec.Mix ]
      ()
  in
  Alcotest.(check string) "chaos table unchanged" golden_chaos_table
    (A.table results)

(* [events_hash] folds time, fiber and kind tag only, so no fingerprint
   above sees a vector clock.  This golden does: one row per run of the
   two scenarios with the widest clocks, on every backend, clean and
   under [@mix] and their targeted plans — the event count, an MD5 of
   every retained event's [Event.describe] line (clock included), and
   the race findings the clocks decide.  Captured before the clock
   representation changed; it must stay byte-identical. *)
let golden_clock_digest =
  "ring-election/charlotte/1/fifo                  521 a6a11b4b41776a97d66be06938a16fb4 clean\n\
   ring-election/charlotte/1/fifo@mix              572 c8087a8e8e70da15f3c1104fef97224e clean\n\
   ring-election/charlotte/1/fifo@leader-crash     716 0ce1fef6217efac68580181b06780d34 clean\n\
   ring-election/charlotte/2/fifo                  521 a6a11b4b41776a97d66be06938a16fb4 clean\n\
   ring-election/charlotte/2/fifo@mix              572 bf736bd134b949ddb3cb27d1f918f79f clean\n\
   ring-election/charlotte/2/fifo@leader-crash     716 0ce1fef6217efac68580181b06780d34 clean\n\
   ring-election/soda/1/fifo                       584 4958181a4b6f64dcb79b420cb0103d83 clean\n\
   ring-election/soda/1/fifo@mix                   659 602f5522bbe1831b7d33f3e73f9cf183 clean\n\
   ring-election/soda/1/fifo@leader-crash          793 3c3ed694543820c5b79780cdbf54b2ae clean\n\
   ring-election/soda/2/fifo                       584 bd58ca1adf312c190653cb0ea3de8fe0 clean\n\
   ring-election/soda/2/fifo@mix                   661 e84f36516b09365fa9e5596eb7c8e135 clean\n\
   ring-election/soda/2/fifo@leader-crash          793 06c01984a249df256d42b67596c05f9e clean\n\
   ring-election/chrysalis/1/fifo                 1067 406f28386857a7ff34c19a4c8898f5a0 clean\n\
   ring-election/chrysalis/1/fifo@mix             1132 92b7e49f6009dec1e1197b97176591ba clean\n\
   ring-election/chrysalis/1/fifo@leader-crash    2616 4f12de4f12fe5941bc79e17479e3d43a clean\n\
   ring-election/chrysalis/2/fifo                 1067 406f28386857a7ff34c19a4c8898f5a0 clean\n\
   ring-election/chrysalis/2/fifo@mix             1128 5f4fa1d575cac422557832323ab4b47f clean\n\
   ring-election/chrysalis/2/fifo@leader-crash    2616 4f12de4f12fe5941bc79e17479e3d43a clean\n\
   quorum/charlotte/1/fifo                         318 be40bd7fd2bbfd874e03419cab912c0e clean\n\
   quorum/charlotte/1/fifo@mix                     350 e41389809b218eacb2d4a62e1b39fcca clean\n\
   quorum/charlotte/1/fifo@partition-minority      775 2165d72487523c3939f08b4e7cf63b57 clean\n\
   quorum/charlotte/1/fifo@partition-majority     1061 d35b15b3d786b260fd37fdbf82bf9944 clean\n\
   quorum/charlotte/2/fifo                         318 be40bd7fd2bbfd874e03419cab912c0e clean\n\
   quorum/charlotte/2/fifo@mix                     345 206d7b88addd04593a2ef74d16527c7e clean\n\
   quorum/charlotte/2/fifo@partition-minority      775 2165d72487523c3939f08b4e7cf63b57 clean\n\
   quorum/charlotte/2/fifo@partition-majority     1061 d35b15b3d786b260fd37fdbf82bf9944 clean\n\
   quorum/soda/1/fifo                              361 8dfe607841ac73b3214fecec5708d67c clean\n\
   quorum/soda/1/fifo@mix                          408 bef537272a0d788dc22e2eb992918694 clean\n\
   quorum/soda/1/fifo@partition-minority          5099 6d15b66f561b55e7fddaa41485673272 clean\n\
   quorum/soda/1/fifo@partition-majority          6746 c99fb39ef8b2d3f21d1e2dc644434a5b clean\n\
   quorum/soda/2/fifo                              361 094844928373db2d0dba802ec33b9d88 clean\n\
   quorum/soda/2/fifo@mix                          406 7042c1d24b8da6b02ea1ad48dca49e76 clean\n\
   quorum/soda/2/fifo@partition-minority          5100 1d0831622ffd5b901f8b8915040e232c clean\n\
   quorum/soda/2/fifo@partition-majority          6747 6f2be436ba993a8f759a0eb03aa68a34 clean\n\
   quorum/chrysalis/1/fifo                         692 1f1d36c9684af17ff4f049a10ab78fe4 clean\n\
   quorum/chrysalis/1/fifo@mix                     720 c83f908def036856ebc60448331ccd47 clean\n\
   quorum/chrysalis/1/fifo@partition-minority     5956 f918c61a024f7f9a680a86b6698b041f clean\n\
   quorum/chrysalis/1/fifo@partition-majority     5956 f918c61a024f7f9a680a86b6698b041f clean\n\
   quorum/chrysalis/2/fifo                         692 1f1d36c9684af17ff4f049a10ab78fe4 clean\n\
   quorum/chrysalis/2/fifo@mix                     707 c46745353ce5a44be0b22427d6211fec clean\n\
   quorum/chrysalis/2/fifo@partition-minority     5956 f918c61a024f7f9a680a86b6698b041f clean\n\
   quorum/chrysalis/2/fifo@partition-majority     5956 f918c61a024f7f9a680a86b6698b041f clean\n"

(* The event count, MD5 of every retained [Event.describe] line and
   race findings of one fully retained run, and its artifact. *)
let clock_digest spec =
  let name = Spec.to_string spec in
  match R.execute_full spec with
  | Some (Some o, a) ->
    let v = o.S.o_view in
    if v.Sim.Engine.v_events_dropped > 0 then
      Alcotest.failf "%s: log not fully retained" name;
    let b = Buffer.create 4096 in
    Array.iter
      (fun ev ->
        Buffer.add_string b (Sim.Event.describe ev);
        Buffer.add_char b '\n')
      v.Sim.Engine.v_events;
    let races =
      match a.A.races with
      | [] -> "clean"
      | fs ->
        String.concat "; "
          (List.map (Format.asprintf "%a" Analysis.Races.pp_finding) fs)
    in
    ( Printf.sprintf "%6d %s %s"
        (Array.length v.Sim.Engine.v_events)
        (Digest.to_hex (Digest.string (Buffer.contents b)))
        races,
      a )
  | _ -> Alcotest.failf "%s: no engine view" name

let clock_digest_row spec =
  Printf.sprintf "%-44s %s\n" (Spec.to_string spec) (fst (clock_digest spec))

(* MD5 of an artifact's counters rendered as [name=value] lines. *)
let test_golden_clock_digest () =
  let specs =
    List.concat_map
      (fun (scenario, targeted) ->
        Spec.product ~scenarios:[ scenario ] ~seeds:[ 1; 2 ]
          ~plans:(None :: Some Spec.Mix :: List.map Option.some targeted)
          ())
      [
        ("ring-election", [ Spec.Leader_crash ]);
        ("quorum", [ Spec.Partition_minority; Spec.Partition_majority ]);
      ]
  in
  Alcotest.(check string)
    "clock and race digest unchanged" golden_clock_digest
    (String.concat "" (List.map clock_digest_row specs))

(* The same digest for every scenario built on [Sim.Shard], with the
   events hash and the counter MD5 beside it: the node programs are the
   only code these runs share with no other golden, and their vector
   clocks are pinned nowhere else.  The [~s4] rows must equal the [~s1]
   ones. *)
let golden_shard_clock_digest =
  "wl-farm/charlotte/1/fifo~n1K         e8cc66870f30ce06  15125 83788a00851bbcb43b70f3913f8b79d0 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-farm/charlotte/2/fifo~n1K         0db92a679394809b  15125 8f4d9ef51db7b934ad2b5a95d838cdc8 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-farm/soda/1/fifo~n1K              e4a1211474874351  15125 f8c88e13149747d8a182e3ffc5749a49 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-farm/soda/2/fifo~n1K              00937b19752be465  15125 b67cc6fd2e7a4a94991ad7dca9a42e58 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-farm/chrysalis/1/fifo~n1K         0f253cd1e5790357  15125 a1075579fb1f57af4938104c2c70fefa clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-farm/chrysalis/2/fifo~n1K         e8969e21378fdceb  15125 279ed7b9cbcec74582942e29fedeaac6 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-farm-open/charlotte/1/fifo~n1K    f19320794f151f8d   8125 3040627345bff92930ef60368ff759a7 clean 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/charlotte/2/fifo~n1K    290a58427671701a   8125 03446475c707e07758aebce6716795a3 clean 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/soda/1/fifo~n1K         295679f5d5cbde2f   8125 8ec04f64b7839857b204ff7b4e01b8be clean 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/soda/2/fifo~n1K         d50b79c33f4db511   8125 d546fc956d16789df69ed64e29f0ae41 clean 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/chrysalis/1/fifo~n1K    06311397582d3cf5   8125 409639e88aa9e07707ad67b765878b05 clean 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/chrysalis/2/fifo~n1K    269a30cdf0558aa4   8125 78a3189f6f136443f991eee7e1bcf4d0 clean 892f0134e37869ac315c9dd20b7a8128\n\
   wl-ring/charlotte/1/fifo~n1K         0150f7f09e81d161  27500 517f53e4b55ce66e071f013e168ee725 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-ring/charlotte/2/fifo~n1K         ccef44e3f660f45c  27500 5a2e3f97b6b5f70ab6bea35b5be87821 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-ring/soda/1/fifo~n1K              d21bbbf4dbe7906c  27500 9cf7502271d6b851476ff9e42471129d clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-ring/soda/2/fifo~n1K              c8372ba2eff94181  27500 7bc22fed2d26d68ce99bc42ee41a6d49 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-ring/chrysalis/1/fifo~n1K         0bf8779ecaaa41bf  27500 3fa842a27e48082fac50dd8c6d2a44cb clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-ring/chrysalis/2/fifo~n1K         d04aed54b6d29182  27500 033d263fcc647c55e1df429c883c06be clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-tree/charlotte/1/fifo~n1K         2a18965732617354  57625 76b48c4d06d045c19eaf25db4a2ed8b1 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-tree/charlotte/2/fifo~n1K         15a9bb51703e66b6  57625 8ddd565ee848561a263e1b188de292e4 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-tree/soda/1/fifo~n1K              35a5260339fb7e39  57625 d816cbdab13bc0817c788deeea787dbf clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-tree/soda/2/fifo~n1K              31d255a8a9419502  57625 1cb354ca6b7ea09921749a89b1f16f4a clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-tree/chrysalis/1/fifo~n1K         37e22b666261bf14  57625 bb2075f6be0b4c3c76d0ef6dfadab47f clean 5b96e094f9000ae80d75294ef05aabe0\n\
   wl-tree/chrysalis/2/fifo~n1K         f3d2d0dbf38c842e  57625 22f45dccea6bffd12fef5ebf07e9ce49 clean 5b96e094f9000ae80d75294ef05aabe0\n\
   shard-rpc/charlotte/1/fifo           f05b73b39e49079f     80 2c8077eb7e781035757c29cc532eb254 clean 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/charlotte/2/fifo           dff4ab58652df5af     80 e5d5a59cc82ede07545f7f69ed9cf296 clean b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/soda/1/fifo                33ec47649b0755e9     80 134471e1ea01e85a0fe1cfe172292f16 clean 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/soda/2/fifo                db3cc18c037b4f8b     80 11f6f3478d04ece8cb10359abe827bf5 clean b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/chrysalis/1/fifo           c0b14da5fde08f23     80 87e52fb98c397f3c17d7f16a6a2999ae clean 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/chrysalis/2/fifo           d5fab22d93add649     80 16fe23382ea017bccacf449da2a2495d clean b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/charlotte/1/fifo~s4        f05b73b39e49079f     80 2c8077eb7e781035757c29cc532eb254 clean 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/charlotte/2/fifo~s4        dff4ab58652df5af     80 e5d5a59cc82ede07545f7f69ed9cf296 clean b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/soda/1/fifo~s4             33ec47649b0755e9     80 134471e1ea01e85a0fe1cfe172292f16 clean 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/soda/2/fifo~s4             db3cc18c037b4f8b     80 11f6f3478d04ece8cb10359abe827bf5 clean b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/chrysalis/1/fifo~s4        c0b14da5fde08f23     80 87e52fb98c397f3c17d7f16a6a2999ae clean 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/chrysalis/2/fifo~s4        d5fab22d93add649     80 16fe23382ea017bccacf449da2a2495d clean b1ac739c208261e212f8c6fdd46fd7ed\n"

let test_golden_shard_clock_digest () =
  let specs =
    Spec.product
      ~scenarios:[ "wl-farm"; "wl-farm-open"; "wl-ring"; "wl-tree" ]
      ~seeds:[ 1; 2 ] ~population:1000 ()
    @ List.concat_map
        (fun shards ->
          Spec.product ~scenarios:[ "shard-rpc" ] ~seeds:[ 1; 2 ] ~shards ())
        [ 1; 4 ]
  in
  let row spec =
    let digest, a = clock_digest spec in
    Printf.sprintf "%-36s %016Lx %s %s\n" (Spec.to_string spec)
      a.A.events_hash digest (counters_md5 a)
  in
  Alcotest.(check string)
    "shard clock and race digest unchanged" golden_shard_clock_digest
    (String.concat "" (Parallel.Pool.map_list ~jobs:2 row specs))

(* [events_hash] folds no counters either.  This golden pins them: one
   row per run, an MD5 of the artifact's [counters] list rendered as
   [name=value] lines, over the vignettes, ring-election and quorum on
   every backend (clean, [@mix] and the targeted plans), shard-rpc and
   a small open-loop farm.  Captured before counters became interned
   keys; it must stay byte-identical. *)
let golden_counter_digest =
  "move/charlotte/1/fifo                         25 c904a2b76742ddb8704fa9225785b8ef\n\
   move/charlotte/1/fifo@mix                     31 10f885ed11ff4e612cb2ccc63bdc9972\n\
   move/charlotte/2/fifo                         25 c904a2b76742ddb8704fa9225785b8ef\n\
   move/charlotte/2/fifo@mix                     30 873fd1a16c911dcf39e1ed0dc03b96ec\n\
   move/soda/1/fifo                              23 2e58ac34862070f485e21922d5c51e21\n\
   move/soda/1/fifo@mix                          31 9f3e4e7cf8478772b20dd7c084225100\n\
   move/soda/2/fifo                              23 2e58ac34862070f485e21922d5c51e21\n\
   move/soda/2/fifo@mix                          30 44b2c5a1ae1cefad1e4b1ab122a8c7ee\n\
   move/chrysalis/1/fifo                         21 e332dde71bd5911de25b7d37efb133ad\n\
   move/chrysalis/1/fifo@mix                     28 811225608ccb9046286d29dcc386c8ba\n\
   move/chrysalis/2/fifo                         21 e332dde71bd5911de25b7d37efb133ad\n\
   move/chrysalis/2/fifo@mix                     29 dd048913a0166078b95082086f682f52\n\
   enclosures/charlotte/1/fifo                   28 609cf162ba3b898e295f1fea664960b8\n\
   enclosures/charlotte/1/fifo@mix               33 9b5897661685b9ecda0b35136326988f\n\
   enclosures/charlotte/2/fifo                   28 609cf162ba3b898e295f1fea664960b8\n\
   enclosures/charlotte/2/fifo@mix               30 c9eb66c680603744a306f5c00ef00113\n\
   enclosures/soda/1/fifo                        22 6c1ef4d73787f4cefa58311286a7dcb7\n\
   enclosures/soda/1/fifo@mix                    28 ccb29558875a6c55440f4b9d66dcb214\n\
   enclosures/soda/2/fifo                        22 6c1ef4d73787f4cefa58311286a7dcb7\n\
   enclosures/soda/2/fifo@mix                    26 b00df3f664ca083a900922a234cd8468\n\
   enclosures/chrysalis/1/fifo                   23 f92493faff2fbfe97fa9d828706a591a\n\
   enclosures/chrysalis/1/fifo@mix               30 3193b93bb1e184ff7bb46d51dc4f2eaf\n\
   enclosures/chrysalis/2/fifo                   23 f92493faff2fbfe97fa9d828706a591a\n\
   enclosures/chrysalis/2/fifo@mix               29 0e09698ed5aa03900092527e06b87b05\n\
   cross-request/charlotte/1/fifo                27 f5b47a33fb4e75795e02c788d4ba0699\n\
   cross-request/charlotte/1/fifo@mix            40 357a87fd8abab72ba46ae9a399b626a8\n\
   cross-request/charlotte/2/fifo                27 f5b47a33fb4e75795e02c788d4ba0699\n\
   cross-request/charlotte/2/fifo@mix            40 9d34e779ee448039fc46afbcd2d96d65\n\
   cross-request/soda/1/fifo                     17 6443509fdf41b3ccd0522dfd014575f1\n\
   cross-request/soda/1/fifo@mix                 21 b6880530cf80b72f61e82583579605e1\n\
   cross-request/soda/2/fifo                     17 6443509fdf41b3ccd0522dfd014575f1\n\
   cross-request/soda/2/fifo@mix                 21 e1c2b7b6fe096ccb6bec8dd1edc9f581\n\
   cross-request/chrysalis/1/fifo                17 d6d4c8ef59574dd02698b1eb9d483a23\n\
   cross-request/chrysalis/1/fifo@mix            21 dd02dd262051cc816fb4dfb0fd859266\n\
   cross-request/chrysalis/2/fifo                17 d6d4c8ef59574dd02698b1eb9d483a23\n\
   cross-request/chrysalis/2/fifo@mix            21 b2ba91a49d7c785b0018aa5d388f19a2\n\
   open-close/charlotte/1/fifo                   25 85fd46441a34f3748a6aff6c4fd622d6\n\
   open-close/charlotte/1/fifo@mix               35 cd2166654f1b283dd4358e71a02af9b4\n\
   open-close/charlotte/2/fifo                   25 85fd46441a34f3748a6aff6c4fd622d6\n\
   open-close/charlotte/2/fifo@mix               33 fafb8ce8d34fe2cf8428d1af03378494\n\
   open-close/soda/1/fifo                        16 aade5a4dcaa954436d7dd491846b616d\n\
   open-close/soda/1/fifo@mix                    22 9134f72ae829ec359b853b8fc581269b\n\
   open-close/soda/2/fifo                        16 aade5a4dcaa954436d7dd491846b616d\n\
   open-close/soda/2/fifo@mix                    21 40609ce35ac2a1dd975ce493974d4d52\n\
   open-close/chrysalis/1/fifo                   16 289025bc8f4f2ade1b78fae6cec37183\n\
   open-close/chrysalis/1/fifo@mix               24 65d549d9b6738d8fbb286ceaaa2b85ed\n\
   open-close/chrysalis/2/fifo                   16 289025bc8f4f2ade1b78fae6cec37183\n\
   open-close/chrysalis/2/fifo@mix               22 75623181d41e0f3c808a717cc417bd7d\n\
   lost-enclosure/charlotte/1/fifo               25 57b5534134fde100e48dcc6674542aa7\n\
   lost-enclosure/charlotte/1/fifo@mix           28 3d1ff350ab7b4e22f4db10e7ea23b5a1\n\
   lost-enclosure/charlotte/2/fifo               25 57b5534134fde100e48dcc6674542aa7\n\
   lost-enclosure/charlotte/2/fifo@mix           27 8ce7454e274ca029229e6665e0c2f759\n\
   lost-enclosure/soda/1/fifo                    20 a08d40bccdd9587f96a93a06916b4b42\n\
   lost-enclosure/soda/1/fifo@mix                27 be11b5ec7f48d0c3eefae15e895cbe67\n\
   lost-enclosure/soda/2/fifo                    20 a08d40bccdd9587f96a93a06916b4b42\n\
   lost-enclosure/soda/2/fifo@mix                25 f7ff270fdb335dc44ab8ea6b3035405e\n\
   lost-enclosure/chrysalis/1/fifo               22 577b17116a7bb0649a3ba19f23fa7fb6\n\
   lost-enclosure/chrysalis/1/fifo@mix           30 7927079bce835d22ae821c0bb627beb9\n\
   lost-enclosure/chrysalis/2/fifo               22 577b17116a7bb0649a3ba19f23fa7fb6\n\
   lost-enclosure/chrysalis/2/fifo@mix           30 0593736508a7a7dc9761b4c2db637e50\n\
   bounced-enclosure/charlotte/1/fifo            32 57a674ffa7409554040c0c212b059f92\n\
   bounced-enclosure/charlotte/1/fifo@mix        37 ce89261861227ff39ab715ed7d15fbe9\n\
   bounced-enclosure/charlotte/2/fifo            32 57a674ffa7409554040c0c212b059f92\n\
   bounced-enclosure/charlotte/2/fifo@mix        36 7798863693dfa9ca2a7b116c7c264d26\n\
   bounced-enclosure/soda/1/fifo                 24 477dcb030cf2ed199505a31951fa73eb\n\
   bounced-enclosure/soda/1/fifo@mix             32 27c6dd04934e1ca2b8594c4b31bfc07e\n\
   bounced-enclosure/soda/2/fifo                 24 477dcb030cf2ed199505a31951fa73eb\n\
   bounced-enclosure/soda/2/fifo@mix             31 a2884dda0e3056783403ee0b305c494d\n\
   bounced-enclosure/chrysalis/1/fifo            25 e5404af10e9e7bd7af7373e40936fe08\n\
   bounced-enclosure/chrysalis/1/fifo@mix        33 99323b6560e81f1a4fc952cfe3fcbdb8\n\
   bounced-enclosure/chrysalis/2/fifo            25 e5404af10e9e7bd7af7373e40936fe08\n\
   bounced-enclosure/chrysalis/2/fifo@mix        32 e0b0cd8281181d2139f81094f837447b\n\
   shard-rpc/charlotte/1/fifo                     3 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/charlotte/1/fifo@mix                 3 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/charlotte/2/fifo                     3 b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/charlotte/2/fifo@mix                 3 b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/soda/1/fifo                          3 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/soda/1/fifo@mix                      3 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/soda/2/fifo                          3 b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/soda/2/fifo@mix                      3 b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/chrysalis/1/fifo                     3 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/chrysalis/1/fifo@mix                 3 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/chrysalis/2/fifo                     3 b1ac739c208261e212f8c6fdd46fd7ed\n\
   shard-rpc/chrysalis/2/fifo@mix                 3 b1ac739c208261e212f8c6fdd46fd7ed\n\
   ring-election/charlotte/1/fifo                26 d1e8e9905cddd0342d886846d58a8902\n\
   ring-election/charlotte/1/fifo@mix            34 f9cfac9a1c89b9e4fd452aca07dae96a\n\
   ring-election/charlotte/1/fifo@leader-crash   38 4837ac3d592f48036657a485d9109db8\n\
   ring-election/charlotte/2/fifo                26 d1e8e9905cddd0342d886846d58a8902\n\
   ring-election/charlotte/2/fifo@mix            34 c8f886b8b5841a7ae101204612ca268c\n\
   ring-election/charlotte/2/fifo@leader-crash   38 4837ac3d592f48036657a485d9109db8\n\
   ring-election/soda/1/fifo                     23 f99d09cc82d1ace9ae88a7f3b24ace44\n\
   ring-election/soda/1/fifo@mix                 33 0330275107925828670f93c45926d7d3\n\
   ring-election/soda/1/fifo@leader-crash        31 f99e48da06c6f4691a09c2bb7c05cf9c\n\
   ring-election/soda/2/fifo                     23 3e8e64212affe493e608d16fb8711c0b\n\
   ring-election/soda/2/fifo@mix                 34 1fe8437f398c8e008ab31ab2069f9db5\n\
   ring-election/soda/2/fifo@leader-crash        31 1e7be6166194c9f28d4eba76c328fa89\n\
   ring-election/chrysalis/1/fifo                23 8d01c8de3f35305bef71c0def9ab5178\n\
   ring-election/chrysalis/1/fifo@mix            31 988d3eec9aa36eab481f921f82ae06d1\n\
   ring-election/chrysalis/1/fifo@leader-crash   31 643b6ed395f609f02cc04d7fd791327f\n\
   ring-election/chrysalis/2/fifo                23 8d01c8de3f35305bef71c0def9ab5178\n\
   ring-election/chrysalis/2/fifo@mix            33 87155f881e19728737d0d5f9af8a7ed2\n\
   ring-election/chrysalis/2/fifo@leader-crash   31 643b6ed395f609f02cc04d7fd791327f\n\
   quorum/charlotte/1/fifo                       23 ba803b42e3e6fff008f45e148ee3017b\n\
   quorum/charlotte/1/fifo@mix                   28 988bc962a6b24b495af69ba4393d2941\n\
   quorum/charlotte/1/fifo@partition-minority    24 3335f50d1667a55bcf7ad5e2a32b013e\n\
   quorum/charlotte/1/fifo@partition-majority    24 a858d13bd284c8ec2a98ea32c1bb6fd4\n\
   quorum/charlotte/2/fifo                       23 ba803b42e3e6fff008f45e148ee3017b\n\
   quorum/charlotte/2/fifo@mix                   30 c3c473e9d51a7378e6aea7cf07c32b43\n\
   quorum/charlotte/2/fifo@partition-minority    24 3335f50d1667a55bcf7ad5e2a32b013e\n\
   quorum/charlotte/2/fifo@partition-majority    24 a858d13bd284c8ec2a98ea32c1bb6fd4\n\
   quorum/soda/1/fifo                            21 0ce6ef5fc330b49a5d6b05a57d299d52\n\
   quorum/soda/1/fifo@mix                        29 a4eb596a2f5cc92999ecd40a500a22e1\n\
   quorum/soda/1/fifo@partition-minority         22 12e89df99310581ccbf34ada7e926f60\n\
   quorum/soda/1/fifo@partition-majority         22 fe4c31c20610751e2ef1a8a9f90781c6\n\
   quorum/soda/2/fifo                            21 0ce6ef5fc330b49a5d6b05a57d299d52\n\
   quorum/soda/2/fifo@mix                        31 fffb2f2a42035837ce892b70ad95392f\n\
   quorum/soda/2/fifo@partition-minority         22 948054f05bf9e8d6265c9ce02863f977\n\
   quorum/soda/2/fifo@partition-majority         22 9f30929b455a013231e0ecb931ea6d72\n\
   quorum/chrysalis/1/fifo                       21 ece2d9e8a4f75563b27a71e3d4a7d239\n\
   quorum/chrysalis/1/fifo@mix                   27 3730dfabb7214d0d474237e175c53c47\n\
   quorum/chrysalis/1/fifo@partition-minority    21 2be928c74f620c6cfae2d76d1339d59f\n\
   quorum/chrysalis/1/fifo@partition-majority    21 2be928c74f620c6cfae2d76d1339d59f\n\
   quorum/chrysalis/2/fifo                       21 ece2d9e8a4f75563b27a71e3d4a7d239\n\
   quorum/chrysalis/2/fifo@mix                   29 c7d31f6fb861cc66d435d3d5a0785c2b\n\
   quorum/chrysalis/2/fifo@partition-minority    21 2be928c74f620c6cfae2d76d1339d59f\n\
   quorum/chrysalis/2/fifo@partition-majority    21 2be928c74f620c6cfae2d76d1339d59f\n\
   wl-farm-open/charlotte/1/fifo~n1K              3 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/charlotte/2/fifo~n1K              3 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/soda/1/fifo~n1K                   3 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/soda/2/fifo~n1K                   3 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/chrysalis/1/fifo~n1K              3 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/chrysalis/2/fifo~n1K              3 892f0134e37869ac315c9dd20b7a8128\n\
   shard-rpc/charlotte/1/fifo~s2                  3 72f091518f85e1f78326e72a9c01524e\n\
   shard-rpc/charlotte/2/fifo~s2                  3 b1ac739c208261e212f8c6fdd46fd7ed\n\
   wl-farm-open/charlotte/1/fifo~n1K~s2           3 892f0134e37869ac315c9dd20b7a8128\n\
   wl-farm-open/charlotte/2/fifo~n1K~s2           3 892f0134e37869ac315c9dd20b7a8128\n"

let counter_digest_specs =
  let vignettes =
    [
      "move";
      "enclosures";
      "cross-request";
      "open-close";
      "lost-enclosure";
      "bounced-enclosure";
    ]
  in
  List.concat_map
    (fun (scenario, targeted) ->
      Spec.product ~scenarios:[ scenario ] ~seeds:[ 1; 2 ]
        ~plans:(None :: Some Spec.Mix :: List.map Option.some targeted)
        ())
    (List.map (fun sc -> (sc, [])) (vignettes @ [ "shard-rpc" ])
    @ [
        ("ring-election", [ Spec.Leader_crash ]);
        ("quorum", [ Spec.Partition_minority; Spec.Partition_majority ]);
      ])
  @ Spec.product ~scenarios:[ "wl-farm-open" ] ~seeds:[ 1; 2 ] ~population:1000
      ()
  (* Two shards sum two counter blocks into one list. *)
  @ Spec.product ~scenarios:[ "shard-rpc" ] ~backends:[ "charlotte" ]
      ~seeds:[ 1; 2 ] ~shards:2 ()
  @ Spec.product ~scenarios:[ "wl-farm-open" ] ~backends:[ "charlotte" ]
      ~seeds:[ 1; 2 ] ~population:1000 ~shards:2 ()

let counter_digest_row spec a =
  let name = Spec.to_string spec in
  match a with
  | None -> Printf.sprintf "%-44s n/a\n" name
  | Some a ->
    Printf.sprintf "%-44s %3d %s\n" name (List.length a.A.counters)
      (counters_md5 a)

let test_golden_counter_digest () =
  let specs = counter_digest_specs in
  Alcotest.(check string)
    "counter digest unchanged" golden_counter_digest
    (String.concat ""
       (List.map2 counter_digest_row specs (R.execute_many ~jobs:2 specs)))

let () =
  Alcotest.run "run"
    [
      ( "spec",
        [
          test_roundtrip;
          Alcotest.test_case "parse forms" `Quick test_parse_forms;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "product" `Quick test_product;
          test_mutations_never_raise;
        ] );
      ("registry", [ Alcotest.test_case "registry" `Quick test_registry ]);
      ( "execute",
        [
          Alcotest.test_case "product + execute_many = execute" `Quick
            test_product_matches_execute;
          Alcotest.test_case "failed follows the plan" `Quick test_failed;
          Alcotest.test_case "faulted determinism" `Quick
            test_faulted_execute_deterministic;
          Alcotest.test_case "pool order" `Quick test_execute_many_order;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "json bytes" `Quick test_json_bytes;
          Alcotest.test_case "static json bytes" `Quick test_static_json_bytes;
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
          Alcotest.test_case "clock and race digest" `Slow
            test_golden_clock_digest;
          Alcotest.test_case "shard clock and race digest" `Slow
            test_golden_shard_clock_digest;
          Alcotest.test_case "counter digest" `Slow
            test_golden_counter_digest;
        ] );
    ]
