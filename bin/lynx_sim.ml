(* lynx_sim — command-line front end for the LYNX reproduction.

   Subcommands:
     claims    measure the paper's figures and check each one
     explore   scenario x backend x seed x policy sweep with invariants
     chaos     the same sweep under fault plans
     lint      static protocol linter
     static    may-race / may-deadlock prediction, soundness-gated sweep
     races     happens-before race detector replay
     workload  population-scale topologies with latency percentiles
     repro     re-run any spec string and dump its full artifact
     backends  list available backends

   Every sweep row is identified by a run spec
   "scenario/backend/seed/policy[@plan]" (see lib/run): `repro` accepts
   exactly that string from any table, log or CI failure, and --json on
   explore/chaos/races/static emits the judged artifacts machine-readably.
   Every sweep is a Run.Spec.product run by Run.execute_many and rendered
   from the artifacts; the explore, chaos and races sweeps additionally
   cross-check every dynamic race finding against the static prediction
   set (a gap fails the run — see lib/run/soundness.mli). *)

open Cmdliner
module BW = Harness.Backend_world
module S = Harness.Scenarios

(* A flag value looked up by name in a registry. *)
let named_conv what find name =
  let parse s =
    match find s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name v))

let backend_conv = named_conv "backend" BW.find BW.name

let backend_arg =
  let doc =
    "Backend: charlotte, soda or chrysalis, or an ablation variant \
     (charlotte+acks, charlotte+hints, chrysalis+tuned)."
  in
  Arg.(
    value
    & opt backend_conv BW.chrysalis
    & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc)

let seed_arg =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let json_arg =
  let doc =
    "Emit the judged run artifacts (or the checked claims) as JSON, in \
     the subset bench/compare.exe parses, instead of the human tables."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* [-n N] as the seed list 1..N. *)
let seeds_arg ~default doc =
  Term.(
    const (fun n -> List.init (max n 0) (fun i -> i + 1))
    $ Arg.(value & opt int default & info [ "n"; "seeds" ] ~docv:"N" ~doc))

let scenario_filter =
  let doc = "Restrict to one scenario; repeatable." in
  Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"SCENARIO" ~doc)

let backend_filter =
  let doc = "Restrict to one backend; repeatable." in
  Arg.(value & opt_all string [] & info [ "backend" ] ~docv:"BACKEND" ~doc)

(* ---- bad input: one stderr line, exit 2 ------------------------------- *)

let reject fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* The one range check behind every numeric flag, so an out-of-range
   value fails like a bad spec or population instead of crashing or
   running as if it were valid. *)
let at_least lo flag v =
  if v < lo then reject "bad %s %d (must be at least %d)" flag v lo

(* OCaml 5.1 runs at most 128 domains at once. *)
let max_jobs = 128

(* Checked while cmdliner evaluates the flags, so a bad count is
   refused before any sweep builds its pool. *)
let jobs_arg =
  let doc =
    Printf.sprintf
      "Worker domains for the sweep, 1 to %d (default: the machine's \
       recommended domain count).  Results are identical at every job \
       count."
      max_jobs
  in
  let check jobs =
    at_least 1 "--jobs" jobs;
    if jobs > max_jobs then
      reject "bad --jobs %d (must be at most %d)" jobs max_jobs;
    jobs
  in
  Term.(
    const check
    $ Arg.(
        value
        & opt int (min max_jobs (Parallel.Pool.default_jobs ()))
        & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let resolve_filter what filter have =
  List.iter
    (fun s ->
      if not (List.mem s have) then
        reject "unknown %s %S (have: %s)" what s (String.concat ", " have))
    filter;
  if filter = [] then have else filter

(* Protocols by name: the shipped scenarios' and the [fixtures]; no
   name means every shipped one. *)
let protocols ~fixtures names =
  let have = Analysis.Catalog.all @ fixtures in
  if names = [] then Analysis.Catalog.all
  else
    List.map
      (fun n ->
        match List.assoc_opt n have with
        | Some p -> (n, p)
        | None ->
          reject "unknown protocol %S (have: %s)" n
            (String.concat ", " (List.map fst have)))
      names

(* ---- claims: the paper's figures, measured and checked ------------------ *)

let claims_cmd =
  let ids =
    let doc = "Claim to check, e.g. E1.lynx-0B; repeatable.  Default: all." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run ids json =
    let module C = Metrics.Claims in
    let ids = resolve_filter "claim" ids C.ids in
    let results = List.map C.check (List.filter (fun c -> List.mem c.C.id ids) C.all) in
    print_string (if json then C.to_json results else C.markdown results);
    if not (List.for_all (fun r -> r.C.ok) results) then exit 1
  in
  Cmd.v
    (Cmd.info "claims"
       ~doc:
         "Measure every figure the paper is judged by (§3.3, §4.3, §5.3 \
          and the ablations' predictions) and check it against the \
          paper; exit 1 if any claim fails.")
    Term.(const run $ ids $ json_arg)

(* ---- the sweep path ------------------------------------------------------ *)

(* Every sweep is a spec list run by [Run.execute_many]; an empty
   product (no seeds, or nothing that applies to the selected backends)
   is a bad selection. *)
let execute_sweep ~jobs specs =
  match List.filter_map Fun.id (Run.execute_many ~jobs specs) with
  | [] -> reject "no runs selected"
  | artifacts -> artifacts

(* explore and chaos: run, render (JSON, or the tables and a repro dump
   per failure), cross-check dynamic races against the static
   predictions (on stderr under --json, so the stream stays pure), and
   exit 1 on any failure or soundness gap.  A faulted sweep also prints
   the per-run fingerprint table. *)
let judged_sweep ~jobs ~json ~header specs =
  let artifacts = execute_sweep ~jobs specs in
  let gaps = Run.Soundness.check artifacts in
  let fails = List.filter Run.Artifact.failed artifacts in
  if json then begin
    print_string (Run.Artifact.list_to_json artifacts);
    if gaps <> [] then prerr_string (Run.Soundness.report gaps)
  end
  else begin
    let faulted = Run.Artifact.faulted artifacts in
    Printf.printf "%s\n\n" (header (List.length artifacts));
    if faulted then print_string (Run.Artifact.table artifacts ^ "\n");
    print_string (Run.Artifact.summary artifacts);
    (match fails with
    | [] ->
      Printf.printf "\nall invariants held on every %srun\n"
        (if faulted then "faulted " else "")
    | fails ->
      Printf.printf "\n%d failing runs; repro dumps follow\n\n"
        (List.length fails);
      List.iter
        (fun (a : Run.Artifact.t) ->
          print_string (Run.repro a.Run.Artifact.spec);
          print_newline ())
        fails);
    print_string (Run.Soundness.report gaps)
  end;
  if fails <> [] || gaps <> [] then exit 1

(* ---- explore: schedule exploration with invariant checking ---------------- *)

let explore_cmd =
  let seeds =
    seeds_arg ~default:25 "Number of seeds to explore (seeds 1..N)."
  in
  let policies =
    let doc = "Scheduling policy to explore (fifo, random, jitter); repeatable." in
    let policy =
      named_conv "policy" Run.Spec.policy_of_string Run.Spec.policy_name
    in
    Arg.(value & opt_all policy [] & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let run seeds policies scenario_filter backend_filter jobs json =
    let policies = if policies = [] then Run.Spec.all_policies else policies in
    let scenarios = resolve_filter "scenario" scenario_filter S.names in
    let backends = resolve_filter "backend" backend_filter BW.names in
    judged_sweep ~jobs ~json
      ~header:(fun runs ->
        Printf.sprintf
          "explored %d runs (%d scenarios, %d backends, %d seeds, %d policies)"
          runs (List.length scenarios) (List.length backends)
          (List.length seeds) (List.length policies))
      (Run.Spec.product ~scenarios ~backends ~seeds ~policies ())
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sweep every scenario x backend x seed x scheduling policy, check \
          all invariants, and dump a deterministic repro for any failure.")
    Term.(
      const run $ seeds $ policies $ scenario_filter $ backend_filter
      $ jobs_arg $ json_arg)

(* ---- chaos: fault-injection sweep ----------------------------------------- *)

let chaos_cmd =
  let seeds = seeds_arg ~default:2 "Number of seeds to sweep (seeds 1..N)." in
  let one_seed =
    let doc =
      "Sweep exactly this seed (overrides $(b,-n)).  Two invocations \
       with the same seed print byte-identical tables at any $(b,-j)."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let plans =
    let doc =
      "Fault plan to inject (drop, duplicate, delay, crash-restart, \
       partition, mix; also screen = no faults, screening armed; and \
       the targeted plans leader-crash, partition-minority, \
       partition-majority, which aim at the fault-tolerant scenarios' \
       topologies and are judged by the recovery deadline); \
       repeatable.  Default: every generic fault-injecting plan."
    in
    let plan =
      named_conv "fault plan" Run.Spec.plan_of_string Run.Spec.plan_name
    in
    Arg.(value & opt_all plan [] & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let run seeds one_seed plans scenario_filter backend_filter jobs json =
    let seeds = Option.fold ~none:seeds ~some:(fun s -> [ s ]) one_seed in
    let plans = if plans = [] then Run.Spec.all_plans else plans in
    let scenarios = resolve_filter "scenario" scenario_filter S.names in
    let backends = resolve_filter "backend" backend_filter BW.names in
    judged_sweep ~jobs ~json
      ~header:(fun runs ->
        Printf.sprintf
          "chaos: %d runs (%d scenarios, %d backends, %d seeds, %d plans)" runs
          (List.length scenarios) (List.length backends) (List.length seeds)
          (List.length plans))
      (Run.Spec.product ~scenarios ~backends ~seeds
         ~plans:(List.map Option.some plans) ())
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep scenarios x backends x seeds x fault plans — message \
          drop/duplicate/delay, crash-restart, partition — with LYNX \
          retry/timeout screening armed, and check every invariant.  \
          Fault-tolerant scenarios are additionally judged for \
          liveness: after the last fault window closes they must \
          recover within their declared deadline, and a miss fails \
          the sweep like an invariant violation.")
    Term.(
      const run $ seeds $ one_seed $ plans $ scenario_filter
      $ backend_filter $ jobs_arg $ json_arg)

(* ---- lint: static protocol linter ---------------------------------------- *)

let lint_cmd =
  let scenario_filter =
    let doc =
      "Protocol to lint (a scenario name, or \"broken\" for the defective \
       fixture); repeatable.  Default: every shipped scenario."
    in
    Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let run names =
    let targets =
      protocols ~fixtures:[ ("broken", Analysis.Catalog.broken) ] names
    in
    let total = ref 0 in
    List.iter
      (fun (name, p) ->
        let findings = Analysis.Lint.check p in
        total := !total + List.length findings;
        if findings = [] then Printf.printf "%-20s clean\n" name
        else begin
          Printf.printf "%-20s %d finding(s)\n" name (List.length findings);
          List.iter
            (fun f -> Format.printf "  %a@." Analysis.Lint.pp_finding f)
            findings
        end)
      targets;
    if !total > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint scenario protocols: signature mismatches, \
          unreachable entries, leaked link ends, wait cycles.")
    Term.(const run $ scenario_filter)

(* ---- static: may-race / may-deadlock prediction ---------------------------- *)

let static_cmd =
  let names =
    let doc =
      "Protocol to analyse: a scenario name, \"broken\" (the lint \
       fixture), or one of the broken-s-msg / broken-s-sig / \
       broken-s-move / broken-s-dlk static fixtures; repeatable.  \
       Default: every shipped scenario."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc)
  in
  let sweep =
    let doc =
      "Soundness differential: also run the scenario x backend x seed x \
       fault-plan product dynamically and assert every dynamic race \
       finding lies inside the static prediction set, then print the \
       coverage report (predictions never observed by any run)."
    in
    Arg.(value & flag & info [ "sweep" ] ~doc)
  in
  let seeds = seeds_arg ~default:2 "Seeds 1..N for the $(b,--sweep) product." in
  let run names sweep seeds jobs json =
    let targets =
      protocols
        ~fixtures:(("broken", Analysis.Catalog.broken) :: Analysis.Catalog.broken_static)
        names
    in
    (* The --sweep differential runs the scenario subset of the targets
       (broken fixtures have no runnable scenario) over every backend,
       seed 1..n and fault plan, clean and screened runs included. *)
    let sweep_artifacts =
      if not sweep then None
      else
        let scenarios =
          List.filter (fun name -> List.mem name S.names) (List.map fst targets)
        in
        let plans =
          None :: List.map Option.some (Run.Spec.Screen :: Run.Spec.all_plans)
        in
        Some
          (execute_sweep ~jobs (Run.Spec.product ~scenarios ~seeds ~plans ()))
    in
    let report, failures =
      Run.Soundness.static_report ~json ~seeds:(List.length seeds) targets
        sweep_artifacts
    in
    print_string report;
    if failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "static"
       ~doc:
         "Predict may-races and may-deadlocks from the protocol graph \
          alone (S-MSG, S-SIG, S-MOVE, S-DLK over a may-happen-in-parallel \
          approximation), and optionally cross-check the dynamic race \
          detector against the prediction set over the full sweep product.")
    Term.(const run $ names $ sweep $ seeds $ jobs_arg $ json_arg)

(* ---- races: happens-before race detector ---------------------------------- *)

let races_cmd =
  let run (backend : BW.backend) names seed jobs json =
    let names = resolve_filter "scenario" names S.names in
    (* Run every scenario replay on the pool, then print in scenario
       order — jobs never print, so the report is identical at any -j. *)
    let artifacts =
      Run.execute_many ~jobs
        (Run.Spec.product ~scenarios:names ~backends:[ backend.name ] ~seeds:[ seed ]
           ())
    in
    let gaps = Run.Soundness.check (List.filter_map Fun.id artifacts) in
    if json then begin
      print_string
        (Run.Artifact.list_to_json (List.filter_map Fun.id artifacts));
      if gaps <> [] then prerr_string (Run.Soundness.report gaps);
      if
        gaps <> []
        || List.exists
             (function
               | Some a -> a.Run.Artifact.races <> []
               | None -> false)
             artifacts
      then exit 1
    end
    else begin
      let report, total =
        Run.Artifact.races_report ~backend:backend.name ~scenarios:names artifacts
      in
      print_string report;
      print_string (Run.Soundness.report gaps);
      if total > 0 || gaps <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Replay scenarios and run the happens-before race detector over the \
          structured event stream.")
    Term.(
      const run $ backend_arg $ scenario_filter $ seed_arg $ jobs_arg
      $ json_arg)

(* ---- workload: population-scale topologies with latency percentiles ------- *)

let workload_cmd =
  let population_arg =
    let doc =
      "Simulated client population; accepts the spec suffix forms \
       $(i,100K) and $(i,1M) as well as plain integers.  Default: the \
       workload default (a handful of cells, smoke-sized)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "n"; "population" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Partition each run across $(docv) domains (conservative-window \
       PDES).  Results are byte-identical at every value."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let run scenario_filter backend_filter population seed shards jobs json =
    at_least 1 "--shards" shards;
    let wl_names =
      List.filter
        (fun n ->
          match S.find n with
          | Some sc -> sc.S.sc_parameterised
          | None -> false)
        S.names
    in
    let scenarios = resolve_filter "scenario" scenario_filter wl_names in
    let backends = resolve_filter "backend" backend_filter BW.names in
    let population =
      match population with
      | None -> None
      | Some s -> (
        match Run.Spec.population_of_string s with
        | Some n -> Some n
        | None -> reject "bad population %S (want e.g. 96, 100K or 1M)" s)
    in
    let specs =
      Run.Spec.product ~scenarios ~backends ~seeds:[ seed ] ?population ~shards
        ()
    in
    List.iter
      (fun spec -> Result.iter_error (reject "%s") (Run.check spec))
      specs;
    let artifacts = execute_sweep ~jobs specs in
    if json then begin
      print_string (Run.Artifact.list_to_json artifacts);
      if List.exists Run.Artifact.failed artifacts then exit 1
    end
    else begin
      Printf.printf
        "workload: %d runs (%d scenarios x %d backends, population %s)\n\n"
        (List.length artifacts) (List.length scenarios)
        (List.length backends)
        (match population with
        | Some n -> Run.Spec.population_to_string n
        | None -> Printf.sprintf "%d (default)" Harness.Workload.default_population);
      let module A = Run.Artifact in
      let module H = Sim.Stats.Histogram in
      Metrics.Report.table
        ~header:
          [ "spec"; "ok"; "requests"; "req/s"; "p50"; "p99"; "p999"; "max" ]
        (List.map
           (fun (a : A.t) ->
             let spec = Run.Spec.to_string a.A.spec in
             match a.A.latency with
             | None -> [ spec; string_of_bool a.A.ok; "-"; "-"; "-"; "-"; "-"; "-" ]
             | Some s ->
               let secs = Sim.Time.to_sec a.A.duration in
               [
                 spec;
                 string_of_bool a.A.ok;
                 string_of_int s.H.h_count;
                 (if secs > 0. then
                    Printf.sprintf "%.0f" (float_of_int s.H.h_count /. secs)
                  else "-");
                 Metrics.Report.ms (Sim.Time.to_ms s.H.h_p50);
                 Metrics.Report.ms (Sim.Time.to_ms s.H.h_p99);
                 Metrics.Report.ms (Sim.Time.to_ms s.H.h_p999);
                 Metrics.Report.ms (Sim.Time.to_ms s.H.h_max);
               ])
           artifacts);
      print_newline ();
      print_endline
        "every row is a repro handle: lynx_sim repro \"<spec>\" re-runs it \
         (add --shards K to check shard invariance).";
      if List.exists A.failed artifacts then begin
        List.iter
          (fun (a : A.t) ->
            if A.failed a then
              Printf.printf "FAILED %s: %s\n"
                (Run.Spec.to_string a.A.spec)
                a.A.detail)
          artifacts;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Run the population-scale workloads (client/server farm, ring, \
          tree; open- and closed-loop client populations) and report \
          throughput and latency percentiles per backend from bounded \
          log-bucketed histograms.  Populations accept K/M suffixes \
          (-n 100K); runs are deterministic at every -j and --shards.")
    Term.(
      const run $ scenario_filter $ backend_filter $ population_arg
      $ seed_arg $ shards_arg $ jobs_arg $ json_arg)

(* ---- repro: re-run any spec and dump its artifact -------------------------- *)

let repro_cmd =
  let spec_arg =
    let doc =
      "Run spec, as printed by any sweep table or log line: \
       $(i,scenario/backend/seed/policy[@plan]), e.g. \
       \"move/chrysalis/3/fifo\" or \"cross-request/soda/2/fifo@drop\"."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)
  in
  let log_capacity_arg =
    let doc =
      "Retain only the last $(docv) structured events in a ring buffer \
       while re-running (default 64, the trace tail's length).  The \
       judged artifact — verdict, violations, \
       races, events hash — is identical at any capacity; only the \
       retained log, and with it the text dump's trace tail, is bounded."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "log-capacity" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Execute with $(docv) domains regardless of the spec's own shard \
       suffix.  Like $(b,--log-capacity), this must not change the \
       artifact — the dump stays labeled with the original spec so two \
       repro runs at different shard counts diff clean."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"K" ~doc)
  in
  let run spec_str json log_capacity shards =
    Option.iter (at_least 1 "--shards") shards;
    Option.iter (at_least 0 "--log-capacity") log_capacity;
    let spec =
      match Run.Spec.of_string spec_str with
      | Ok s -> s
      | Error msg -> reject "%s" msg
    in
    Result.iter_error (reject "%s") (Run.check spec);
    let exec_spec =
      match shards with
      | None -> spec
      | Some k -> { spec with Run.Spec.shards = k }
    in
    let log_capacity = Option.value log_capacity ~default:Run.tail_length in
    match Run.execute_full ~log_capacity exec_spec with
    | None ->
      reject "scenario %s does not apply to backend %s" spec.Run.Spec.scenario
        spec.Run.Spec.backend
    | Some (o, a) ->
      let a = { a with Run.Artifact.spec } in
      print_string (if json then Run.Artifact.to_json a else Run.dump o a);
      if Run.Artifact.failed a then exit 1
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Re-run any spec string from a sweep table, test failure or CI \
          log, and dump its full judged artifact: verdict, invariant \
          violations, races, counters, events hash and trace tail.")
    Term.(const run $ spec_arg $ json_arg $ log_capacity_arg $ shards_arg)

(* ---- backends ------------------------------------------------------------ *)

let backends_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "a"; "all" ]
          ~doc:"Include the ablation variants, not just the three primaries.")
  in
  let run all =
    List.iter
      (fun b -> print_endline (BW.name b))
      (if all then BW.variants else BW.all)
  in
  Cmd.v
    (Cmd.info "backends" ~doc:"List available backends.")
    Term.(const run $ all)

(* cmdliner reports a bad flag with a usage paragraph and exit 124;
   like every other bad input here it gets one stderr line and exit 2.
   The report is captured, and its first line kept. *)
let () =
  let doc =
    "Simulators for the three LYNX implementations (Scott, ICPP 1986)."
  in
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let cmd =
    Cmd.group (Cmd.info "lynx_sim" ~version:"1.0.0" ~doc)
      [
        claims_cmd;
        explore_cmd;
        chaos_cmd;
        lint_cmd;
        static_cmd;
        races_cmd;
        workload_cmd;
        repro_cmd;
        backends_cmd;
      ]
  in
  match Cmd.eval_value ~err cmd with
  | Ok _ -> exit 0
  | Error (`Parse | `Term) ->
    Format.pp_print_flush err ();
    let report = Buffer.contents buf in
    reject "%s"
      (match String.index_opt report '\n' with
      | Some i -> String.sub report 0 i
      | None -> report)
  | Error `Exn ->
    Format.pp_print_flush err ();
    prerr_string (Buffer.contents buf);
    exit Cmd.Exit.internal_error
