(* lynx_sim — command-line front end for the LYNX reproduction.

   Subcommands:
     rpc       measure a simple remote operation on one backend
     scenario  run one of the paper's qualitative scenarios
     sweep     latency vs payload across the backends (crossover hunting)
     repair    SODA hint-repair / pair-pressure demonstrations
     explore   scenario x backend x seed x policy sweep with invariants
     chaos     the same sweep under fault plans
     lint      static protocol linter
     static    may-race / may-deadlock prediction, soundness-gated sweep
     races     happens-before race detector replay
     workload  population-scale topologies with latency percentiles
     repro     re-run any spec string and dump its full artifact
     memsmoke  bounded-retention equivalence smoke (ring buffer vs full log)
     backends  list available backends

   Every sweep row is identified by a run spec
   "scenario/backend/seed/policy[@plan]" (see lib/run): `repro` accepts
   exactly that string from any table, log or CI failure, and --json on
   explore/chaos/races/static emits the judged artifacts machine-readably.
   The explore, chaos and races sweeps additionally cross-check every
   dynamic race finding against the static prediction set (a gap fails
   the run — see lib/run/soundness.mli). *)

open Cmdliner
module BW = Harness.Backend_world
module S = Harness.Scenarios

let backend_conv =
  let parse s =
    match BW.find s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown backend %S" s))
  in
  let print ppf (module W : BW.WORLD) = Format.pp_print_string ppf W.name in
  Arg.conv (parse, print)

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
    "Emit the judged run artifacts as JSON (the subset \
     bench/compare.exe parses) instead of the human tables."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* ---- rpc ------------------------------------------------------------- *)

let rpc_cmd =
  let payload =
    Arg.(
      value & opt int 0
      & info [ "p"; "payload" ] ~docv:"BYTES" ~doc:"Payload bytes each way.")
  in
  let iters =
    Arg.(
      value & opt int 30
      & info [ "n"; "iters" ] ~docv:"N" ~doc:"Measured iterations.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print counter activity.")
  in
  let run (module W : BW.WORLD) payload iters seed verbose =
    let r = Harness.Rpc_bench.run (module W) ~payload ~iters ~seed () in
    Printf.printf
      "%s: simple remote operation, %d bytes each way, %d iterations\n" W.name
      payload iters;
    Printf.printf "  mean %.3f ms   min %.3f ms   max %.3f ms\n"
      (Sim.Time.to_ms r.Harness.Rpc_bench.r_mean)
      (Sim.Time.to_ms r.Harness.Rpc_bench.r_min)
      (Sim.Time.to_ms r.Harness.Rpc_bench.r_max);
    if verbose then begin
      print_endline "  counters during the measured phase:";
      List.iter
        (fun (k, v) -> Printf.printf "    %-44s %d\n" k v)
        r.Harness.Rpc_bench.r_counters
    end
  in
  Cmd.v
    (Cmd.info "rpc" ~doc:"Measure a simple remote operation (paper §3.3/§5.3).")
    Term.(const run $ backend_arg $ payload $ iters $ seed_arg $ verbose)

(* ---- scenario --------------------------------------------------------- *)

let scenario_cmd =
  let scenario_name =
    let doc =
      "Scenario name, one of the registry: move (figure 1), enclosures \
       (figure 2), cross-request (§3.2.1), open-close (§3.2.1), \
       lost-enclosure (§3.2.2), bounced-enclosure, shard-rpc (sharded \
       RPC pairs), hint-repair (SODA), pair-pressure (SODA)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  let encl =
    Arg.(
      value & opt int 3
      & info [ "k"; "enclosures" ] ~docv:"K"
          ~doc:"Enclosure count for the enclosures scenario.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Partition the simulation across $(docv) domains \
             (conservative-window PDES).  The outcome is byte-identical \
             at every value; only wall-clock time changes.")
  in
  let run (module W : BW.WORLD) name encl shards seed =
    let sc =
      match S.find name with
      | Some sc -> sc
      | None ->
        Printf.eprintf "unknown scenario %S (have: %s)\n" name
          (String.concat ", " S.names);
        exit 2
    in
    if not (S.applies sc (module W)) then begin
      Printf.eprintf "scenario %s does not apply to backend %s\n" name W.name;
      exit 2
    end;
    let o =
      (* The registry runner fixes n_encl at the sweep default; the CLI
         keeps its -k knob by calling the scenario directly. *)
      if name = "enclosures" then
        S.enclosure_protocol ~seed ~n_encl:encl (module W)
      else
        sc.S.sc_run
          { S.seed; policy = Sim.Engine.Fifo; shards; population = None }
          (module W)
    in
    Printf.printf "%s: %s (%.2f ms simulated)\n" W.name
      (if o.S.o_ok then "ok" else "FAILED")
      (Sim.Time.to_ms o.S.o_duration);
    Printf.printf "  detail: %s\n" o.S.o_detail;
    print_endline "  counter activity:";
    List.iter
      (fun (k, v) -> if v <> 0 then Printf.printf "    %-44s %d\n" k v)
      o.S.o_counters;
    if not o.S.o_ok then exit 1
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run one of the paper's qualitative scenarios.")
    Term.(const run $ backend_arg $ scenario_name $ encl $ shards $ seed_arg)

(* ---- jobs flag -------------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for the sweep (default: the machine's recommended \
     domain count).  Results are identical at every job count."
  in
  Arg.(
    value
    & opt int (Parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* ---- sweep ------------------------------------------------------------- *)

let sweep_cmd =
  let lo = Arg.(value & opt int 0 & info [ "from" ] ~docv:"BYTES" ~doc:"Start payload.") in
  let hi = Arg.(value & opt int 2500 & info [ "to" ] ~docv:"BYTES" ~doc:"End payload.") in
  let step = Arg.(value & opt int 250 & info [ "step" ] ~docv:"BYTES" ~doc:"Step.") in
  let run lo hi step seed jobs =
    let rec payloads p = if p > hi then [] else p :: payloads (p + step) in
    let rows = Harness.Rpc_bench.sweep ~jobs ~seed ~payloads:(payloads lo) () in
    Metrics.Report.table
      ~header:("payload" :: BW.names)
      (List.map
         (fun row ->
           match row with
           | [] -> []
           | first :: _ ->
             string_of_int first.Harness.Rpc_bench.r_payload
             :: List.map
                  (fun r ->
                    Metrics.Report.ms (Harness.Rpc_bench.mean_ms r))
                  row)
         rows)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Latency vs payload on all three backends.")
    Term.(const run $ lo $ hi $ step $ seed_arg $ jobs_arg)

(* ---- repair: SODA hint-repair / pair-pressure demonstrations ------------- *)

let repair_cmd =
  let loss =
    Arg.(
      value & opt float 0.05
      & info [ "loss" ] ~docv:"P" ~doc:"Broadcast loss probability (0..1).")
  in
  let run loss seed =
    let o = S.soda_hint_repair ~seed ~broadcast_loss:loss () in
    Printf.printf "hint repair at %.0f%%%% loss: %s
" (loss *. 100.)
      o.S.o_detail;
    Printf.printf "  discover attempts: %d   freeze searches: %d
"
      (S.counter o "lynx_soda.discover_attempts")
      (S.counter o "lynx_soda.freeze_searches");
    let budgeted = S.soda_pair_pressure ~seed ~budget:true () in
    let naive = S.soda_pair_pressure ~seed ~budget:false () in
    Printf.printf "pair pressure (6 links): %s  vs naive: %s
"
      budgeted.S.o_detail naive.S.o_detail;
    if not o.S.o_ok then exit 1
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:"SODA hint repair under broadcast loss, and the §4.2.1 budget.")
    Term.(const run $ loss $ seed_arg)

(* ---- shared filter validation --------------------------------------------- *)

let check_names what names have =
  List.iter
    (fun s ->
      if not (List.mem s have) then begin
        Printf.eprintf "unknown %s %S (have: %s)\n" what s
          (String.concat ", " have);
        exit 2
      end)
    names

let scenario_filter =
  let doc = "Restrict to one scenario; repeatable." in
  Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"SCENARIO" ~doc)

let backend_filter =
  let doc = "Restrict to one backend; repeatable." in
  Arg.(value & opt_all string [] & info [ "backend" ] ~docv:"BACKEND" ~doc)

let resolve_filter what filter have =
  if filter = [] then have
  else begin
    check_names what filter have;
    filter
  end

(* Emit the judged artifacts of a spec list as JSON on stdout, run the
   dynamic-vs-static soundness cross-check (reported on stderr so the
   JSON stream stays pure), and say whether anything failed. *)
let json_sweep ~jobs ~failed specs =
  let artifacts = List.filter_map Fun.id (Run.execute_many ~jobs specs) in
  print_string (Run.Artifact.list_to_json artifacts);
  let gaps = Run.Soundness.check artifacts in
  if gaps <> [] then prerr_string (Run.Soundness.report gaps);
  gaps <> [] || List.exists failed artifacts

(* ---- explore: schedule exploration with invariant checking ---------------- *)

let explore_cmd =
  let seeds =
    Arg.(
      value & opt int 25
      & info [ "n"; "seeds" ] ~docv:"N"
          ~doc:"Number of seeds to explore (seeds 1..N).")
  in
  let policy_conv =
    let parse s =
      match Explore.Driver.policy_kind_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
    in
    let print ppf p =
      Format.pp_print_string ppf (Explore.Driver.policy_kind_name p)
    in
    Arg.conv (parse, print)
  in
  let policies =
    let doc = "Scheduling policy to explore (fifo, random, jitter); repeatable." in
    Arg.(value & opt_all policy_conv [] & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let run n policies scenario_filter backend_filter jobs json =
    let module D = Explore.Driver in
    let seeds = List.init (max n 0) (fun i -> i + 1) in
    let policies = if policies = [] then D.all_policies else policies in
    let scenarios = resolve_filter "scenario" scenario_filter D.scenario_names in
    let backends = resolve_filter "backend" backend_filter D.backend_names in
    if json then begin
      let specs =
        D.cases ~scenarios ~backends ~seeds ~policies ()
        |> List.map (fun c -> D.spec c)
      in
      if specs = [] then begin
        prerr_endline "no runs selected";
        exit 2
      end;
      if json_sweep ~jobs ~failed:Run.Artifact.strict_failed specs then
        exit 1
    end
    else begin
      let pairs = D.sweep_full ~jobs ~scenarios ~backends ~seeds ~policies () in
      let results = List.map (fun (c, a) -> D.of_artifact c a) pairs in
      if results = [] then begin
        print_endline "no runs selected";
        exit 2
      end;
      Printf.printf "explored %d runs (%d scenarios, %d backends, %d seeds, %d policies)\n\n"
        (List.length results) (List.length scenarios) (List.length backends)
        (List.length seeds) (List.length policies);
      print_string (D.summary results);
      let fails = D.failures results in
      let gaps = D.soundness_gaps pairs in
      (match fails with
      | [] -> print_endline "\nall invariants held on every run"
      | fails ->
        Printf.printf "\n%d failing runs; repro dumps follow\n\n"
          (List.length fails);
        List.iter
          (fun r -> print_string (D.repro r.D.r_case); print_newline ())
          fails);
      print_string (Run.Soundness.report gaps);
      if fails <> [] || gaps <> [] then exit 1
    end
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
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "n"; "seeds" ] ~docv:"N"
          ~doc:"Number of seeds to sweep (seeds 1..N).")
  in
  let one_seed =
    let doc =
      "Sweep exactly this seed (overrides $(b,-n)).  Two invocations \
       with the same seed print byte-identical tables at any $(b,-j)."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let plan_conv =
    let parse s =
      match Explore.Chaos.plan_kind_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown fault plan %S" s))
    in
    let print ppf p =
      Format.pp_print_string ppf (Explore.Chaos.plan_kind_name p)
    in
    Arg.conv (parse, print)
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
    Arg.(value & opt_all plan_conv [] & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let run n one_seed plans scenario_filter backend_filter jobs json =
    let module D = Explore.Driver in
    let module C = Explore.Chaos in
    let seeds =
      match one_seed with
      | Some s -> [ s ]
      | None -> List.init (max n 0) (fun i -> i + 1)
    in
    let plans = if plans = [] then C.all_plans else plans in
    let scenarios = resolve_filter "scenario" scenario_filter D.scenario_names in
    let backends = resolve_filter "backend" backend_filter D.backend_names in
    if json then begin
      let specs =
        C.cases ~scenarios ~backends ~seeds ~plans ()
        |> List.map (fun c -> C.spec c)
      in
      if specs = [] then begin
        prerr_endline "no runs selected";
        exit 2
      end;
      if json_sweep ~jobs ~failed:Run.Artifact.anomalous specs then
        exit 1
    end
    else begin
      let pairs = C.sweep_full ~jobs ~scenarios ~backends ~seeds ~plans () in
      let results = List.map (fun (c, a) -> C.of_artifact c a) pairs in
      if results = [] then begin
        print_endline "no runs selected";
        exit 2
      end;
      Printf.printf
        "chaos: %d runs (%d scenarios, %d backends, %d seeds, %d plans)\n\n"
        (List.length results) (List.length scenarios) (List.length backends)
        (List.length seeds) (List.length plans);
      print_string (C.table results);
      print_newline ();
      print_string (C.summary results);
      let fails = C.failures results in
      let gaps = Run.Soundness.check (List.map snd pairs) in
      (match fails with
      | [] -> print_endline "\nall invariants held on every faulted run"
      | fails ->
        Printf.printf "\n%d failing runs; repro dumps follow\n\n"
          (List.length fails);
        List.iter
          (fun r -> print_string (C.repro r.C.h_case); print_newline ())
          fails);
      print_string (Run.Soundness.report gaps);
      if fails <> [] || gaps <> [] then exit 1
    end
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
      match names with
      | [] -> Analysis.Catalog.all
      | names ->
        List.map
          (fun n ->
            if n = "broken" then (n, Analysis.Catalog.broken)
            else
              match Analysis.Catalog.find n with
              | Some p -> (n, p)
              | None ->
                Printf.eprintf "unknown protocol %S (have: %s, broken)\n" n
                  (String.concat ", "
                     (List.map fst Analysis.Catalog.all));
                exit 2)
          names
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
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "n"; "seeds" ] ~docv:"N"
          ~doc:"Seeds 1..N for the $(b,--sweep) product.")
  in
  (* Local JSON writer, same objects/strings/numbers subset as
     Run.Artifact (bench/compare.exe is the schema check). *)
  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  let indexed buf ~indent render = function
    | [] -> Buffer.add_string buf "{}"
    | items ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf
            (Printf.sprintf "%s  \"%d\": \"%s\"" indent i
               (escape (render item))))
        items;
      Buffer.add_string buf (Printf.sprintf "\n%s}" indent)
  in
  let run names sweep n jobs json =
    let module St = Analysis.Static in
    let lookup name =
      if name = "broken" then Some Analysis.Catalog.broken
      else
        match List.assoc_opt name Analysis.Catalog.broken_static with
        | Some p -> Some p
        | None -> Analysis.Catalog.find name
    in
    let targets =
      match names with
      | [] -> Analysis.Catalog.all
      | names ->
        List.map
          (fun name ->
            match lookup name with
            | Some p -> (name, p)
            | None ->
              Printf.eprintf "unknown protocol %S (have: %s, broken, %s)\n"
                name
                (String.concat ", " (List.map fst Analysis.Catalog.all))
                (String.concat ", "
                   (List.map fst Analysis.Catalog.broken_static));
              exit 2)
          names
    in
    let analysed = List.map (fun (name, p) -> (name, St.predict p)) targets in
    let alarms =
      List.concat_map (fun (_, preds) -> St.alarms preds) analysed
    in
    (* The --sweep differential runs the scenario subset of the targets
       (broken fixtures have no runnable scenario) over every backend,
       seed 1..n and fault plan, clean and screened runs included. *)
    let sweep_artifacts =
      if not sweep then None
      else begin
        let scenarios =
          List.filter (fun (name, _) -> List.mem name S.names) targets
          |> List.map fst
        in
        let seeds = List.init (max n 0) (fun i -> i + 1) in
        let plans =
          None
          :: Some Run.Spec.Screen
          :: List.map Option.some Run.Spec.all_plans
        in
        let specs =
          List.concat_map
            (fun scenario ->
              List.concat_map
                (fun backend ->
                  List.concat_map
                    (fun seed ->
                      List.map
                        (fun plan -> Run.Spec.v ?plan ~scenario ~backend seed)
                        plans)
                    seeds)
                BW.names)
            scenarios
        in
        Some (List.filter_map Fun.id (Run.execute_many ~jobs specs))
      end
    in
    let gaps =
      match sweep_artifacts with
      | None -> []
      | Some artifacts -> Run.Soundness.check artifacts
    in
    if json then begin
      let buf = Buffer.create 2048 in
      let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pr "{\n  \"schema\": \"lynx-run/1\",\n";
      pr "  \"protocols\": ";
      (match analysed with
      | [] -> pr "{}"
      | analysed ->
        pr "{\n";
        List.iteri
          (fun i (name, preds) ->
            if i > 0 then pr ",\n";
            pr "    \"%s\": {\n" (escape name);
            pr "      \"predictions\": ";
            indexed buf ~indent:"      "
              (Format.asprintf "%a" St.pp_prediction)
              preds;
            pr ",\n      \"alarms\": %d\n    }" (List.length (St.alarms preds)))
          analysed;
        pr "\n  }");
      pr ",\n  \"alarms\": %d" (List.length alarms);
      (match sweep_artifacts with
      | None -> ()
      | Some artifacts ->
        let coverage = Run.Soundness.coverage artifacts in
        pr ",\n  \"soundness\": {\n";
        pr "    \"runs\": %d,\n" (List.length artifacts);
        pr "    \"gaps\": ";
        indexed buf ~indent:"    "
          (fun (g : Run.Soundness.gap) ->
            Printf.sprintf "%s: %s %s — %s"
              (Run.Spec.to_string g.Run.Soundness.g_spec)
              g.Run.Soundness.g_race.Analysis.Races.r_rule
              g.Run.Soundness.g_race.Analysis.Races.r_obj
              g.Run.Soundness.g_reason)
          gaps;
        pr ",\n    \"coverage\": ";
        indexed buf ~indent:"    "
          (fun (l : Run.Soundness.coverage_line) ->
            Printf.sprintf "%s %s"
              (if l.Run.Soundness.c_observed then "seen" else "unseen")
              (Format.asprintf "%a" St.pp_prediction
                 l.Run.Soundness.c_prediction))
          coverage;
        pr "\n  }");
      pr "\n}\n";
      print_string (Buffer.contents buf)
    end
    else begin
      List.iter
        (fun (name, preds) ->
          let n_alarm = List.length (St.alarms preds) in
          if preds = [] then
            Printf.printf "%-20s no concurrency predicted\n" name
          else begin
            Printf.printf "%-20s %d prediction(s), %d alarm(s)\n" name
              (List.length preds) n_alarm;
            List.iter
              (fun p -> Format.printf "  %a@." St.pp_prediction p)
              preds
          end)
        analysed;
      match sweep_artifacts with
      | None -> ()
      | Some artifacts ->
        Printf.printf "\nsoundness sweep: %d runs (all backends, seeds 1..%d, \
                       every plan)\n"
          (List.length artifacts) (max n 0);
        print_string (Run.Soundness.report gaps);
        print_newline ();
        print_string (Run.Soundness.coverage_report artifacts)
    end;
    if alarms <> [] || gaps <> [] then exit 1
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
  let run (module W : BW.WORLD) names seed jobs json =
    let names = if names = [] then S.names else names in
    check_names "scenario" names S.names;
    let specs =
      List.map
        (fun sc ->
          Run.Spec.v ~policy:Run.Spec.Fifo ~scenario:sc ~backend:W.name seed)
        names
    in
    (* Run every scenario replay on the pool, then print in scenario
       order — jobs never print, so the report is identical at any -j. *)
    let artifacts = Run.execute_many ~jobs specs in
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
        Explore.Driver.races_report ~backend:W.name ~scenarios:names artifacts
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
  let log_capacity_arg =
    let doc =
      "Retain only the last $(docv) structured events per shard.  \
       Population runs emit millions of events; the judged artifact is \
       identical at any capacity, so large populations should always \
       bound the log."
    in
    Arg.(value & opt (some int) None & info [ "log-capacity" ] ~docv:"N" ~doc)
  in
  let run scenario_filter backend_filter population seed shards log_capacity
      jobs json =
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
        | None ->
          Printf.eprintf "bad population %S (want e.g. 96, 100K or 1M)\n" s;
          exit 2)
    in
    let specs =
      List.concat_map
        (fun scenario ->
          List.map
            (fun backend ->
              Run.Spec.v ~policy:Run.Spec.Fifo ?population ~shards ~scenario
                ~backend seed)
            backends)
        scenarios
    in
    List.iter
      (fun spec ->
        match Run.check spec with
        | Ok () -> ()
        | Error msg ->
          prerr_endline msg;
          exit 2)
      specs;
    if json then begin
      let artifacts =
        List.filter_map Fun.id (Run.execute_many ~jobs ?log_capacity specs)
      in
      print_string (Run.Artifact.list_to_json artifacts);
      if List.exists Run.Artifact.strict_failed artifacts then exit 1
    end
    else begin
      let artifacts =
        List.filter_map Fun.id (Run.execute_many ~jobs ?log_capacity specs)
      in
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
      if List.exists A.strict_failed artifacts then begin
        List.iter
          (fun (a : A.t) ->
            if A.strict_failed a then
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
      $ seed_arg $ shards_arg $ log_capacity_arg $ jobs_arg $ json_arg)

(* ---- repro: re-run any spec and dump its artifact -------------------------- *)

let repro_cmd =
  let spec_arg =
    let doc =
      "Run spec, as printed by any sweep table or log line: \
       $(i,scenario/backend/seed/policy[@plan]), e.g. \
       \"move/chrysalis/3/fifo\" or \"cross-request/soda/2/fifo@drop\".  \
       The chaos tables' historical \
       $(i,scenario/backend/seed/plan) form is also accepted."
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
    let spec =
      match Run.Spec.of_string spec_str with
      | Ok s -> s
      | Error msg ->
        prerr_endline msg;
        exit 2
    in
    (match Run.check spec with
    | Ok () -> ()
    | Error msg ->
      prerr_endline msg;
      exit 2);
    let exec_spec =
      match shards with
      | None -> spec
      | Some k -> { spec with Run.Spec.shards = k }
    in
    let log_capacity = Option.value log_capacity ~default:Run.tail_length in
    match Run.execute_full ~log_capacity exec_spec with
    | None ->
      Printf.eprintf "scenario %s does not apply to backend %s\n"
        spec.Run.Spec.scenario spec.Run.Spec.backend;
      exit 2
    | Some (o, a) ->
      let a = { a with Run.Artifact.spec } in
      print_string (if json then Run.Artifact.to_json a else Run.dump o a);
      (* Same verdict the sweeps use: a faulted run may legitimately
         miss its scripted finale, so only invariant violations fail
         it; an unfaulted run must also finish ok and race-free. *)
      let failed =
        match spec.Run.Spec.plan with
        | Some _ -> Run.Artifact.anomalous a
        | None -> Run.Artifact.strict_failed a
      in
      if failed then exit 1
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Re-run any spec string from a sweep table, test failure or CI \
          log, and dump its full judged artifact: verdict, invariant \
          violations, races, counters, events hash and trace tail.")
    Term.(const run $ spec_arg $ json_arg $ log_capacity_arg $ shards_arg)

(* ---- memsmoke: bounded-retention equivalence smoke ------------------------ *)

let memsmoke_cmd =
  let capacity_arg =
    let doc = "Ring-buffer capacity for the bounded runs." in
    Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let iters_arg =
    let doc =
      "Measured RPC iterations for the long run (default 300, 10x the \
       rpc command's default)."
    in
    Arg.(value & opt int 300 & info [ "n"; "iters" ] ~docv:"N" ~doc)
  in
  let spec_arg =
    let doc = "Run spec for the scenario-pipeline half of the smoke." in
    Arg.(
      value
      & opt string "move/charlotte/1/fifo"
      & info [ "spec" ] ~docv:"SPEC" ~doc)
  in
  let run (module W : BW.WORLD) capacity iters spec_str seed =
    let failures = ref 0 in
    let check name cond detail =
      if cond then Printf.printf "  ok   %s\n" name
      else begin
        incr failures;
        Printf.printf "  FAIL %s: %s\n" name detail
      end
    in
    (* Half 1: the full run pipeline, unbounded vs ring-bounded.  The
       judged artifact must be identical and the bounded view must
       retain at most [capacity] events with exact drop accounting. *)
    let spec =
      match Run.Spec.of_string spec_str with
      | Ok s -> s
      | Error msg ->
        prerr_endline msg;
        exit 2
    in
    Printf.printf "scenario pipeline: %s (capacity %d)\n"
      (Run.Spec.to_string spec) capacity;
    (match
       (Run.execute_full spec, Run.execute_full ~log_capacity:capacity spec)
     with
    | Some (Some o_u, a_u), Some (Some o_b, a_b) ->
      let v_u = o_u.S.o_view and v_b = o_b.S.o_view in
      let n_u = Array.length v_u.Sim.Engine.v_events in
      let n_b = Array.length v_b.Sim.Engine.v_events in
      let total_u = n_u + v_u.Sim.Engine.v_events_dropped in
      let total_b = n_b + v_b.Sim.Engine.v_events_dropped in
      check "artifact identical under ring" (a_u = a_b)
        "bounded run was judged differently";
      check "retained <= capacity" (n_b <= capacity)
        (Printf.sprintf "%d events retained" n_b);
      check "drop accounting exact" (total_b = total_u)
        (Printf.sprintf "%d+dropped=%d vs %d" n_b total_b total_u);
      check "events hash exact under ring"
        (v_u.Sim.Engine.v_events_hash = v_b.Sim.Engine.v_events_hash)
        (Printf.sprintf "%016Lx vs %016Lx" v_u.Sim.Engine.v_events_hash
           v_b.Sim.Engine.v_events_hash);
      check "streamed races match post-hoc"
        (Analysis.Races.analyze v_u.Sim.Engine.v_events
        = a_u.Run.Artifact.races)
        "post-hoc analyze of the retained log disagrees"
    | _ ->
      incr failures;
      Printf.printf "  FAIL spec did not produce two full runs\n");
    (* Half 2: a 10x-length RPC run with the observer attached by hand,
       so peak retention is checked against a stream long enough to
       wrap the ring many times over. *)
    let observe log_capacity =
      let stream = ref (Analysis.Stream.init ()) in
      let captured = ref None in
      let attach e =
        captured := Some e;
        Sim.Engine.add_consumer e (fun ev ->
            stream := Analysis.Stream.feed ev !stream)
      in
      let _r =
        Sim.Engine.with_observer ?log_capacity ~attach (fun () ->
            Harness.Rpc_bench.run (module W) ~iters ~seed ~payload:0 ())
      in
      match !captured with
      | None ->
        prerr_endline "memsmoke: the benchmark created no engine";
        exit 2
      | Some e ->
        (Sim.Engine.view e, Analysis.Stream.finish !stream,
         Sim.Engine.events_total e)
    in
    Printf.printf "long run: rpc on %s, %d iters (capacity %d)\n" W.name
      iters capacity;
    let v_u, sum_u, total_u = observe None in
    let v_b, sum_b, total_b = observe (Some capacity) in
    let n_b = Array.length v_b.Sim.Engine.v_events in
    check "stream long enough to wrap" (total_u > 2 * capacity)
      (Printf.sprintf "only %d events" total_u);
    check "peak retained <= capacity" (n_b <= capacity)
      (Printf.sprintf "%d events retained" n_b);
    check "totals equal" (total_u = total_b && sum_u.Analysis.Stream.s_events = total_u
                          && sum_b.Analysis.Stream.s_events = total_b)
      (Printf.sprintf "%d vs %d (streamed %d/%d)" total_u total_b
         sum_u.Analysis.Stream.s_events sum_b.Analysis.Stream.s_events);
    check "drop accounting exact"
      (v_b.Sim.Engine.v_events_dropped = total_b - n_b)
      (Printf.sprintf "dropped %d, expected %d"
         v_b.Sim.Engine.v_events_dropped (total_b - n_b));
    check "events hash exact under ring"
      (v_u.Sim.Engine.v_events_hash = v_b.Sim.Engine.v_events_hash)
      (Printf.sprintf "%016Lx vs %016Lx" v_u.Sim.Engine.v_events_hash
         v_b.Sim.Engine.v_events_hash);
    check "streamed races equal at both capacities"
      (sum_u.Analysis.Stream.s_races = sum_b.Analysis.Stream.s_races)
      "ring retention changed the streaming findings";
    check "streamed races match post-hoc on the full log"
      (Analysis.Races.analyze v_u.Sim.Engine.v_events
      = sum_u.Analysis.Stream.s_races)
      "post-hoc analyze of the unbounded log disagrees";
    check "stream monotone"
      (sum_u.Analysis.Stream.s_backwards = None
      && sum_b.Analysis.Stream.s_backwards = None)
      "a timestamp regression was recorded";
    if !failures > 0 then begin
      Printf.printf "%d check(s) failed\n" !failures;
      exit 1
    end
    else print_endline "all checks passed"
  in
  Cmd.v
    (Cmd.info "memsmoke"
       ~doc:
         "Bounded-retention smoke: re-run a scenario and a long RPC run \
          with the event log capped to a small ring buffer, and assert \
          the judged artifact, events hash and streaming race findings \
          are identical to the unbounded run while peak retained events \
          stay within the cap.")
    Term.(
      const run $ backend_arg $ capacity_arg $ iters_arg $ spec_arg
      $ seed_arg)

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
      (fun (module W : BW.WORLD) -> print_endline W.name)
      (if all then BW.variants else BW.all)
  in
  Cmd.v
    (Cmd.info "backends" ~doc:"List available backends.")
    Term.(const run $ all)

let () =
  let doc =
    "Simulators for the three LYNX implementations (Scott, ICPP 1986)."
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "lynx_sim" ~version:"1.0.0" ~doc)
          [
            rpc_cmd;
            scenario_cmd;
            sweep_cmd;
            repair_cmd;
            explore_cmd;
            chaos_cmd;
            lint_cmd;
            static_cmd;
            races_cmd;
            workload_cmd;
            repro_cmd;
            memsmoke_cmd;
            backends_cmd;
          ]))
