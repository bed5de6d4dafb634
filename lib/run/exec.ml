module S = Harness.Scenarios
module BW = Harness.Backend_world

let resolve (spec : Spec.t) =
  let sc =
    match S.find spec.Spec.scenario with
    | Some sc -> sc
    | None ->
      invalid_arg (Printf.sprintf "unknown scenario %S" spec.Spec.scenario)
  in
  let backend =
    match BW.find spec.Spec.backend with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "unknown backend %S" spec.Spec.backend)
  in
  (sc, backend)

(* One-line reason why [spec] cannot run: unknown names, a backend the
   scenario does not apply to, or a population axis on a scenario that
   is not parameterised.  The CLIs ([repro], [workload]) call this
   before executing so every bad spec exits 2 with the same shape of
   message. *)
let check (spec : Spec.t) =
  match S.find spec.Spec.scenario with
  | None ->
    Error
      (Printf.sprintf "unknown scenario %S (have: %s)" spec.Spec.scenario
         (String.concat ", " S.names))
  | Some sc -> begin
    match BW.find spec.Spec.backend with
    | None ->
      Error
        (Printf.sprintf "unknown backend %S (have: %s)" spec.Spec.backend
           (String.concat ", " BW.names))
    | Some backend ->
      if not (S.applies sc backend) then
        Error
          (Printf.sprintf "scenario %s does not apply to backend %s"
             spec.Spec.scenario spec.Spec.backend)
      else if spec.Spec.population <> None && not sc.S.sc_parameterised then
        Error
          (Printf.sprintf
             "scenario %s is not parameterised: population axis ~n%s does \
              not apply"
             spec.Spec.scenario
             (Spec.population_to_string
                (Option.value ~default:1 spec.Spec.population)))
      else
        match spec.Spec.population with
        | Some p when p > Harness.Workload.max_population ->
          Error
            (Printf.sprintf "population ~n%s exceeds the maximum ~n%s"
               (Spec.population_to_string p)
               (Spec.population_to_string Harness.Workload.max_population))
        | _ -> Ok ()
  end

let run_outcome (spec : Spec.t) =
  let sc, backend = resolve spec in
  if not (S.applies sc backend) then None
  else begin
    (match spec.Spec.population with
    | Some p when not sc.S.sc_parameterised ->
      invalid_arg
        (Printf.sprintf "scenario %s is not parameterised (population %d)"
           spec.Spec.scenario p)
    | _ -> ());
    let ctx =
      {
        S.seed = spec.Spec.seed;
        policy = Spec.engine_policy spec.Spec.policy ~seed:spec.Spec.seed;
        shards = spec.Spec.shards;
        population = spec.Spec.population;
        plan = Option.map Spec.fault_plan spec.Spec.plan;
      }
    in
    Some (sc.S.sc_run ctx backend)
  end

(* The invariant suite judges a faulted run exactly as it judges a clean
   one — that is the point: faults may slow scenarios down or make them
   miss their scripted finale ([ok] false), but they must never deadlock
   the run, leak fibers, crash threads with non-LYNX errors, break
   link-end conservation, or deliver a message that was never sent. *)
let clean_failure (o : S.outcome) =
  let dirty =
    try List.assoc "lynx.thread_exceptions_dirty" o.S.o_counters
    with Not_found -> 0
  in
  if dirty > 0 then
    [
      {
        Invariant.v_invariant = "clean-failure";
        v_detail =
          Printf.sprintf
            "%d thread(s) died with non-LYNX exceptions under faults" dirty;
      };
    ]
  else []

let artifact (spec : Spec.t) (o : S.outcome) ~violations ~races =
  {
    Artifact.spec;
    ok = o.S.o_ok;
    violations;
    races;
    liveness = Liveness.judge spec ~counters:o.S.o_counters;
    detail = o.S.o_detail;
    duration = o.S.o_duration;
    counters = o.S.o_counters;
    events_hash = o.S.o_view.Sim.Engine.v_events_hash;
    latency = o.S.o_latency;
  }

let judge (spec : Spec.t) (o : S.outcome) =
  artifact spec o
    ~violations:(Invariant.check o @ clean_failure o)
    ~races:(Analysis.Races.analyze o.S.o_view.Sim.Engine.v_events)

(* Judge from the streaming-analyzer summary instead of the retained
   log: the race findings and the monotonicity evidence were
   accumulated at emission time, so the verdict is exact even when the
   engine retained only a bounded ring of events (or none). *)
let judge_streamed (spec : Spec.t) (sum : Analysis.Stream.summary)
    (o : S.outcome) =
  artifact spec o
    ~violations:(Invariant.check_streamed sum o @ clean_failure o)
    ~races:sum.Analysis.Stream.s_races

(* A wedged or crashed faulted run is itself the finding.  Judging
   liveness from the empty counter list means a fault-tolerant scenario
   that wedged under a windowed plan is also reported as Missed — a run
   that never finished certainly never recovered. *)
let aborted (spec : Spec.t) exn =
  {
    Artifact.spec;
    ok = false;
    violations =
      [
        {
          Invariant.v_invariant = "no-deadlock";
          v_detail = "run aborted: " ^ Printexc.to_string exn;
        };
      ];
    races = [];
    liveness = Liveness.judge spec ~counters:[];
    detail = Printexc.to_string exn;
    duration = Sim.Time.zero;
    counters = [];
    events_hash = 0L;
    latency = None;
  }

(* The streaming pipeline: install an ambient engine observer for the
   duration of the run, so the engine the scenario creates internally
   gets the retention bound and a consumer feeding [Analysis.Stream] at
   emission time.  The observer is domain-local, so pool workers never
   see each other's state. *)
let run_streamed ?log_capacity (spec : Spec.t) =
  let state = Analysis.Stream.init () in
  let attach eng = Sim.Engine.add_consumer eng (Analysis.Stream.feed state) in
  let o =
    Sim.Engine.with_observer ?log_capacity ~attach (fun () ->
        run_outcome spec)
  in
  (o, state)

let execute_full ?log_capacity (spec : Spec.t) =
  match run_streamed ?log_capacity spec with
  | None, _ -> None
  | Some o, state ->
    Some (Some o, judge_streamed spec (Analysis.Stream.finish state) o)
  | exception e when spec.Spec.plan <> None -> Some (None, aborted spec e)

(* The artifact is judged from the stream, so by default nothing needs
   retaining. *)
let execute ?(log_capacity = 0) (spec : Spec.t) =
  match execute_full ~log_capacity spec with
  | None -> None
  | Some (_, a) -> Some a

let execute_many ?(jobs = 1) ?log_capacity specs =
  Parallel.Pool.map_list ~jobs (execute ?log_capacity) specs

let tail_length = 64

let dump (o : S.outcome option) (a : Artifact.t) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "repro %s\n" (Spec.to_string a.Artifact.spec);
  Option.iter
    (fun p -> pr "  plan: %s\n" (Faults.Plan.to_string (Spec.fault_plan p)))
    a.Artifact.spec.Spec.plan;
  pr "  ok=%b  detail: %s\n" a.Artifact.ok a.Artifact.detail;
  pr "  duration %s  events hash %016Lx\n"
    (Sim.Time.to_string a.Artifact.duration)
    a.Artifact.events_hash;
  (match a.Artifact.liveness with
  | Liveness.Vacuous -> ()
  | v -> pr "  liveness: %s\n" (Liveness.to_string v));
  List.iter
    (fun v -> pr "  VIOLATION %s\n" (Invariant.to_string v))
    a.Artifact.violations;
  List.iter
    (fun f -> pr "  RACE %s\n" (Format.asprintf "%a" Analysis.Races.pp_finding f))
    a.Artifact.races;
  (match List.filter (fun (_, v) -> v <> 0) a.Artifact.counters with
  | [] -> ()
  | active ->
    pr "  counter activity:\n";
    List.iter (fun (k, v) -> pr "    %-44s %d\n" k v) active);
  Option.iter
    (fun (o : S.outcome) ->
      let module E = Sim.Engine in
      let v = o.S.o_view in
      (match List.filter (fun f -> f.E.fi_state <> "finished") v.E.v_fibers with
      | [] -> ()
      | unfinished ->
        pr "  unfinished fibers:\n";
        List.iter
          (fun f ->
            pr "    #%d %s%s  %s\n" f.E.fi_id f.E.fi_name
              (if f.E.fi_daemon then " (daemon)" else "")
              f.E.fi_state)
          unfinished);
      let evs = v.E.v_events in
      let n = Array.length evs in
      let shown = min n tail_length in
      pr "  trace tail (last %d of %d events):\n" shown
        (n + v.E.v_events_dropped);
      for i = n - shown to n - 1 do
        let ev = evs.(i) in
        pr "    %-12s %-7s %s\n"
          (Sim.Time.to_string ev.Sim.Event.ev_time)
          ("#" ^ string_of_int ev.Sim.Event.ev_fiber)
          (Sim.Event.kind_to_string ev.Sim.Event.ev_kind)
      done)
    o;
  Buffer.contents buf

let repro (spec : Spec.t) =
  match execute_full ~log_capacity:tail_length spec with
  | None ->
    Printf.sprintf "repro %s\n  scenario does not apply to this backend\n"
      (Spec.to_string spec)
  | Some (o, a) -> dump o a
