module S = Harness.Scenarios

(* The chaos sweep is a thin plan-builder over the run core: each case
   is a [Run.Spec] carrying a fault plan, executed and judged by
   [Run.execute] (which also converts a wedged or crashed faulted run
   into a "no-deadlock" violation artifact — the finding itself). *)

type plan_kind = Run.Spec.plan =
  | Screen
  | Drop
  | Duplicate
  | Delay
  | Crash_restart
  | Partition
  | Mix
  | Leader_crash
  | Partition_minority
  | Partition_majority

let all_plans = Run.Spec.all_plans
let plan_kind_name = Run.Spec.plan_name
let plan_kind_of_string = Run.Spec.plan_of_string

type case = {
  h_scenario : string;
  h_backend : string;
  h_seed : int;
  h_plan : plan_kind;
}

type result = {
  h_case : case;
  h_ok : bool;  (** the scenario's own verdict — informational under faults *)
  h_violations : Run.Invariant.violation list;
  h_liveness : Run.Liveness.verdict;
  h_detail : string;
  h_events_hash : int64;
  h_faults : (string * int) list;
      (** injected-fault, screening and recovery counters for the run *)
}

(* The historical chaos handle keeps the plan in the policy position;
   [Run.Spec.of_string] parses it back as the equivalent fifo@plan. *)
let case_name c =
  Printf.sprintf "%s/%s/%d/%s" c.h_scenario c.h_backend c.h_seed
    (plan_kind_name c.h_plan)

let spec c =
  {
    Run.Spec.scenario = c.h_scenario;
    backend = c.h_backend;
    seed = c.h_seed;
    policy = Run.Spec.Fifo;
    plan = Some c.h_plan;
    population = None;
    shards = 1;
  }

let of_artifact c (a : Run.Artifact.t) =
  {
    h_case = c;
    h_ok = a.Run.Artifact.ok;
    h_violations = a.Run.Artifact.violations;
    h_liveness = a.Run.Artifact.liveness;
    h_detail = a.Run.Artifact.detail;
    h_events_hash = a.Run.Artifact.events_hash;
    h_faults = Run.Artifact.fault_counters a;
  }

let run_case c = Option.map (of_artifact c) (Run.execute (spec c))

let cases ?(scenarios = Driver.scenario_names) ?(backends = Driver.backend_names)
    ?(seeds = [ 1; 2 ]) ?(plans = all_plans) () =
  List.concat_map
    (fun h_scenario ->
      List.concat_map
        (fun h_backend ->
          List.concat_map
            (fun h_seed ->
              List.map (fun h_plan -> { h_scenario; h_backend; h_seed; h_plan }) plans)
            seeds)
        backends)
    scenarios

(* Cases are embarrassingly parallel: the ambient plan is set inside the
   worker (per-domain), every case owns a private engine, and the pool
   preserves input order — the result list, the fingerprint table and
   the summary are identical at every [jobs] count. *)
let sweep_full ?(jobs = 1) ?scenarios ?backends ?seeds ?plans () =
  let cs = cases ?scenarios ?backends ?seeds ?plans () in
  Run.execute_many ~jobs (List.map spec cs)
  |> List.map2 (fun c -> Option.map (fun a -> (c, a))) cs
  |> List.filter_map Fun.id

let sweep ?jobs ?scenarios ?backends ?seeds ?plans () =
  List.map
    (fun (c, a) -> of_artifact c a)
    (sweep_full ?jobs ?scenarios ?backends ?seeds ?plans ())

(* A chaos case fails on a safety breach (invariant violation) or a
   liveness breach (a fault-tolerant scenario that did not recover
   within its deadline after the fault window closed) — same criterion
   as [Run.Artifact.anomalous]. *)
let failed r = r.h_violations <> [] || Run.Liveness.missed r.h_liveness
let failures results = List.filter failed results

(* The determinism fingerprint: one line per case with the verdict, the
   liveness cell and the event-stream hash.  Two runs of the same sweep
   — at any [-j] — must render byte-identical tables. *)
let table results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %-6s %-18s %-14s %s\n" "case" "ok" "events"
       "liveness" "verdict");
  List.iter
    (fun r ->
      let verdict =
        if failed r then
          String.concat "; "
            (List.map Run.Invariant.to_string r.h_violations
            @
            match r.h_liveness with
            | Run.Liveness.Missed why -> [ "liveness missed: " ^ why ]
            | _ -> [])
        else "pass"
      in
      Buffer.add_string buf
        (Printf.sprintf "%-40s %-6b %016Lx  %-14s %s\n" (case_name r.h_case)
           r.h_ok r.h_events_hash
           (Run.Liveness.to_cell r.h_liveness)
           verdict))
    results;
  Buffer.contents buf

let summary results =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = (r.h_case.h_scenario, plan_kind_name r.h_case.h_plan) in
      let runs, fails = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (runs + 1, if failed r then fails + 1 else fails))
    results;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %-14s %6s %6s\n" "scenario" "plan" "runs" "fail");
  List.iter
    (fun ((sc, pl), (runs, fails)) ->
      Buffer.add_string buf
        (Printf.sprintf "%-20s %-14s %6d %6d\n" sc pl runs fails))
    rows;
  Buffer.contents buf

let repro c = Run.repro (spec c)
