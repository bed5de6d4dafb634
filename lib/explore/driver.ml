open Sim
module BW = Harness.Backend_world
module S = Harness.Scenarios

(* The driver is a thin plan-builder over the run core: it enumerates
   the case product, maps [Run.execute] over the domain pool, and
   renders reports.  All execution, judging and fingerprinting live in
   lib/run. *)

type policy_kind = Run.Spec.policy = Fifo | Random | Jitter

let policy_kind_name = Run.Spec.policy_name
let policy_kind_of_string = Run.Spec.policy_of_string
let all_policies = Run.Spec.all_policies
let engine_policy = Run.Spec.engine_policy

type case = {
  c_scenario : string;
  c_backend : string;
  c_seed : int;
  c_policy : policy_kind;
}

type result = {
  r_case : case;
  r_ok : bool;
  r_violations : Run.Invariant.violation list;
  r_races : Analysis.Races.finding list;
  r_detail : string;
  r_duration : Time.t;
  r_events_hash : int64;
}

let spec c =
  {
    Run.Spec.scenario = c.c_scenario;
    backend = c.c_backend;
    seed = c.c_seed;
    policy = c.c_policy;
    plan = None;
    population = None;
    shards = 1;
  }

let case_name c = Run.Spec.to_string (spec c)
let scenario_names = S.names
let backend_names = BW.names

let of_artifact case (a : Run.Artifact.t) =
  {
    r_case = case;
    r_ok = a.Run.Artifact.ok;
    r_violations = a.Run.Artifact.violations;
    r_races = a.Run.Artifact.races;
    r_detail = a.Run.Artifact.detail;
    r_duration = a.Run.Artifact.duration;
    r_events_hash = a.Run.Artifact.events_hash;
  }

let assess case (o : S.outcome) = of_artifact case (Run.judge (spec case) o)

let run_case case = Option.map (of_artifact case) (Run.execute (spec case))

let cases ?(scenarios = scenario_names) ?(backends = backend_names)
    ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(policies = [ Fifo; Random ]) () =
  List.concat_map
    (fun c_scenario ->
      List.concat_map
        (fun c_backend ->
          List.concat_map
            (fun c_seed ->
              List.map
                (fun c_policy -> { c_scenario; c_backend; c_seed; c_policy })
                policies)
            seeds)
        backends)
    scenarios

(* Each case owns a private engine and stats table, so cases are
   embarrassingly parallel; the pool preserves input order, which makes
   the aggregated result list — and anything rendered from it —
   byte-identical at every [jobs] count. *)
let sweep_full ?(jobs = 1) ?scenarios ?backends ?seeds ?policies () =
  let cs = cases ?scenarios ?backends ?seeds ?policies () in
  Run.execute_many ~jobs (List.map spec cs)
  |> List.map2 (fun c -> Option.map (fun a -> (c, a))) cs
  |> List.filter_map Fun.id

let sweep ?jobs ?scenarios ?backends ?seeds ?policies () =
  List.map
    (fun (c, a) -> of_artifact c a)
    (sweep_full ?jobs ?scenarios ?backends ?seeds ?policies ())

let soundness_gaps pairs = Run.Soundness.check (List.map snd pairs)

let failed r = (not r.r_ok) || r.r_violations <> [] || r.r_races <> []
let failures results = List.filter failed results

let repro case = Run.repro (spec case)

(* The races command's per-scenario report, rendered to a string so the
   golden tests can pin it byte-for-byte across detector refactors.
   [artifacts] must align with [scenarios] ([None] = not applicable on
   this backend, exactly what [Run.execute_many] returns). *)
let races_report ~backend ~scenarios artifacts =
  let buf = Buffer.create 1024 in
  let total = ref 0 in
  List.iter2
    (fun sc a ->
      match a with
      | None ->
        Buffer.add_string buf (Printf.sprintf "%-20s n/a on %s\n" sc backend)
      | Some (a : Run.Artifact.t) ->
        let races = a.Run.Artifact.races in
        total := !total + List.length races;
        if races = [] then
          Buffer.add_string buf (Printf.sprintf "%-20s clean\n" sc)
        else begin
          Buffer.add_string buf
            (Printf.sprintf "%-20s %d race(s)\n" sc (List.length races));
          List.iter
            (fun f ->
              Buffer.add_string buf
                (Format.asprintf "  %a@." Analysis.Races.pp_finding f))
            races
        end)
    scenarios artifacts;
  (Buffer.contents buf, !total)

let summary results =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = (r.r_case.c_scenario, policy_kind_name r.r_case.c_policy) in
      let runs, fails =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key)
      in
      Hashtbl.replace tbl key
        (runs + 1, if failed r then fails + 1 else fails))
    results;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %-8s %6s %6s\n" "scenario" "policy" "runs" "fail");
  List.iter
    (fun ((sc, pol), (runs, fails)) ->
      Buffer.add_string buf
        (Printf.sprintf "%-20s %-8s %6d %6d\n" sc pol runs fails))
    rows;
  Buffer.contents buf
