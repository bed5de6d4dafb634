type t = {
  spec : Spec.t;
  ok : bool;
  violations : Invariant.violation list;
  races : Analysis.Races.finding list;
  liveness : Liveness.verdict;
  detail : string;
  duration : Sim.Time.t;
  counters : (string * int) list;
  events_hash : int64;
  latency : Sim.Stats.Histogram.summary option;
}

let anomalous a = a.violations <> [] || Liveness.missed a.liveness
let strict_failed a = (not a.ok) || a.violations <> [] || a.races <> []

(* A faulted run may legitimately miss its scripted finale, so only a
   safety or liveness breach fails it. *)
let failed a = if a.spec.Spec.plan <> None then anomalous a else strict_failed a

(* The counters that tell the fault-tolerance story of a run: what the
   injector did, what screening spent, and what recovery cost. *)
let fault_counter_prefixes =
  [ "faults."; "lynx.call_"; "lynx.dup_"; "lynx.bodies_screened"; "recovery." ]

let fault_counters a =
  List.filter
    (fun (k, _) ->
      List.exists
        (fun p -> String.starts_with ~prefix:p k)
        fault_counter_prefixes)
    a.counters

(* ---- sweep tables --------------------------------------------------- *)

let faulted = List.exists (fun a -> a.spec.Spec.plan <> None)

(* Per-(scenario, axis) run/fail counts.  A faulted sweep varies the
   plan and an unfaulted one the policy, so the second column is
   whichever the artifacts carry. *)
let summary artifacts =
  let label, width, axis =
    if faulted artifacts then
      ( "plan",
        14,
        fun a -> Option.fold ~none:"-" ~some:Spec.plan_name a.spec.Spec.plan )
    else ("policy", 8, fun a -> Spec.policy_name a.spec.Spec.policy)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let key = (a.spec.Spec.scenario, axis a) in
      let runs, fails =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key)
      in
      Hashtbl.replace tbl key (runs + 1, if failed a then fails + 1 else fails))
    artifacts;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  let buf = Buffer.create 512 in
  let row sc ax runs fails =
    Buffer.add_string buf
      (Printf.sprintf "%-20s %-*s %6s %6s\n" sc width ax runs fails)
  in
  row "scenario" label "runs" "fail";
  List.iter
    (fun ((sc, ax), (runs, fails)) ->
      row sc ax (string_of_int runs) (string_of_int fails))
    rows;
  Buffer.contents buf

(* The determinism fingerprint: one line per run with the verdict, the
   liveness cell and the event-stream hash.  Two runs of the same sweep
   — at any [-j] — must render byte-identical tables. *)
let table artifacts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %-6s %-18s %-14s %s\n" "case" "ok" "events"
       "liveness" "verdict");
  List.iter
    (fun a ->
      let verdict =
        if failed a then
          String.concat "; "
            (List.map Invariant.to_string a.violations
            @
            match a.liveness with
            | Liveness.Missed why -> [ "liveness missed: " ^ why ]
            | _ -> [])
        else "pass"
      in
      Buffer.add_string buf
        (Printf.sprintf "%-40s %-6b %016Lx  %-14s %s\n" (Spec.to_string a.spec)
           a.ok a.events_hash
           (Liveness.to_cell a.liveness)
           verdict))
    artifacts;
  Buffer.contents buf

let races_report ~backend ~scenarios artifacts =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter2
    (fun sc a ->
      match a with
      | None -> pr "%-20s n/a on %s\n" sc backend
      | Some { races = []; _ } -> pr "%-20s clean\n" sc
      | Some { races; _ } ->
        pr "%-20s %d race(s)\n" sc (List.length races);
        List.iter
          (fun f ->
            Buffer.add_string buf
              (Format.asprintf "  %a@." Analysis.Races.pp_finding f))
          races)
    scenarios artifacts;
  Buffer.contents buf

(* ---- JSON rendering ------------------------------------------------- *)

let counters_json kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) kvs)

let json_body a =
  let num fmt = Printf.ksprintf (fun s -> Json.Num s) fmt in
  (* Reply-latency summary (workload scenarios only).  Omitted when
     absent so pre-workload artifact dumps stay byte-identical. *)
  let latency =
    match a.latency with
    | None -> []
    | Some s ->
      let open Sim.Stats.Histogram in
      let secs = Sim.Time.to_sec a.duration in
      let us t = num "%.3f" (Sim.Time.to_us t) in
      [
        ( "latency",
          Json.Obj
            [
              ("count", Json.int s.h_count);
              ( "throughput_rps",
                num "%.1f"
                  (if secs > 0. then float_of_int s.h_count /. secs else 0.) );
              ("mean_us", us s.h_mean);
              ("min_us", us s.h_min);
              ("p50_us", us s.h_p50);
              ("p99_us", us s.h_p99);
              ("p999_us", us s.h_p999);
              ("max_us", us s.h_max);
            ] );
      ]
  in
  [
    ("spec", Json.Str (Spec.to_string a.spec));
    ("ok", Json.int (Bool.to_int a.ok));
    ("detail", Json.Str a.detail);
    ("duration_ms", num "%.6f" (Sim.Time.to_ms a.duration));
    ("events_hash", Json.Str (Printf.sprintf "%016Lx" a.events_hash));
    ("violations", Json.indexed Invariant.to_string a.violations);
    ( "races",
      Json.indexed (Format.asprintf "%a" Analysis.Races.pp_finding) a.races );
    ("liveness", Json.Str (Liveness.to_string a.liveness));
  ]
  @ latency
  @ [
      (* The fault/screening/recovery counter slice, pre-filtered so CI
         scripts can diff the fault-tolerance story without knowing the
         prefix list. *)
      ("faults", counters_json (fault_counters a));
      ("counters", counters_json a.counters);
    ]

let to_json a = Json.to_string (Json.document (json_body a))

let list_to_json artifacts =
  Json.to_string
    (Json.document
       [
         ("runs", Json.int (List.length artifacts));
         ( "artifacts",
           Json.Obj
             (List.map
                (fun a -> (Spec.to_string a.spec, Json.Obj (json_body a)))
                artifacts) );
       ])
