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
  let total = ref 0 in
  List.iter2
    (fun sc a ->
      match a with
      | None -> pr "%-20s n/a on %s\n" sc backend
      | Some { races = []; _ } -> pr "%-20s clean\n" sc
      | Some { races; _ } ->
        total := !total + List.length races;
        pr "%-20s %d race(s)\n" sc (List.length races);
        List.iter
          (fun f ->
            Buffer.add_string buf
              (Format.asprintf "  %a@." Analysis.Races.pp_finding f))
          races)
    scenarios artifacts;
  (Buffer.contents buf, !total)

(* ---- JSON rendering ------------------------------------------------- *)

(* The writer stays within the subset bench/compare.exe parses: objects,
   strings and numbers only.  No arrays, no booleans, no null. *)

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

let indexed_obj buf ~indent render = function
  | [] -> Buffer.add_string buf "{}"
  | items ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf "%s  \"%d\": \"%s\"" indent i (escape (render item))))
      items;
    Buffer.add_string buf (Printf.sprintf "\n%s}" indent)

let add_body buf ~indent a =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let field ?(last = false) k render =
    pr "%s\"%s\": " indent k;
    render ();
    if not last then Buffer.add_string buf ",";
    Buffer.add_string buf "\n"
  in
  field "spec" (fun () -> pr "\"%s\"" (escape (Spec.to_string a.spec)));
  field "ok" (fun () -> pr "%d" (if a.ok then 1 else 0));
  field "detail" (fun () -> pr "\"%s\"" (escape a.detail));
  field "duration_ms" (fun () -> pr "%.6f" (Sim.Time.to_ms a.duration));
  field "events_hash" (fun () -> pr "\"%016Lx\"" a.events_hash);
  field "violations" (fun () ->
      indexed_obj buf ~indent Invariant.to_string a.violations);
  field "races" (fun () ->
      indexed_obj buf ~indent
        (Format.asprintf "%a" Analysis.Races.pp_finding)
        a.races);
  field "liveness" (fun () ->
      pr "\"%s\"" (escape (Liveness.to_string a.liveness)));
  (* Reply-latency summary (workload scenarios only).  Omitted when
     absent so pre-workload artifact dumps stay byte-identical. *)
  (match a.latency with
  | None -> ()
  | Some s ->
    let open Sim.Stats.Histogram in
    let throughput =
      if Sim.Time.to_sec a.duration > 0. then
        float_of_int s.h_count /. Sim.Time.to_sec a.duration
      else 0.
    in
    field "latency" (fun () ->
        pr "{\n";
        pr "%s  \"count\": %d,\n" indent s.h_count;
        pr "%s  \"throughput_rps\": %.1f,\n" indent throughput;
        pr "%s  \"mean_us\": %.3f,\n" indent (Sim.Time.to_us s.h_mean);
        pr "%s  \"min_us\": %.3f,\n" indent (Sim.Time.to_us s.h_min);
        pr "%s  \"p50_us\": %.3f,\n" indent (Sim.Time.to_us s.h_p50);
        pr "%s  \"p99_us\": %.3f,\n" indent (Sim.Time.to_us s.h_p99);
        pr "%s  \"p999_us\": %.3f,\n" indent (Sim.Time.to_us s.h_p999);
        pr "%s  \"max_us\": %.3f\n" indent (Sim.Time.to_us s.h_max);
        pr "%s}" indent));
  field "faults" (fun () ->
      (* The fault/screening/recovery counter slice, pre-filtered so CI
         scripts can diff the fault-tolerance story without knowing the
         prefix list. *)
      match fault_counters a with
      | [] -> pr "{}"
      | fc ->
        pr "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then pr ",\n";
            pr "%s  \"%s\": %d" indent (escape k) v)
          fc;
        pr "\n%s}" indent);
  field ~last:true "counters" (fun () ->
      match a.counters with
      | [] -> pr "{}"
      | counters ->
        pr "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then pr ",\n";
            pr "%s  \"%s\": %d" indent (escape k) v)
          counters;
        pr "\n%s}" indent)

let to_json a =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"lynx-run/1\",\n";
  add_body buf ~indent:"  " a;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let list_to_json artifacts =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "{\n  \"schema\": \"lynx-run/1\",\n";
  pr "  \"runs\": %d,\n" (List.length artifacts);
  pr "  \"artifacts\": ";
  (match artifacts with
  | [] -> pr "{}"
  | artifacts ->
    pr "{\n";
    List.iteri
      (fun i a ->
        if i > 0 then pr ",\n";
        pr "    \"%s\": {\n" (escape (Spec.to_string a.spec));
        add_body buf ~indent:"      " a;
        pr "    }")
      artifacts;
    pr "\n  }");
  pr "\n}\n";
  Buffer.contents buf
