(* The soundness cross-check: every race the dynamic detector reports
   anywhere in a sweep must sit inside the static prediction set of the
   scenario's catalog protocol.  The static pass over-approximates
   concurrency, so a dynamic finding it missed means one of the two is
   wrong — the protocol model drifted from the scenario, the static
   rules lost soundness, or the dynamic detector found a rule the
   static side does not mirror.  All three are bugs worth failing CI
   over.

   Containment is judged at (scenario, rule) granularity: dynamic
   findings name backend-internal objects (soda.n3.*, chry.o2.slot0,
   ...) that no static view can know, so the check asks "did the static
   pass predict that this *kind* of race is possible in this scenario
   at all", which is exactly the claim the over-approximation makes.
   The unobserved remainder of the prediction set is the coverage
   signal: pairs the sweeps have never driven into the dynamic
   detector's view. *)

type gap = {
  g_spec : Spec.t;
  g_race : Analysis.Races.finding;
  g_reason : string;
}

let predictions_cached cache scenario =
  match Hashtbl.find_opt cache scenario with
  | Some preds -> preds
  | None ->
    let preds =
      Option.map Analysis.Static.predict (Analysis.Catalog.find scenario)
    in
    Hashtbl.add cache scenario preds;
    preds

let gaps_of cache (a : Artifact.t) =
  match a.Artifact.races with
  | [] -> []
  | races ->
    let scenario = a.Artifact.spec.Spec.scenario in
    let preds = predictions_cached cache scenario in
    List.filter_map
      (fun (f : Analysis.Races.finding) ->
        let gap reason =
          Some { g_spec = a.Artifact.spec; g_race = f; g_reason = reason }
        in
        match Analysis.Static.rule_of_race f.Analysis.Races.r_rule with
        | None ->
          gap
            (Printf.sprintf "dynamic rule %s has no static counterpart"
               f.Analysis.Races.r_rule)
        | Some rule -> (
          match preds with
          | None ->
            gap
              (Printf.sprintf "scenario %s has no catalog protocol" scenario)
          | Some preds ->
            if
              List.exists
                (fun (p : Analysis.Static.prediction) ->
                  p.Analysis.Static.p_rule = rule)
                preds
            then None
            else
              gap
                (Printf.sprintf "no %s prediction for scenario %s"
                   (Analysis.Static.rule_name rule)
                   scenario)))
      races

let check artifacts =
  let cache = Hashtbl.create 16 in
  List.concat_map (gaps_of cache) artifacts

let gap_line g =
  Printf.sprintf "%s: %s %s — %s" (Spec.to_string g.g_spec)
    g.g_race.Analysis.Races.r_rule g.g_race.Analysis.Races.r_obj g.g_reason

let report gaps =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if gaps = [] then pr "soundness: every dynamic race finding was predicted\n"
  else begin
    pr "SOUNDNESS GAP: %d dynamic race finding(s) outside the static \
       prediction set\n"
      (List.length gaps);
    List.iter (fun g -> pr "  %s\n" (gap_line g)) gaps
  end;
  Buffer.contents buf

(* ---- coverage: the predictions a sweep never drove into the dynamic
   detector's view.  These are not failures — the static pass promises
   containment, not exactness — but they are the map of where schedule
   exploration is still blind (ROADMAP item 5's seed input). *)

type coverage_line = {
  c_scenario : string;
  c_prediction : Analysis.Static.prediction;
  c_observed : bool;
}

let coverage artifacts =
  let scenarios =
    List.fold_left
      (fun acc (a : Artifact.t) ->
        let sc = a.Artifact.spec.Spec.scenario in
        if List.mem sc acc then acc else acc @ [ sc ])
      [] artifacts
  in
  let observed = Hashtbl.create 16 in
  List.iter
    (fun (a : Artifact.t) ->
      List.iter
        (fun (f : Analysis.Races.finding) ->
          match Analysis.Static.rule_of_race f.Analysis.Races.r_rule with
          | Some rule ->
            Hashtbl.replace observed (a.Artifact.spec.Spec.scenario, rule) ()
          | None -> ())
        a.Artifact.races)
    artifacts;
  List.concat_map
    (fun sc ->
      match Analysis.Catalog.find sc with
      | None -> []
      | Some proto ->
        List.map
          (fun (p : Analysis.Static.prediction) ->
            {
              c_scenario = sc;
              c_prediction = p;
              c_observed =
                Hashtbl.mem observed (sc, p.Analysis.Static.p_rule);
            })
          (Analysis.Static.predict proto))
    scenarios

let coverage_report artifacts =
  let lines = coverage artifacts in
  let unobserved = List.filter (fun l -> not l.c_observed) lines in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "static coverage: %d prediction(s), %d observed dynamically, %d never \
     observed\n"
    (List.length lines)
    (List.length lines - List.length unobserved)
    (List.length unobserved);
  List.iter
    (fun l ->
      pr "  %s %s\n"
        (if l.c_observed then "seen  " else "unseen")
        (Format.asprintf "%a" Analysis.Static.pp_prediction l.c_prediction))
    lines;
  Buffer.contents buf

(* ---- the static report: each protocol's predictions, then the
   soundness sweep's gaps and coverage when one ran. *)

let static_report ~json ~seeds targets sweep =
  let module St = Analysis.Static in
  let analysed = List.map (fun (name, p) -> (name, St.predict p)) targets in
  let alarms = List.concat_map (fun (_, preds) -> St.alarms preds) analysed in
  let gaps = Option.fold ~none:[] ~some:check sweep in
  let pred = Format.asprintf "%a" St.pp_prediction in
  let rendered =
    if json then
      let protocol (name, preds) =
        ( name,
          Json.Obj
            [
              ("predictions", Json.indexed pred preds);
              ("alarms", Json.int (List.length (St.alarms preds)));
            ] )
      in
      let soundness artifacts =
        let seen l =
          (if l.c_observed then "seen " else "unseen ") ^ pred l.c_prediction
        in
        [
          ( "soundness",
            Json.Obj
              [
                ("runs", Json.int (List.length artifacts));
                ("gaps", Json.indexed gap_line gaps);
                ("coverage", Json.indexed seen (coverage artifacts));
              ] );
        ]
      in
      Json.to_string
        (Json.document
           ([
              ("protocols", Json.Obj (List.map protocol analysed));
              ("alarms", Json.int (List.length alarms));
            ]
           @ Option.fold ~none:[] ~some:soundness sweep))
    else begin
      let buf = Buffer.create 1024 in
      let pr fmt = Printf.bprintf buf fmt in
      List.iter
        (fun (name, preds) ->
          if preds = [] then pr "%-20s no concurrency predicted\n" name
          else begin
            pr "%-20s %d prediction(s), %d alarm(s)\n" name (List.length preds)
              (List.length (St.alarms preds));
            List.iter (fun p -> pr "  %s\n" (pred p)) preds
          end)
        analysed;
      Option.iter
        (fun artifacts ->
          pr "\nsoundness sweep: %d runs (all backends, seeds 1..%d, every \
              plan)\n"
            (List.length artifacts) seeds;
          pr "%s\n%s" (report gaps) (coverage_report artifacts))
        sweep;
      Buffer.contents buf
    end
  in
  (rendered, List.length alarms + List.length gaps)
