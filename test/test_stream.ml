(* Differential suite for the streaming analyses (lib/analysis/stream,
   the incremental race detector, and the streamed run pipeline).

   The streaming detector must be *provably* batch-equivalent, so the
   reference implementation here — [Batch] — is the pre-streaming
   detector kept verbatim: whole-log indexing into frozen arrival-order
   arrays, rules over array suffixes and binary-searched prefix ranges.
   QCheck then drives both over randomized synthetic event streams
   (clock structure included), and over the real scenario × backend ×
   seed × fault-plan product, where the streamed pipeline must also
   equal the post-hoc judge on the retained log — sequentially, on the
   -j 4 domain pool, and at bounded ring capacities. *)

open Sim
module R = Analysis.Races
module Stream = Analysis.Stream
module S = Harness.Scenarios
module Spec = Run.Spec

(* ---- the reference detector (pre-streaming, kept verbatim) ------------ *)

module Batch = struct
  type acc = {
    mutable a_sends : (int * int * string * Vclock.t) list;
    mutable a_n_recvs : int;
    mutable a_queued_sigs : (int * int * Vclock.t) list;
    mutable a_seens : (int * Vclock.t) list;
    mutable a_n_wakes : int;
    mutable a_waits : (int * int * Vclock.t) list;
    mutable a_moves : (int * int * Vclock.t) list;
  }

  let fresh () =
    {
      a_sends = [];
      a_n_recvs = 0;
      a_queued_sigs = [];
      a_seens = [];
      a_n_wakes = 0;
      a_waits = [];
      a_moves = [];
    }

  type slot = {
    sends : (int * int * string * Vclock.t) array;
    n_recvs : int;
    queued_sigs : (int * int * Vclock.t) array;
    seens : (int * Vclock.t) array;
    n_wakes : int;
    waits : (int * int * Vclock.t) array;
    moves : (int * int * Vclock.t) array;
  }

  let freeze a =
    let arr l = Array.of_list (List.rev l) in
    {
      sends = arr a.a_sends;
      n_recvs = a.a_n_recvs;
      queued_sigs = arr a.a_queued_sigs;
      seens = arr a.a_seens;
      n_wakes = a.a_n_wakes;
      waits = arr a.a_waits;
      moves = arr a.a_moves;
    }

  let index (events : Event.t array) =
    let tbl = Hashtbl.create 64 in
    let slot obj =
      match Hashtbl.find_opt tbl obj with
      | Some s -> s
      | None ->
        let s = fresh () in
        Hashtbl.add tbl obj s;
        s
    in
    Array.iteri
      (fun pos (ev : Event.t) ->
        let fid = ev.Event.ev_fiber and clk = ev.Event.ev_clock in
        match ev.Event.ev_kind with
        | Event.Send { obj; op; _ } ->
          let s = slot obj in
          s.a_sends <- (pos, fid, op, clk) :: s.a_sends
        | Event.Receive { obj; _ } ->
          let s = slot obj in
          s.a_n_recvs <- s.a_n_recvs + 1
        | Event.Signal { obj; woke = false } ->
          let s = slot obj in
          s.a_queued_sigs <- (pos, fid, clk) :: s.a_queued_sigs
        | Event.Signal { obj; woke = true } ->
          let s = slot obj in
          s.a_n_wakes <- s.a_n_wakes + 1
        | Event.Signal_seen { obj } ->
          let s = slot obj in
          s.a_seens <- (pos, clk) :: s.a_seens
        | Event.Wait { obj } ->
          let s = slot obj in
          s.a_waits <- (pos, fid, clk) :: s.a_waits
        | Event.Link_move { obj } ->
          let s = slot obj in
          s.a_moves <- (pos, fid, clk) :: s.a_moves
        | Event.Spawn _ | Event.Crash _ | Event.Note _ | Event.Block _
        | Event.Drop _ | Event.Fault _ ->
          ())
      events;
    let frozen = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter (fun obj a -> Hashtbl.add frozen obj (freeze a)) tbl;
    frozen

  let sorted_objs tbl =
    let objs = Array.of_seq (Hashtbl.to_seq_keys tbl) in
    Array.sort compare objs;
    objs

  let starts_with ~prefix s =
    String.length s > String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let lower_bound (objs : string array) key =
    let lo = ref 0 and hi = ref (Array.length objs) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare objs.(mid) key < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let message_races tbl objs =
    List.filter_map
      (fun obj ->
        let s = Hashtbl.find tbl obj in
        let sends = s.sends in
        let first = ref None in
        let count = ref 0 in
        Array.iteri
          (fun i (_, fi, opi, ci) ->
            for j = i + 1 to Array.length sends - 1 do
              let _, fj, opj, cj = sends.(j) in
              if Vclock.concurrent ci cj then begin
                incr count;
                if !first = None then first := Some (fi, opi, fj, opj)
              end
            done)
          sends;
        match !first with
        | None -> None
        | Some (fi, opi, fj, opj) ->
          Some
            {
              R.r_rule = "R-MSG";
              r_obj = obj;
              r_detail =
                Printf.sprintf
                  "sends %S (fiber #%d) and %S (fiber #%d) are concurrent: \
                   arrival order is a scheduler accident (%d pair%s)"
                  opi fi opj fj !count
                  (if !count = 1 then "" else "s");
            })
      (Array.to_list objs)

  let signal_races tbl objs =
    List.filter_map
      (fun obj ->
        let s = Hashtbl.find tbl obj in
        let n_seens = Array.length s.seens in
        let n_waits = Array.length s.waits in
        let find_from arr start f =
          let n = Array.length arr in
          let rec go i =
            if i >= n then None
            else match f arr.(i) with Some _ as r -> r | None -> go (i + 1)
          in
          go start
        in
        let blocked_miss =
          find_from s.queued_sigs n_seens (fun (_, sfid, sclk) ->
              find_from s.waits s.n_wakes (fun (_, wfid, wclk) ->
                  if Vclock.concurrent sclk wclk then Some (sfid, wfid)
                  else None))
        in
        let latched_miss =
          if n_waits > 0 then None
          else
            find_from s.queued_sigs n_seens (fun (spos, sfid, sclk) ->
                find_from s.seens 0 (fun (npos, nclk) ->
                    if npos > spos && Vclock.concurrent sclk nclk then
                      Some sfid
                    else None))
        in
        match (blocked_miss, latched_miss) with
        | Some (sfid, wfid), _ ->
          Some
            {
              R.r_rule = "R-SIG";
              r_obj = obj;
              r_detail =
                Printf.sprintf
                  "signal queued by fiber #%d was never consumed while \
                   fiber #%d blocked concurrently and was never woken: \
                   lost-signal window"
                  sfid wfid;
            }
        | None, Some sfid ->
          Some
            {
              R.r_rule = "R-SIG";
              r_obj = obj;
              r_detail =
                Printf.sprintf
                  "signal latched by fiber #%d was skipped by a concurrent \
                   drain and never seen: lost interrupt"
                  sfid;
            }
        | None, None -> None)
      (Array.to_list objs)

  let move_races tbl objs =
    List.filter_map
      (fun mobj ->
        let ms = Hashtbl.find tbl mobj in
        if Array.length ms.moves = 0 then None
        else
          let prefix = mobj ^ "." in
          let start = lower_bound objs prefix in
          let n = Array.length objs in
          let rec scan_queues i =
            if i >= n || not (starts_with ~prefix objs.(i)) then None
            else
              let qobj = objs.(i) in
              let qs = Hashtbl.find tbl qobj in
              let n_recvs = qs.n_recvs in
              let n_sends = Array.length qs.sends in
              let rec scan_sends si =
                if si >= n_sends then None
                else if si < n_recvs then scan_sends (si + 1)
                else
                  let _, sfid, op, sclk = qs.sends.(si) in
                  let n_moves = Array.length ms.moves in
                  let rec scan_moves mi =
                    if mi >= n_moves then None
                    else
                      let _, mfid, mclk = ms.moves.(mi) in
                      if Vclock.concurrent sclk mclk then
                        Some (qobj, op, sfid, mfid)
                      else scan_moves (mi + 1)
                  in
                  (match scan_moves 0 with
                  | Some _ as hit -> hit
                  | None -> scan_sends (si + 1))
              in
              (match scan_sends 0 with
              | Some _ as hit -> hit
              | None -> scan_queues (i + 1))
          in
          match scan_queues start with
          | None -> None
          | Some (qobj, op, sfid, mfid) ->
            Some
              {
                R.r_rule = "R-MOVE";
                r_obj = mobj;
                r_detail =
                  Printf.sprintf
                    "link-end transfer (fiber #%d) races in-flight %S from \
                     fiber #%d on %s: the message was never received"
                    mfid op sfid qobj;
              })
      (Array.to_list objs)

  let analyze events =
    let tbl = index events in
    let objs = sorted_objs tbl in
    message_races tbl objs @ signal_races tbl objs @ move_races tbl objs
end

(* ---- synthetic stream generator --------------------------------------- *)

(* Objects share prefixes so R-MOVE's range scan is exercised; several
   fibers with occasionally merged clocks yield a mix of ordered and
   concurrent pairs for every rule. *)
let queue_objs =
  [| "L1.e0"; "L1.e0.req"; "L1.e0.rep"; "L2.e1"; "L2.e1.req"; "sig0"; "sig1" |]

let move_objs = [| "L1.e0"; "L2.e1" |]

let build_events nfibers steps =
  let clocks = Array.init nfibers (fun i -> Vclock.tick Vclock.empty i) in
  let time = ref 0 in
  List.map
    (fun (f, k, m) ->
      if m mod 3 = 0 then
        clocks.(f) <- Vclock.merge clocks.(f) clocks.((f + 1 + m) mod nfibers);
      clocks.(f) <- Vclock.tick clocks.(f) f;
      if m mod 2 = 0 then incr time;
      let obj = queue_objs.(k mod Array.length queue_objs) in
      let kind =
        match k mod 8 with
        | 0 -> Event.Send { obj; op = "op" ^ string_of_int (k mod 3); unordered = false }
        | 1 -> Event.Receive { obj; op = "op" }
        | 2 -> Event.Signal { obj; woke = false }
        | 3 -> Event.Signal { obj; woke = true }
        | 4 -> Event.Signal_seen { obj }
        | 5 -> Event.Wait { obj }
        | 6 -> Event.Link_move { obj = move_objs.(k mod Array.length move_objs) }
        | _ -> Event.Block { reason = "r" }
      in
      {
        Event.ev_time = Time.ms !time;
        ev_fiber = f;
        ev_clock = clocks.(f);
        ev_kind = kind;
      })
    steps

let events_arb =
  let open QCheck in
  let gen =
    Gen.(
      int_range 2 4 >>= fun nfibers ->
      int_range 10 120 >>= fun n ->
      list_repeat n
        (triple (int_bound (nfibers - 1)) (int_bound 1000) (int_bound 11))
      >|= fun steps -> (nfibers, steps))
  in
  make
    ~print:(fun (nfibers, steps) ->
      String.concat "\n"
        (List.map Event.describe (build_events nfibers steps)))
    gen

let render (f : R.finding) =
  Printf.sprintf "%s %s: %s" f.R.r_rule f.R.r_obj f.R.r_detail

(* Property 1: on arbitrary synthetic streams (clock structure and all),
   the incremental detector equals the reference batch detector. *)
let prop_synthetic_equal =
  QCheck.Test.make ~count:1000
    ~name:"streaming detector == batch reference on synthetic streams"
    events_arb
    (fun (nfibers, steps) ->
      let events = Array.of_list (build_events nfibers steps) in
      List.map render (R.analyze events)
      = List.map render (Batch.analyze events))

(* Property 2: findings survive being fed one event at a time with
   intermediate conclusions (the state stays usable after [findings]). *)
let prop_incremental_refeed =
  QCheck.Test.make ~count:200
    ~name:"feeding with intermediate conclusions changes nothing"
    events_arb
    (fun (nfibers, steps) ->
      let events = Array.of_list (build_events nfibers steps) in
      let st = R.init () in
      Array.iteri
        (fun i ev ->
          R.feed st ev;
          if i mod 17 = 0 then ignore (R.findings st))
        events;
      List.map render (R.findings st)
      = List.map render (Batch.analyze events))

(* The differential is only as strong as the streams are interesting:
   every rule must actually fire somewhere in the sampled space, or the
   equality above could be vacuously comparing empty lists. *)
let test_generator_not_vacuous () =
  let rand = Random.State.make [| 42 |] in
  let seen = Hashtbl.create 3 in
  for _ = 1 to 300 do
    let nfibers, steps =
      QCheck.Gen.generate1 ~rand (QCheck.gen events_arb)
    in
    List.iter
      (fun (f : R.finding) -> Hashtbl.replace seen f.R.r_rule ())
      (R.analyze (Array.of_list (build_events nfibers steps)))
  done;
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " exercised") true (Hashtbl.mem seen rule))
    [ "R-MSG"; "R-SIG"; "R-MOVE" ]

(* ---- scenario-product differential ------------------------------------ *)

let primaries = [ "charlotte"; "soda"; "chrysalis" ]

let spec_arb =
  let open QCheck in
  let gen =
    Gen.(
      map
        (fun (scenario, backend, seed, policy, plan) ->
          {
            Spec.scenario;
            backend;
            seed;
            policy;
            plan;
            population = None;
            shards = 1;
          })
        (tup5 (oneofl S.names) (oneofl primaries) (int_range 1 6)
           (oneofl Spec.all_policies)
           (oneofl (None :: List.map Option.some Spec.all_plans))))
  in
  make ~print:Spec.to_string gen

(* The post-hoc reference: run the scenario, then judge from the fully
   retained log — [Run.judge] analyzes [v_events] directly, exactly as
   the pipeline did before streaming. *)
let posthoc spec =
  match Run.run_outcome spec with
  | None -> None
  | Some o -> Some (Run.judge spec o)
  | exception _ when spec.Spec.plan <> None -> None

let prop_pipeline_differential =
  QCheck.Test.make ~count:60
    ~name:"streamed execute == post-hoc judge on the scenario product"
    spec_arb
    (fun spec ->
      match posthoc spec with
      | None -> QCheck.assume_fail ()
      | Some reference -> (
        match Run.execute spec with
        | None -> false
        | Some streamed ->
          streamed = reference
          (* and the verdict must not depend on retention *)
          && Run.execute ~log_capacity:5 spec = Some reference
          && Run.execute ~log_capacity:0 spec = Some reference))

(* ---- fixed matrix, including -j 4 ------------------------------------- *)

let matrix_specs =
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun backend ->
          List.concat_map
            (fun seed ->
              List.map
                (fun plan ->
                  Spec.v ?plan ~policy:Spec.Fifo ~scenario ~backend seed)
                [ None; Some Spec.Drop; Some Spec.Mix ])
            [ 1; 2 ])
        primaries)
    [ "move"; "cross-request"; "open-close"; "hint-repair" ]

let check_artifacts = Alcotest.(check (list (option string)))

let show_artifact (a : Run.Artifact.t) =
  Printf.sprintf "%s ok=%b viol=[%s] races=[%s] hash=%016Lx detail=%s"
    (Spec.to_string a.Run.Artifact.spec)
    a.Run.Artifact.ok
    (String.concat "; "
       (List.map Run.Invariant.to_string a.Run.Artifact.violations))
    (String.concat "; " (List.map render a.Run.Artifact.races))
    a.Run.Artifact.events_hash a.Run.Artifact.detail

let test_matrix_jobs4 () =
  let reference = List.map posthoc matrix_specs in
  let show = List.map (Option.map show_artifact) in
  check_artifacts "sequential streamed == post-hoc" (show reference)
    (show (Run.execute_many ~jobs:1 matrix_specs));
  check_artifacts "-j 4 streamed == post-hoc" (show reference)
    (show (Run.execute_many ~jobs:4 matrix_specs));
  check_artifacts "-j 4 ring-bounded == post-hoc" (show reference)
    (show (Run.execute_many ~jobs:4 ~log_capacity:7 matrix_specs))

(* ---- bounded retention ------------------------------------------------ *)

let test_bounded_retention () =
  let spec = Spec.v ~scenario:"move" ~backend:"charlotte" 1 in
  let view_of cap =
    match Run.execute_full ?log_capacity:cap spec with
    | Some (Some o, a) -> (o.S.o_view, a)
    | _ -> Alcotest.fail "spec did not run"
  in
  let v_u, a_u = view_of None in
  let v_b, a_b = view_of (Some 5) in
  let total_u =
    Array.length v_u.Engine.v_events + v_u.Engine.v_events_dropped
  in
  Alcotest.(check int)
    "retained bounded by capacity" 5
    (Array.length v_b.Engine.v_events);
  Alcotest.(check int)
    "drop accounting exact"
    (total_u - 5)
    v_b.Engine.v_events_dropped;
  Alcotest.(check string)
    "artifact independent of retention" (show_artifact a_u)
    (show_artifact a_b);
  Alcotest.(check bool)
    "fingerprint exact under ring" true
    (Int64.equal v_u.Engine.v_events_hash v_b.Engine.v_events_hash)

(* ---- Stream.of_events == streaming feed -------------------------------- *)

let test_of_events_matches_live () =
  let spec = Spec.v ~scenario:"cross-request" ~backend:"soda" 3 in
  let o, state = Run.run_streamed spec in
  let o = Option.get o in
  let live = Stream.finish state in
  let replay = Stream.of_events o.S.o_view.Engine.v_events in
  Alcotest.(check int)
    "event count" live.Stream.s_events replay.Stream.s_events;
  Alcotest.(check int) "sends" live.Stream.s_sends replay.Stream.s_sends;
  Alcotest.(check int)
    "receives" live.Stream.s_receives replay.Stream.s_receives;
  Alcotest.(check (list string))
    "races"
    (List.map render live.Stream.s_races)
    (List.map render replay.Stream.s_races);
  Alcotest.(check bool)
    "monotone" true
    (live.Stream.s_backwards = None && replay.Stream.s_backwards = None)

(* ---- per-event allocation ------------------------------------------- *)

(* The whole event stream of one run, recorded in the engine's append
   log. *)
let recorded spec =
  match Run.run_outcome (Spec.of_string_exn spec) with
  | Some o -> o.S.o_view.Engine.v_events
  | None -> Alcotest.failf "%s did not run" spec

let farm n = "wl-farm-open/chrysalis/1/fifo~n" ^ n
let farm_1k = lazy (recorded (farm "1K"))

let stream_words events =
  let t = Stream.init () in
  Budgets.words_per_event (fun ev -> ignore (Stream.feed ev t)) events

let races_words events =
  Budgets.words_per_event (R.feed (R.init ())) events

let test_analyser_words () =
  let events = Lazy.force farm_1k in
  let stream = stream_words events and races = races_words events in
  Budgets.gate "Stream.feed" ~budget:Budgets.stream_feed stream;
  Budgets.gate "Races.feed" ~budget:Budgets.races_feed races;
  Budgets.exact "Stream.feed beyond Races.feed"
    ~budget:Budgets.stream_over_races (stream -. races)

(* Nothing on the per-event path may cost O(fibers): a farm four times
   the size must cost the same words per event. *)
let test_population_independent () =
  Budgets.gate "n4K against n1K"
    ~budget:(stream_words (Lazy.force farm_1k))
    (stream_words (recorded (farm "4K")))

(* The whole observed pipeline on the same farm — engine, streaming
   analyser and judge, nothing retained — per event of its stream: a
   consumer that does work, added anywhere on the emit path, shows up
   here. *)
let test_pipeline_words () =
  let spec = Spec.of_string_exn (farm "1K") in
  let events = float (Array.length (Lazy.force farm_1k)) in
  Budgets.gate "Run.execute" ~budget:Budgets.pipeline_event
    (Budgets.words_per_iter ~warm:1 ~iters:1 (fun n ->
         for _ = 1 to n do
           ignore (Run.execute spec)
         done)
    /. events)

let () =
  Alcotest.run "stream"
    [
      ( "detector",
        [
          QCheck_alcotest.to_alcotest prop_synthetic_equal;
          QCheck_alcotest.to_alcotest prop_incremental_refeed;
          Alcotest.test_case "every rule fires in the sampled space" `Quick
            test_generator_not_vacuous;
        ] );
      ( "pipeline",
        [
          QCheck_alcotest.to_alcotest prop_pipeline_differential;
          Alcotest.test_case "matrix under -j 4" `Slow test_matrix_jobs4;
          Alcotest.test_case "bounded retention" `Quick
            test_bounded_retention;
          Alcotest.test_case "of_events matches live feed" `Quick
            test_of_events_matches_live;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "words per event fed to the analysers" `Quick
            test_analyser_words;
          Alcotest.test_case "words per event independent of population"
            `Quick test_population_independent;
          Alcotest.test_case "words per event through Run.execute" `Quick
            test_pipeline_words;
        ] );
    ]
