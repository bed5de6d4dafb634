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
   concurrent pairs for every rule.  Some sends are [Final], and every
   stream keeps that promise: a send drawn for an object whose [Final]
   send is in becomes a receive, which drains the object. *)
let queue_objs =
  [| "L1.e0"; "L1.e0.req"; "L1.e0.rep"; "L2.e1"; "L2.e1.req"; "sig0"; "sig1" |]

let move_objs = [| "L1.e0"; "L2.e1" |]

let build_events nfibers steps =
  let clocks = Array.init nfibers (fun i -> Vclock.tick Vclock.empty i) in
  let time = ref 0 in
  let finalized = Hashtbl.create 8 in
  List.map
    (fun (f, k, m) ->
      if m mod 3 = 0 then
        clocks.(f) <- Vclock.merge clocks.(f) clocks.((f + 1 + m) mod nfibers);
      clocks.(f) <- Vclock.tick clocks.(f) f;
      if m mod 2 = 0 then incr time;
      let obj = queue_objs.(k mod Array.length queue_objs) in
      let kind =
        match k mod 8 with
        | 0 when Hashtbl.mem finalized obj -> Event.Receive { obj; op = "op" }
        | 0 ->
          let mode = if k mod 5 = 0 then Event.Final else Event.Ordered in
          if mode = Event.Final then Hashtbl.replace finalized obj ();
          Event.Send { obj; op = "op" ^ string_of_int (k mod 3); mode }
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
        (List.map Event.For_tests.describe (build_events nfibers steps)))
    gen

let render (f : R.finding) =
  Printf.sprintf "%s %s: %s" f.R.r_rule f.R.r_obj f.R.r_detail

(* Every [Final] send read as [Ordered]: the detector then keeps every
   object to the end of the stream. *)
let unmark_finals =
  Array.map (fun (ev : Event.t) ->
      match ev.Event.ev_kind with
      | Event.Send ({ mode = Event.Final; _ } as s) ->
        { ev with Event.ev_kind = Event.Send { s with mode = Event.Ordered } }
      | _ -> ev)

(* Property 1: on arbitrary synthetic streams (clock structure and all),
   the incremental detector equals the reference batch detector, and a
   [Final] mark changes no finding: dropping an object once its final
   send is received is exact. *)
let prop_synthetic_equal =
  QCheck.Test.make ~count:1000
    ~name:"streaming detector == batch reference on synthetic streams"
    events_arb
    (fun (nfibers, steps) ->
      let events = Array.of_list (build_events nfibers steps) in
      let found = List.map render (R.analyze events) in
      found = List.map render (Batch.analyze events)
      && found = List.map render (R.analyze (unmark_finals events)))

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
          Event.apply (R.feed st) ev;
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

(* Each input runs unbounded and ring-bounded: the judged artifact and
   fingerprint must not notice the ring, and drops are counted exactly.
   The faulted cross-request run is long enough to wrap a 16-event ring
   many times over. *)
let test_bounded_retention () =
  List.iter
    (fun (spec, cap) ->
      let spec = Result.get_ok (Spec.of_string spec) in
      let view_of cap =
        match Run.execute_full ?log_capacity:cap spec with
        | Some (Some o, a) -> (o.S.o_view, a)
        | _ -> Alcotest.fail "spec did not run"
      in
      let v_u, a_u = view_of None in
      let v_b, a_b = view_of (Some cap) in
      let total_u = Array.length v_u.Engine.v_events in
      Alcotest.(check int) "unbounded run drops nothing" 0 v_u.Engine.v_events_dropped;
      Alcotest.(check bool) "stream long enough to wrap" true (total_u > 2 * cap);
      Alcotest.(check int)
        "retained bounded by capacity" cap
        (Array.length v_b.Engine.v_events);
      Alcotest.(check int) "drop accounting exact" (total_u - cap) v_b.Engine.v_events_dropped;
      Alcotest.(check string)
        "artifact independent of retention" (show_artifact a_u)
        (show_artifact a_b);
      Alcotest.(check bool)
        "fingerprint exact under ring" true
        (Int64.equal v_u.Engine.v_events_hash v_b.Engine.v_events_hash);
      Alcotest.(check bool)
        "streamed races match post-hoc" true
        (R.analyze v_u.Engine.v_events = a_u.Run.Artifact.races))
    [ ("move/charlotte/1/fifo", 5); ("cross-request/charlotte/2/fifo@mix", 16) ]

(* A 300-call echo on each primary backend, observed by hand at two
   retention capacities: the stream wraps a 64-event ring many times,
   yet totals, fingerprint and streamed race findings are those of the
   unbounded run, and the streamed findings equal the post-hoc analysis
   of the full log. *)
let test_long_echo_wraps_ring () =
  let cap = 64 in
  List.iter
    (fun (backend : Harness.Backend_world.backend) ->
      let observe log_capacity =
        let stream = Stream.init () in
        let captured = ref None in
        let attach e =
          captured := Some e;
          Engine.add_consumer e (Stream.feed stream)
        in
        ignore
          (Engine.with_observer ?log_capacity ~attach (fun () ->
               Harness.Rpc_bench.run backend ~iters:300 ~payload:0 ()));
        match !captured with
        | Some e -> (Engine.view e, Stream.finish stream, Engine.events_total e)
        | None -> Alcotest.fail "the benchmark created no engine"
      in
      let v_u, sum_u, total_u = observe None in
      let v_b, sum_b, total_b = observe (Some cap) in
      let n_b = Array.length v_b.Engine.v_events in
      let check what = Alcotest.(check bool) (backend.name ^ ": " ^ what) true in
      check "stream long enough to wrap" (total_u > 2 * cap);
      check "peak retained <= capacity" (n_b <= cap);
      check "totals equal"
        (total_u = total_b
        && sum_u.Stream.s_events = total_u
        && sum_b.Stream.s_events = total_b);
      check "drop accounting exact" (v_b.Engine.v_events_dropped = total_b - n_b);
      check "events hash exact under ring"
        (Int64.equal v_u.Engine.v_events_hash v_b.Engine.v_events_hash);
      check "streamed races equal at both capacities"
        (sum_u.Stream.s_races = sum_b.Stream.s_races);
      check "streamed races match post-hoc on the full log"
        (R.analyze v_u.Engine.v_events = sum_u.Stream.s_races);
      check "stream monotone"
        (sum_u.Stream.s_backwards = None && sum_b.Stream.s_backwards = None))
    Harness.Backend_world.all

(* ---- Stream.of_events == streaming feed -------------------------------- *)

let test_of_events_matches_live () =
  let spec = Spec.v ~scenario:"cross-request" ~backend:"soda" 3 in
  let state = Stream.init () in
  let attach eng = Engine.add_consumer eng (Stream.feed state) in
  let o = Option.get (Engine.with_observer ~attach (fun () -> Run.run_outcome spec)) in
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
  Budgets.words_per_event (Event.apply (Stream.feed t)) events

let test_analyser_words () =
  let events = Lazy.force farm_1k in
  let stream = stream_words events
  and races = Budgets.words_per_event (Event.apply (R.feed (R.init ()))) events in
  Budgets.check "analysers.stream-feed" stream;
  Budgets.check "analysers.races-feed" races;
  Budgets.check "analysers.stream-over-races" (stream -. races)

(* Nothing on the per-event path may cost O(fibers): a farm four times
   the size must cost the same words per event. *)
let test_population_independent () =
  Budgets.check "analysers.stream-feed.n4k" ~base:(stream_words (Lazy.force farm_1k))
    (stream_words (recorded (farm "4K")))

(* What the analysers keep once the stream is over: every object's
   race-detector state, per client of the population.  Words reachable
   from the state are deterministic, so the rung is exact; a farm four
   times the size must keep the same per client. *)
let resident_words_per_client ~clients events =
  let t = Stream.init () in
  Array.iter (Event.apply (Stream.feed t)) events;
  float (Obj.reachable_words (Obj.repr t)) /. float clients

let test_resident_words () =
  let n1k =
    resident_words_per_client ~clients:1_000 (Lazy.force farm_1k)
  in
  Budgets.check "analysers.resident" n1k;
  Budgets.check "analysers.resident.n4k" ~base:n1k
    (resident_words_per_client ~clients:4_000 (recorded (farm "4K")))

(* Concluding the rules once the stream is over, per client: the
   farm's objects are one-message queues with no sync state, so the
   conclusion must not visit them.  Exact on the ~n1K farm, where a
   conclusion that sorts every object name reads 93.5 words per client
   instead of 0.093; a farm four times the size must cost no more per
   client (+2%). *)
let finish_words_per_client ~clients events =
  let t = Stream.init () in
  Array.iter (Event.apply (Stream.feed t)) events;
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Stream.finish t));
  (Gc.minor_words () -. before) /. float clients

let test_finish_words () =
  let n1k = finish_words_per_client ~clients:1_000 (Lazy.force farm_1k) in
  Budgets.check "analysers.finish" n1k;
  Budgets.check "analysers.finish.n4k" ~base:n1k
    (finish_words_per_client ~clients:4_000 (recorded (farm "4K")))

(* The whole observed pipeline on the same farm — engine, streaming
   analyser and judge, nothing retained — per event of its stream: a
   consumer that does work, added anywhere on the emit path, shows up
   here. *)
let test_pipeline_words () =
  let spec = Spec.of_string_exn (farm "1K") in
  let events = float (Array.length (Lazy.force farm_1k)) in
  Budgets.check "pipeline.event"
    (Budgets.words_per_iter ~warm:1 ~iters:1 (fun n ->
         for _ = 1 to n do
           ignore (Run.execute spec)
         done)
    /. events)

(* What observation alone costs a judged sweep run: the engine's event
   records, clocks and stamps, fed to a consumer that reads nothing and
   retained nowhere, over the same run unobserved.  The specs cover the
   sweep's seven scenarios, its three backends and its fault plans. *)
let premium_specs =
  [
    "move/charlotte/11/fifo@drop";
    "move/soda/12/fifo@mix";
    "enclosures/chrysalis/13/fifo@duplicate";
    "enclosures/charlotte/14/fifo@crash-restart";
    "cross-request/soda/15/fifo@drop";
    "open-close/chrysalis/16/fifo@mix";
    "open-close/charlotte/17/fifo@duplicate";
    "bounced-enclosure/soda/18/fifo@crash-restart";
    "ring-election/chrysalis/19/fifo@leader-crash";
    "ring-election/soda/20/fifo@drop";
    "quorum/charlotte/21/fifo@partition-minority";
    "quorum/chrysalis/11/fifo@partition-majority";
  ]

(* Minor words and events of one run of [spec]. *)
let run_words ~observed spec =
  let attach e = if observed then Engine.add_consumer e (fun _ _ _ _ -> ()) in
  let before = Gc.minor_words () in
  let o =
    Engine.with_observer ~log_capacity:0 ~attach (fun () ->
        Run.run_outcome spec)
  in
  let words = Gc.minor_words () -. before in
  match o with
  | Some o -> (words, o.S.o_view.Engine.v_events_dropped)
  | None -> Alcotest.failf "%s did not run" (Spec.to_string spec)

let test_observation_premium () =
  let specs = List.map Spec.of_string_exn premium_specs in
  let total ~observed =
    List.fold_left
      (fun (w, n) spec ->
        let w', n' = run_words ~observed spec in
        (w +. w', n + n'))
      (0., 0) specs
  in
  (* A first pass warms every lazily built table. *)
  ignore (total ~observed:true);
  ignore (total ~observed:false);
  let observed, events = total ~observed:true in
  let unobserved, events' = total ~observed:false in
  Alcotest.(check int) "same events" events events';
  Budgets.check "pipeline.observation-premium" ((observed -. unobserved) /. float events)

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
          Alcotest.test_case "long echo wraps the ring" `Quick
            test_long_echo_wraps_ring;
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
          Alcotest.test_case "observation premium per event" `Quick
            test_observation_premium;
          Alcotest.test_case "race-detector resident words per client"
            `Quick test_resident_words;
          Alcotest.test_case "words of Stream.finish per client" `Quick
            test_finish_words;
        ] );
    ]
