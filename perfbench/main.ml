(* The repository benchmark: three workloads over the library's public
   API, output checks, end-to-end metrics, and a traced per-layer run.

     perfbench/run.sh --workload rpc-paper|farm-open|sweep-judged \
       --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; the lines before it carry the
   machine context and raw per-rep diagnostics.  A failed output check
   prints correct=false and exits 1.

   Host time is process CPU time.  On a shared two-core machine the
   same binary's throughput moves by several percent from one process
   to the next (memory placement differs per process), and no in-process
   reference probe tracked it.  So an untraced run splits its time over
   [workers] fresh processes of this executable, run one after another,
   and reports the median over them.  The traced run (--trace 1) is a
   single process: an untraced half, a traced half, then layer probes.
   README.md says why each workload was chosen and which layers it
   loads. *)

open Perfbench
module BW = Harness.Backend_world
module RB = Harness.Rpc_bench
module A = Run.Artifact

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

(* ---- arguments --------------------------------------------------------- *)

let workload, seed, seconds, traced, worker =
  let w = ref None and s = ref None and secs = ref None and t = ref None and k = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> w := Some v; go rest
    | "--seed" :: v :: rest -> s := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> secs := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> t := Some v; go rest
    | "--worker" :: v :: rest -> k := int_of_string_opt v; go rest
    | [] -> ()
    | a :: _ -> fail_usage ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  let req name = function Some v -> v | None -> fail_usage ("missing or bad --" ^ name) in
  let seed = req "seed" !s and seconds = req "seconds" !secs in
  if seed < 0 then fail_usage "--seed must be >= 0";
  if seconds <= 0. then fail_usage "--seconds must be > 0";
  let traced =
    match req "trace" !t with "0" -> false | "1" -> true | _ -> fail_usage "--trace is 0 or 1"
  in
  let workload = req "workload" !w in
  if not (List.mem workload [ "rpc-paper"; "farm-open"; "sweep-judged" ]) then
    fail_usage ("unknown workload " ^ workload);
  (workload, seed, seconds, traced, !k)

(* ---- checks and failure accounting --------------------------------------- *)

let problems = ref []
let check ok msg = if not ok then problems := msg :: !problems
let attempted = ref 0
let failed = ref 0

let count ~ops ~bad =
  attempted := !attempted + ops;
  failed := !failed + bad

let counter cs k = Option.value ~default:0 (List.assoc_opt k cs)

let sum_counters lists =
  let t = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace t k (v + Option.value ~default:0 (Hashtbl.find_opt t k))))
    lists;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []

(* Event-stream fingerprints recorded at the default seed: a change that
   only makes the simulator faster must leave every simulated event,
   and so every simulated statistic, identical. *)
let default_seed = 1

let recorded_fingerprint = function
  | "rpc-paper" -> "d6da8b8af596119d"
  | "farm-open" -> "c33ab5bf1ffb0d22"
  | _ -> "706e41cb892ee23d"

let fold_hash hs =
  List.fold_left
    (fun acc h -> Int64.mul (Int64.logxor acc h) 0x100000001b3L)
    0xcbf29ce484222325L hs

let hex = Printf.sprintf "%016Lx"

(* ---- measuring ----------------------------------------------------------- *)

(* One measured call: CPU and wall time and the minor/major words it
   allocated. *)
type rep = {
  cpu_s : float;
  wall_s : float;
  minor : float;
  major : float;
  ops : int;
  probe : Probe.snap;
}

let measure f =
  let p0 = Probe.snap () in
  let j0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let w0 = Gc.minor_words () in
  let ops = f () in
  let w1 = Gc.minor_words () in
  let c1 = Sys.time () in
  let t1 = Unix.gettimeofday () in
  let j1 = (Gc.quick_stat ()).Gc.major_words in
  let probe = Probe.diff p0 (Probe.snap ()) in
  {
    cpu_s = c1 -. c0 -. probe.Probe.p_s;
    wall_s = t1 -. t0;
    minor = w1 -. w0 -. probe.Probe.p_words;
    major = j1 -. j0;
    ops;
    probe;
  }

let sum f reps = List.fold_left (fun a r -> a +. f r) 0. reps

(* CPU seconds of [reps] at reference-machine speed, scaled by the mean
   probe tick over [within] (the phase they belong to); unscaled when no
   tick fired (the traced run keeps the probe off). *)
let at_reference reps ~within =
  let ticks = List.fold_left (fun a r -> a + r.probe.Probe.p_ticks) 0 within in
  let work_s = sum (fun r -> r.cpu_s) reps in
  if ticks = 0 then work_s
  else
    Stat.at_reference ~exponent:Probe.exponent ~work_s
      ~probe_s:(sum (fun r -> r.probe.Probe.p_s) within /. float_of_int ticks)
      ~ref_s:Probe.ref_s

let total_ops reps = List.fold_left (fun a r -> a + r.ops) 0 reps
let rate reps = Stat.rate ~ops:(total_ops reps) ~seconds:(at_reference reps ~within:reps)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.

(* Peak resident set after the set-up and the first timed rep.  Read at
   that fixed point, not at the end: resident memory keeps growing
   slowly with every rep while live data stays flat, so an end-of-run
   reading would depend on how many reps the host's speed allowed. *)
let peak_rss_mb = ref 0.

(* Run [rep] for about [budget] CPU seconds: always once, then again
   only while one more rep of the mean length still fits. *)
let timed budget rep =
  let rec go acc used =
    let r = measure rep in
    if acc = [] then peak_rss_mb := vm_hwm_mb ();
    let acc = r :: acc and used = used +. r.cpu_s in
    let mean = used /. float_of_int (List.length acc) in
    if used +. mean > budget then List.rev acc else go acc used
  in
  go [] 0.

let diag key json = Printf.printf "{\"diagnostic\": %S, \"data\": %s}\n%!" key json

let report_reps label reps =
  diag label
    ("["
    ^ String.concat ", "
        (List.map
           (fun r ->
             Printf.sprintf
               "{\"ops\": %d, \"cpu_s\": %.6f, \"wall_s\": %.6f, \"minor_words\": %.0f}" r.ops
               r.cpu_s r.wall_s r.minor)
           reps)
    ^ "]")

(* ---- the paper figures --------------------------------------------------- *)

(* §3.3 and §5.3: mean simulated latency of a simple remote operation,
   run as the e1/e4 experiments run it.  Each must sit within 5%. *)
let paper_figures () =
  let lynx b p = RB.mean_ms (RB.run b ~payload:p ~seed ()) in
  let raw p = Sim.Time.to_ms (RB.raw_charlotte ~payload:p ~seed ()) in
  [
    ("charlotte lynx 0B", 57., lynx BW.charlotte 0);
    ("charlotte lynx 1000B", 65., lynx BW.charlotte 1000);
    ("charlotte raw 0B", 55., raw 0);
    ("charlotte raw 1000B", 60., raw 1000);
    ("chrysalis lynx 0B", 2.4, lynx BW.chrysalis 0);
    ("chrysalis lynx 1000B", 4.6, lynx BW.chrysalis 1000);
  ]

let paper_err_pct figs =
  List.fold_left
    (fun acc (label, paper, sim) ->
      let e = Stat.err_pct ~paper sim in
      check (e <= 5.) (Printf.sprintf "%s: %.3f ms vs paper %.1f ms" label sim paper);
      Float.max acc e)
    0. figs

let figure figs label = List.find_map (fun (l, _, v) -> if l = label then Some v else None) figs

(* ---- workloads -------------------------------------------------------- *)

(* A workload: its set-up (repeated [setups] times per process; returns
   the reference fingerprint), one timed rep (returns the operations it
   completed and checks them against the reference), and its traced
   per-layer extras. *)
type workload = {
  workers : int;
  setups : int;
  setup : unit -> int64;
  rep : ref_fp:int64 -> unit -> int;
  layers : traced:rep list -> (string * float) list;
}

(* rpc-paper: the paper's own experiment, E1/E4 style. *)
module Rpc_paper = struct
  let cases = List.concat_map (fun b -> [ (b, 0); (b, 1000) ]) BW.all
  let iters = 30
  let warmup = 5
  let ops_per_case = iters + warmup
  let warm_passes = 20
  let figs = ref []

  (* One Rpc_bench run, with the engine it creates captured so its
     event-stream fingerprint can be read back. *)
  let run_case (b, payload) =
    let engines = ref [] in
    let name = BW.name b in
    let r =
      Trace.span name ~req:(Printf.sprintf "%s/%dB" name payload) (fun () ->
          let r =
            Sim.Engine.with_observer
              ~attach:(fun e -> engines := e :: !engines)
              (fun () -> RB.run b ~payload ~iters ~warmup ~seed ())
          in
          List.iter (fun (k, v) -> Trace.note k (float_of_int v)) r.RB.r_counters;
          List.iter
            (fun e -> Trace.note "sim.events" (float_of_int (Sim.Engine.events_total e)))
            !engines;
          r)
    in
    match !engines with
    | [ e ] -> (r, e)
    | _ -> failwith "rpc-paper: expected one engine per Rpc_bench run"

  (* A case's operations fail when its run completed fewer calls or
     deliveries than it issued.  Rpc_bench does not expose the echoed
     values, so the fingerprint check stands in for a value check. *)
  let bad (r, _) =
    let cs = r.RB.r_counters in
    if counter cs "lynx.calls" = iters && counter cs "lynx.messages_delivered" = 2 * iters then 0
    else ops_per_case

  let pass () = List.map run_case cases
  let fingerprint results = fold_hash (List.map (fun (_, e) -> Sim.Engine.events_hash e) results)

  let setup () =
    figs := paper_figures ();
    let fps = List.init warm_passes (fun _ -> fingerprint (pass ())) in
    check (List.for_all (Int64.equal (List.hd fps)) fps) "rpc-paper warm-up passes disagree";
    List.hd fps

  let last = ref []

  let rep ~ref_fp () =
    let results = pass () in
    last := results;
    let ops = List.length results * ops_per_case in
    count ~ops ~bad:(List.fold_left (fun a r -> a + bad r) 0 results);
    check (Int64.equal (fingerprint results) ref_fp) "rpc-paper rep fingerprint differs from warm-up";
    ops
end

(* farm-open: 100K open-loop clients on one shard. *)
module Farm_open = struct
  let population = 100_000
  let spec () = Run.Spec.of_string_exn (Printf.sprintf "wl-farm-open/chrysalis/%d/fifo~n100K" seed)
  let log_capacity = 4096
  let world_words = ref 0.
  let world_s = ref 0.

  (* The idle world: same topology and population, zero rounds. *)
  let setup () =
    (match Run.check (spec ()) with Ok () -> () | Error e -> check false e);
    let w0 = Gc.minor_words () and c0 = Sys.time () in
    let r =
      Harness.Workload.run ~seed ~topology:Harness.Workload.Farm
        ~load:(Harness.Workload.Closed { think = Sim.Time.ms 10; rounds = 0 })
        ~population BW.chrysalis
    in
    world_s := Sys.time () -. c0;
    world_words := Gc.minor_words () -. w0;
    check r.Harness.Workload.r_ok "the idle 100K world did not build cleanly";
    0L

  let latency = ref None
  let events = ref 0
  let counters = ref []
  let fps = ref []

  let rep ~ref_fp:_ () =
    let spec = spec () in
    let o, a =
      Trace.span "run" ~req:(Run.Spec.to_string spec) (fun () ->
          if !Trace.enabled then
            match Run.execute_full ~log_capacity spec with
            | Some (o, a) -> (o, Some a)
            | None -> (None, None)
          else (None, Run.execute ~log_capacity spec))
    in
    Option.iter
      (fun o ->
        let v = o.Harness.Scenarios.o_view in
        events := Array.length v.Sim.Engine.v_events + v.Sim.Engine.v_events_dropped)
      o;
    let replies, errors =
      match a with
      | Some a ->
        fps := a.A.events_hash :: !fps;
        latency := a.A.latency;
        if !Trace.enabled then counters := a.A.counters :: !counters;
        check (a.A.ok && not (A.anomalous a)) "farm-open artifact is not ok";
        check
          (match a.A.latency with
          | Some l -> l.Sim.Stats.Histogram.h_count = population
          | None -> false)
          "farm-open latency summary does not hold 100,000 replies";
        (counter a.A.counters "wl.replies", counter a.A.counters "wl.errors")
      | None -> (0, 0)
    in
    check (replies = population && errors = 0)
      (Printf.sprintf "farm-open: %d verified replies, %d errors" replies errors);
    count ~ops:population ~bad:(population - replies);
    replies
end

(* sweep-judged: a thousand small judged worlds under fault plans. *)
module Sweep = struct
  let vignettes = [ "move"; "enclosures"; "cross-request"; "open-close"; "bounced-enclosure" ]
  let protocols = [ "ring-election"; "quorum" ]
  let plans = Run.Spec.[ Drop; Duplicate; Crash_restart; Mix ]
  let seeds_per_run = 11

  let targeted = function
    | "ring-election" -> Run.Spec.[ Leader_crash ]
    | "quorum" -> Run.Spec.[ Partition_minority; Partition_majority ]
    | _ -> []

  let specs =
    lazy
      (List.concat_map
         (fun k ->
           let s = (seed * seeds_per_run) + k in
           List.concat_map
             (fun sc ->
               List.concat_map
                 (fun b ->
                   List.map
                     (fun plan -> Run.Spec.v ~plan ~scenario:sc ~backend:(BW.name b) s)
                     (plans @ targeted sc))
                 BW.all)
             (vignettes @ protocols))
         (List.init seeds_per_run Fun.id))

  let bad = function Some a when not (A.anomalous a) -> 0 | _ -> 1
  let hash = function Some a -> a.A.events_hash | None -> 0L
  let warm = ref []

  let setup () =
    let specs = Lazy.force specs in
    List.iter (fun s -> match Run.check s with Ok () -> () | Error e -> check false e) specs;
    warm := Run.execute_many ~jobs:1 specs;
    fold_hash (List.map hash !warm)

  let host_ms = ref []
  let counters = ref []
  let events = ref 0

  (* Traced reps run each spec through [execute_full], the per-spec
     body of [execute_many], so spans and engine views exist per run. *)
  let traced_rep () =
    List.map
      (fun spec ->
        let c0 = Sys.time () in
        let r =
          Trace.span spec.Run.Spec.backend ~req:(Run.Spec.to_string spec) (fun () ->
              Trace.span "run" ~req:(Run.Spec.to_string spec) (fun () -> Run.execute_full spec))
        in
        host_ms := ((Sys.time () -. c0) *. 1e3) :: !host_ms;
        match r with
        | Some (o, a) ->
          counters := a.A.counters :: !counters;
          Option.iter
            (fun o ->
              let v = o.Harness.Scenarios.o_view in
              events := !events + Array.length v.Sim.Engine.v_events + v.Sim.Engine.v_events_dropped)
            o;
          Some a
        | None -> None)
      (Lazy.force specs)

  let rep ~ref_fp () =
    let arts =
      if !Trace.enabled then traced_rep () else Run.execute_many ~jobs:1 (Lazy.force specs)
    in
    let n = List.length arts in
    count ~ops:n ~bad:(List.fold_left (fun a x -> a + bad x) 0 arts);
    check (Int64.equal (fold_hash (List.map hash arts)) ref_fp)
      "sweep-judged rep fingerprints differ from warm-up";
    n
end

(* ---- per-layer probes ---------------------------------------------------- *)

(* Sim.Heap add+pop pairs in steady state at a given queue depth. *)
let heap_ns_per_op ~depth =
  let h = Sim.Heap.create () in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for i = 1 to depth do Sim.Heap.add h ~time:(next ()) ~seq:i () done;
  let pairs = 300_000 in
  let r =
    measure (fun () ->
        for i = 1 to pairs do
          match Sim.Heap.pop h with
          | Some (t, _, ()) -> Sim.Heap.add h ~time:(t + (next () land 0xffff)) ~seq:(depth + i) ()
          | None -> ()
        done;
        pairs)
  in
  r.cpu_s *. 1e9 /. float_of_int pairs

(* Lynx.Codec encode+decode of the rpc-paper argument lists. *)
let codec_ns_per_msg () =
  let args = List.map (fun p -> [ Lynx.Value.Str (String.make p 'x') ]) [ 0; 1000 ] in
  let rounds = 50_000 in
  let r =
    measure (fun () ->
        for _ = 1 to rounds do
          List.iter
            (fun vs ->
              let bytes, _ = Lynx.Codec.encode vs in
              ignore (Lynx.Codec.decode bytes ~enclosures:[||]))
            args
        done;
        2 * rounds)
  in
  r.cpu_s *. 1e9 /. float_of_int r.ops

(* Analysis.Stream replayed from outside over retained logs: ns and
   minor words per event. *)
let stream_replay logs =
  let events = List.fold_left (fun a l -> a + Array.length l) 0 logs in
  if events = 0 then (0., 0.)
  else
    let r =
      measure (fun () ->
          List.iter (fun l -> ignore (Analysis.Stream.of_events l)) logs;
          events)
    in
    (r.cpu_s *. 1e9 /. float_of_int events, Stat.per_op r.minor ~ops:events)

(* A percentile only when ten samples lie beyond it; 0 otherwise. *)
let reportable_pct samples p =
  let a = Stat.sorted samples in
  if Stat.reportable ~n:(Array.length a) p then Stat.percentile a p else 0.

(* Counter-derived layer metrics, shared by every workload: counts per
   operation and the screening ratios. *)
let counter_layers cs ~ops =
  let c = counter cs in
  let per k = if ops = 0 then 0. else float_of_int k /. float_of_int ops in
  let calls = c "lynx.calls" and retries = c "lynx.call_retries" in
  let faults =
    List.fold_left
      (fun a (k, v) -> if String.starts_with ~prefix:"faults." k then a + v else a)
      0 cs
  in
  [
    ("charlotte.kernel_calls_per_op", per (c "charlotte.kernel_calls"));
    ("soda.kernel_calls_per_op", per (c "soda.requests" + c "soda.accepts"));
    ("chrysalis.kernel_calls_per_op", per (c "chrysalis.kernel_ops"));
    ("netmodel.frames_per_op", per (c "ring.frames" + c "csma.frames" + c "switch.transfers"));
    ("lynx.call_retry_ratio", Stat.ratio retries ~base:calls);
    ("lynx.call_timeout_ratio", Stat.ratio (c "lynx.call_timeouts") ~base:(calls + retries));
    ( "lynx.calls_useful_ratio",
      Stat.ratio (calls - c "lynx.call_budget_exhausted") ~base:(calls + retries) );
    ("faults.injected_per_run", per faults);
  ]

(* Host time and words per operation in the spans named after each
   backend. *)
let backend_layers ~ops =
  List.concat_map
    (fun n ->
      if Trace.by_name n = [] then []
      else
        [
          (n ^ ".host_us_per_op", Stat.per_op (Trace.total_s n *. 1e6) ~ops);
          (n ^ ".words_per_op", Stat.per_op (Trace.total_words n) ~ops);
        ])
    BW.names

let rpc_paper_layers ~traced =
  let ops = total_ops traced in
  let per_backend = ops / List.length BW.all in
  let counters_of names =
    sum_counters
      (List.map
         (fun s ->
           List.filter_map
             (fun (k, v) -> if k = "sim.events" then None else Some (k, int_of_float v))
             s.Trace.counts)
         (List.filter (fun s -> List.mem s.Trace.name names) (Trace.all ())))
  in
  let cs = counters_of BW.names in
  (* Kernel calls per remote op of that kernel's own backend. *)
  let kernel n keys =
    let cs = counters_of [ n ] in
    ( n ^ ".kernel_calls_per_op",
      Stat.per_op (float_of_int (List.fold_left (fun a k -> a + counter cs k) 0 keys))
        ~ops:(counter cs "lynx.calls") )
  in
  let events = List.fold_left (fun a n -> a +. Trace.count n "sim.events") 0. BW.names in
  let traced_s = List.fold_left (fun a n -> a +. Trace.total_s n) 0. BW.names in
  (* Raw kernel round trips: [warmup + iters] per call. *)
  let raw_us name f =
    let r =
      measure (fun () ->
          Trace.span name ~req:"raw 0B+1000B" (fun () ->
              for _ = 1 to 20 do
                List.iter (fun payload -> ignore (f ~payload)) [ 0; 1000 ]
              done);
          40 * Rpc_paper.ops_per_case)
    in
    r.cpu_s *. 1e6 /. float_of_int r.ops
  in
  let raw_c = raw_us "charlotte.raw" (fun ~payload -> RB.raw_charlotte ~payload ~seed ()) in
  let raw_s = raw_us "soda.raw" (fun ~payload -> RB.raw_soda ~payload ~seed ()) in
  let us n = Stat.per_op (Trace.total_s n *. 1e6) ~ops:per_backend in
  let stream_ns, stream_words =
    stream_replay (List.map (fun (_, e) -> Sim.Engine.events e) !Rpc_paper.last)
  in
  let figs = !Rpc_paper.figs in
  [
    ("sim.events_per_op", Stat.per_op events ~ops);
    ("sim.host_ns_per_event", traced_s *. 1e9 /. events);
    kernel "charlotte" [ "charlotte.kernel_calls" ];
    kernel "soda" [ "soda.requests"; "soda.accepts" ];
    kernel "chrysalis" [ "chrysalis.kernel_ops" ];
    ("charlotte.host_us_per_rt", raw_c);
    ("soda.host_us_per_rt", raw_s);
    ("lynx.host_us_premium.charlotte", us "charlotte" -. raw_c);
    ("lynx.host_us_premium.soda", us "soda" -. raw_s);
    ( "lynx.sim_ms_premium.charlotte",
      Option.get (figure figs "charlotte lynx 0B") -. Option.get (figure figs "charlotte raw 0B") );
    ("analysis.stream_ns_per_event", stream_ns);
    ("analysis.words_per_event", stream_words);
  ]
  (* Rpc_bench counts its measured [iters] calls only. *)
  @ counter_layers cs ~ops:(counter cs "lynx.calls")
  @ backend_layers ~ops:per_backend

let farm_open_layers ~traced =
  let ops = total_ops traced in
  let exec_s = Trace.total_s "run" /. float_of_int (List.length traced) in
  let bare =
    Trace.span "harness" ~req:"bare" (fun () ->
        Harness.Workload.run ~seed ~topology:Harness.Workload.Farm
          ~load:(Harness.Workload.Open { window = Harness.Workload.default_window })
          ~population:Farm_open.population BW.chrysalis)
  in
  let bare_s = Trace.total_s "harness" in
  let stream_ns, stream_words = stream_replay [ bare.Harness.Workload.r_view.Sim.Engine.v_events ] in
  let lat f = match !Farm_open.latency with Some l -> Sim.Time.to_ms (f l) | None -> 0. in
  [
    ("sim.events_per_op", Stat.per_op (float_of_int !Farm_open.events) ~ops:Farm_open.population);
    ("sim.host_ns_per_event", exec_s *. 1e9 /. float_of_int !Farm_open.events);
    ("analysis.pipeline_share", 1. -. (bare_s /. exec_s));
    ("analysis.stream_ns_per_event", stream_ns);
    ("analysis.words_per_event", stream_words);
    ("harness.world_build_s", !Farm_open.world_s);
    ("harness.world_words_per_client", !Farm_open.world_words /. float_of_int Farm_open.population);
    ("harness.scenario_ms_per_run", bare_s *. 1e3);
    ("harness.sim_reply_ms_p50", lat (fun l -> l.Sim.Stats.Histogram.h_p50));
    ("harness.sim_reply_ms_p99", lat (fun l -> l.Sim.Stats.Histogram.h_p99));
    ("chrysalis.host_us_per_op", Stat.per_op (Trace.total_s "run" *. 1e6) ~ops);
    ("chrysalis.words_per_op", Stat.per_op (Trace.total_words "run") ~ops);
  ]
  @ counter_layers (sum_counters !Farm_open.counters) ~ops

let sweep_layers ~traced =
  let ops = total_ops traced in
  let specs = Lazy.force Sweep.specs in
  let n = List.length specs in
  let exec_s = Trace.total_s "run" /. float_of_int (List.length traced) in
  (* One bare pass: the scenario alone, then the post-hoc judge and the
     stream replay over its retained log. *)
  let logs = ref [] in
  List.iter
    (fun spec ->
      let req = Run.Spec.to_string spec in
      match Trace.span "harness" ~req (fun () -> try Run.run_outcome spec with _ -> None) with
      | Some o ->
        logs := o.Harness.Scenarios.o_view.Sim.Engine.v_events :: !logs;
        ignore (Trace.span "judge" ~req (fun () -> Run.judge spec o))
      | None -> ())
    specs;
  let bare_s = Trace.total_s "harness" in
  let stream_ns, stream_words = stream_replay !logs in
  let sim_ms =
    List.map (function Some a -> Sim.Time.to_ms a.A.duration | None -> 0.) !Sweep.warm
  in
  let ttr =
    List.filter_map
      (function
        | Some { A.liveness = Run.Liveness.Live m; _ } -> Some (Sim.Time.to_ms m.Run.Liveness.m_ttr)
        | _ -> None)
      !Sweep.warm
  in
  [
    ("sim.events_per_op", Stat.per_op (float_of_int !Sweep.events) ~ops);
    ("sim.host_ns_per_event", Trace.total_s "run" *. 1e9 /. float_of_int !Sweep.events);
    ("recovery.sim_ttr_ms_p50", reportable_pct ttr 0.5);
    ("analysis.pipeline_share", 1. -. (bare_s /. exec_s));
    ("analysis.stream_ns_per_event", stream_ns);
    ("analysis.words_per_event", stream_words);
    ("run.judge_ms_per_run", Trace.total_s "judge" *. 1e3 /. float_of_int n);
    ("run.host_ms_per_run_p50", reportable_pct !Sweep.host_ms 0.5);
    ("run.host_ms_per_run_p99", reportable_pct !Sweep.host_ms 0.99);
    ("run.host_ms_per_run_n", float_of_int (List.length !Sweep.host_ms));
    ("run.sim_ms_per_run_p50", reportable_pct sim_ms 0.5);
    ("run.sim_ms_per_run_p99", reportable_pct sim_ms 0.99);
    ("harness.scenario_ms_per_run", bare_s *. 1e3 /. float_of_int n);
  ]
  @ counter_layers (sum_counters !Sweep.counters) ~ops
  @ backend_layers ~ops:(ops / List.length BW.all)

let the_workload =
  match workload with
  | "rpc-paper" ->
    { workers = 4; setups = 3; setup = Rpc_paper.setup; rep = Rpc_paper.rep; layers = rpc_paper_layers }
  | "farm-open" ->
    { workers = 4; setups = 1; setup = Farm_open.setup; rep = Farm_open.rep; layers = farm_open_layers }
  | _ -> { workers = 4; setups = 1; setup = Sweep.setup; rep = Sweep.rep; layers = sweep_layers }

let heap_depth =
  match workload with "farm-open" -> Farm_open.population | "sweep-judged" -> 64 | _ -> 8

(* ---- one process's run ------------------------------------------------ *)

(* Set-up repeated [setups] times, each reproducing the first's
   fingerprint; returns the median set-up CPU time and the fingerprint. *)
let setup_phase () =
  let fps = ref [] in
  let reps =
    List.init the_workload.setups (fun _ ->
        measure (fun () ->
            fps := the_workload.setup () :: !fps;
            1))
  in
  report_reps "setup" reps;
  let fp = List.hd !fps in
  check (List.for_all (Int64.equal fp) !fps) "set-up repetitions disagree";
  Gc.full_major ();
  let median g = Stat.median (Stat.sorted (List.map g reps)) in
  (median (fun r -> at_reference [ r ] ~within:reps), median (fun r -> r.cpu_s), fp)

let timed_phase label budget ~ref_fp =
  let reps = timed budget (the_workload.rep ~ref_fp) in
  report_reps label reps;
  reps

(* The run's fingerprint: rpc-paper and sweep-judged compare each rep to
   their warm-up inside [rep]; farm-open's reps must agree with each
   other. *)
let run_fingerprint ref_fp =
  match workload with
  | "farm-open" ->
    let fps = !Farm_open.fps in
    check
      (fps <> [] && List.for_all (Int64.equal (List.hd fps)) fps)
      "farm-open reps disagree on the fingerprint";
    (match fps with h :: _ -> h | [] -> 0L)
  | _ -> ref_fp

let paper_err () =
  match workload with
  | "rpc-paper" -> paper_err_pct !Rpc_paper.figs
  | _ -> paper_err_pct (paper_figures ())

(* ---- output ------------------------------------------------------------ *)

let print_result metrics =
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev !problems);
  if !attempted > 0 then
    diag "failure_share"
      (Printf.sprintf "%.6g" (Stat.failure_share ~attempted:!attempted ~failed:!failed));
  let correct = !problems = [] && !attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
          metrics));
  exit (if correct then 0 else 1)

let per_layer_names =
  [
    "sim.events_per_op"; "sim.host_ns_per_event"; "sim.heap_ns_per_op";
    "charlotte.kernel_calls_per_op"; "soda.kernel_calls_per_op"; "chrysalis.kernel_calls_per_op";
    "netmodel.frames_per_op"; "charlotte.host_us_per_rt"; "soda.host_us_per_rt";
    "charlotte.host_us_per_op"; "soda.host_us_per_op"; "chrysalis.host_us_per_op";
    "charlotte.words_per_op"; "soda.words_per_op"; "chrysalis.words_per_op";
    "lynx.host_us_premium.charlotte"; "lynx.host_us_premium.soda";
    "lynx.sim_ms_premium.charlotte"; "lynx.codec_ns_per_msg";
    "lynx.call_retry_ratio"; "lynx.call_timeout_ratio"; "lynx.calls_useful_ratio";
    "faults.injected_per_run"; "recovery.sim_ttr_ms_p50";
    "analysis.pipeline_share"; "analysis.stream_ns_per_event"; "analysis.words_per_event";
    "run.judge_ms_per_run"; "run.host_ms_per_run_p50"; "run.host_ms_per_run_p99";
    "run.host_ms_per_run_n"; "run.sim_ms_per_run_p50"; "run.sim_ms_per_run_p99";
    "harness.world_build_s"; "harness.world_words_per_client"; "harness.scenario_ms_per_run";
    "harness.sim_reply_ms_p50"; "harness.sim_reply_ms_p99";
    "gc.major_words_per_op"; "trace.overhead_pct";
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name and starts s = String.starts_with ~prefix:s name in
  if ends "_ns_per_op" || ends "_ns_per_event" || ends "_ns_per_msg" then "ns"
  else if ends "_us_per_op" || ends "_us_per_rt" || starts "lynx.host_us" then "us"
  else if ends "_ms_per_run" || ends "_p50" || ends "_p99" || starts "lynx.sim_ms" then "ms"
  else if ends "_s" then "s"
  else if ends "_pct" then "%"
  else if ends "_share" || ends "_ratio" then "ratio"
  else if ends "words_per_op" || ends "words_per_event" || ends "words_per_client" then "words"
  else "count"

(* The traced run, in this one process: an untraced half, a traced half
   of the same reps, then the layer probes.  Layers a workload does not
   enter report 0. *)
let traced_run () =
  let _, _, ref_fp = setup_phase () in
  let untraced = timed_phase "timed" (seconds /. 2.) ~ref_fp in
  Trace.enabled := true;
  let traced = timed_phase "traced" (seconds /. 2.) ~ref_fp in
  let known = the_workload.layers ~traced in
  Trace.enabled := false;
  ignore (run_fingerprint ref_fp);
  (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Trace.write (Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" workload seed);
  let known =
    [
      ("trace.overhead_pct", ((rate untraced /. rate traced) -. 1.) *. 100.);
      ( "gc.major_words_per_op",
        Stat.per_op (sum (fun r -> r.major) untraced) ~ops:(total_ops untraced) );
      ("sim.heap_ns_per_op", heap_ns_per_op ~depth:heap_depth);
      ("lynx.codec_ns_per_msg", codec_ns_per_msg ());
    ]
    @ known
  in
  print_result
    (List.map
       (fun n -> (n, unit_of n, Option.value ~default:0. (List.assoc_opt n known)))
       per_layer_names)

(* A worker: one process's share of an untraced run, reported as one
   line of raw sums for the parent to aggregate. *)
let worker_run k budget =
  let setup_s, setup_raw_s, ref_fp = setup_phase () in
  let reps = timed_phase "timed" budget ~ref_fp in
  (* The first worker repeats one rep with the probe stopped, for an
     exact allocation count. *)
  let alloc =
    if k > 0 then None
    else begin
      Probe.stop ();
      let r = measure (the_workload.rep ~ref_fp) in
      report_reps "alloc" [ r ];
      Some r
    end
  in
  diag "probe_ticks_s"
    ("["
    ^ String.concat ", "
        (List.map (Printf.sprintf "%.6f") (Probe.durations ~from:0 ~until:(Probe.snap ()).Probe.p_ticks))
    ^ "]");
  let fp = run_fingerprint ref_fp in
  let err = paper_err () in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev !problems);
  Printf.printf
    "perfbench-worker setup_s=%.9f setup_raw_s=%.9f ops=%d ref_s=%.9f cpu_s=%.9f probe_s=%.9f \
     ticks=%d%s rss_mb=%.6f err_pct=%.17g attempted=%d failed=%d fp=%s problems=%d\n%!"
    setup_s setup_raw_s (total_ops reps)
    (at_reference reps ~within:reps)
    (sum (fun r -> r.cpu_s) reps)
    (sum (fun r -> r.probe.Probe.p_s) reps)
    (List.fold_left (fun a r -> a + r.probe.Probe.p_ticks) 0 reps)
    (match alloc with
    | Some r -> Printf.sprintf " alloc_minor=%.0f alloc_ops=%d" r.minor r.ops
    | None -> "")
    !peak_rss_mb err !attempted !failed (hex fp) (List.length !problems);
  exit 0

(* ---- the parent: workers in turn, medians over them ---------------------- *)

let run_worker k =
  let args =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.6f" (seconds /. float_of_int the_workload.workers); "--trace"; "0";
      "--worker"; string_of_int k;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let result = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:"perfbench-worker " line then
         result :=
           Some
             (List.filter_map
                (fun kv ->
                  match String.index_opt kv '=' with
                  | Some i ->
                    Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
                  | None -> None)
                (String.split_on_char ' ' line))
       else print_endline line
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !result) with
  | Unix.WEXITED 0, Some kv -> kv
  | _ ->
    check false (Printf.sprintf "worker %d did not finish" k);
    print_result []

let parent_run () =
  let results = List.init the_workload.workers run_worker in
  let f kv k = float_of_string (List.assoc k kv) and i kv k = int_of_string (List.assoc k kv) in
  List.iter
    (fun kv ->
      attempted := !attempted + i kv "attempted";
      failed := !failed + i kv "failed";
      check (i kv "problems" = 0) "a worker's output check failed")
    results;
  let fps = List.map (fun kv -> List.assoc "fp" kv) results in
  check (List.for_all (String.equal (List.hd fps)) fps) "workers disagree on the fingerprint";
  diag "fingerprint" (Printf.sprintf "%S" (List.hd fps));
  if seed = default_seed then
    check
      (List.hd fps = recorded_fingerprint workload)
      (Printf.sprintf "fingerprint %s at the default seed, recorded %s" (List.hd fps)
         (recorded_fingerprint workload));
  let median g = Stat.median (Stat.sorted (List.map g results)) in
  let raw_rate kv = Stat.rate ~ops:(i kv "ops") ~seconds:(f kv "cpu_s") in
  let worker_rate kv = Stat.rate ~ops:(i kv "ops") ~seconds:(f kv "ref_s") in
  diag "raw"
    (Printf.sprintf "{\"ops_per_s_raw\": %.6g, \"setup_s_raw\": %.6g}" (median raw_rate)
       (median (fun kv -> f kv "setup_raw_s")));
  let each g = String.concat ", " (List.map (fun kv -> Printf.sprintf "%.6g" (g kv)) results) in
  diag "workers"
    (Printf.sprintf "{\"ops_per_s\": [%s], \"ops_per_s_raw\": [%s], \"probe_tick_s\": [%s], \"setup_s\": [%s]}"
       (each worker_rate) (each raw_rate)
       (each (fun kv -> f kv "probe_s" /. float_of_int (i kv "ticks")))
       (String.concat ", " (List.map (fun kv -> List.assoc "setup_s" kv) results)));
  print_result
    [
      ("setup_s", "s", median (fun kv -> f kv "setup_s"));
      ("ops_per_s", "1/s", median worker_rate);
      ( "minor_words_per_op",
        "words/op",
        let kv = List.hd results in
        Stat.per_op (f kv "alloc_minor") ~ops:(i kv "alloc_ops") );
      ("peak_rss_mb", "MB", median (fun kv -> f kv "rss_mb"));
      ("paper_err_pct", "%", median (fun kv -> f kv "err_pct"));
    ]

let () =
  match worker with
  | Some k ->
    Probe.start ();
    worker_run k seconds
  | None ->
    diag "machine"
      (Printf.sprintf
         "{\"nproc\": %d, \"ocaml\": %S, \"ocamlrunparam\": %S, \"workload\": %S, \"seed\": %d, \
          \"seconds\": %g, \"trace\": %b, \"workers\": %d}"
         (Domain.recommended_domain_count ())
         Sys.ocaml_version
         (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
         workload seed seconds traced
         (if traced then 1 else the_workload.workers));
    if traced then traced_run () else parent_run ()
