(* Benchmark harness: regenerates every measurement the paper reports.

   Run with:    dune exec bench/main.exe            (all experiments)
                dune exec bench/main.exe -- e1 f2   (a subset)

   Each experiment prints the rows of its paper claims (Metrics.Claims,
   where every paper figure is stated once) and its descriptive tables,
   and flags mismatches.  Absolute times are simulated virtual time from
   the calibrated cost models; the protocol message counts are exact. *)

module R = Metrics.Report
module BW = Harness.Backend_world
module S = Harness.Scenarios

(* Experiments may run on worker domains (-j); the shared verdict is an
   atomic so a mismatch on any worker flips it without a race. *)
let all_ok = Atomic.make true
let fail () = Atomic.set all_ok false

(* The registered paper claims whose ids start with [prefix], one row
   each; a failed claim fails the bench. *)
let claims prefix =
  let module C = Metrics.Claims in
  let rs = List.map C.check (List.filter (fun c -> String.starts_with ~prefix c.C.id) C.all) in
  R.table ~header:C.header (List.map C.cells rs);
  if not (List.for_all (fun r -> r.C.ok) rs) then fail ()

let lynx_mean b payload = Harness.Rpc_bench.mean_ms (Harness.Rpc_bench.run b ~payload ())

(* ---- E1: §3.3 — simple remote operation under Charlotte ---------------- *)

let e1 () =
  R.section "E1 (§3.3): simple remote operation, Charlotte / Crystal";
  claims "E1."

(* ---- E2: §3.3 vs §5.3 — run-time package size --------------------------- *)

let e2 () =
  R.section "E2 (§3.3/§5.3): run-time package size (relative claim)";
  match Metrics.Source_size.backend_sizes () with
  | None -> R.print_endline "  (sources not found; skipped)"
  | Some sizes ->
    let get n = (List.assoc n sizes).Metrics.Source_size.code_lines in
    R.table
      ~header:[ "component"; "our code lines"; "paper (1986 C)" ]
      [
        [ "Charlotte channel layer"; string_of_int (get "lynx_charlotte"); "4000 + 200 asm" ];
        [ "SODA channel layer"; string_of_int (get "lynx_soda"); "(designed, ~4 KB smaller)" ];
        [ "Chrysalis channel layer"; string_of_int (get "lynx_chrysalis"); "3600 + 200 asm" ];
        [ "shared LYNX core"; string_of_int (get "lynx"); "-" ];
      ];
    let c = get "lynx_charlotte" and s = get "lynx_soda" and h = get "lynx_chrysalis" in
    R.printf
      "  paper's claim: the Charlotte package is the largest (its\n\
      \  unwanted-message and multi-enclosure machinery): %s\n"
      (if c > s && c > h then "[ok]" else "[MISMATCH]");
    if not (c > s && c > h) then fail ();
    (* The same measure over our own layers: the ledger of net lines
       each change adds or removes. *)
    match Metrics.Source_size.layer_sizes () with
    | None -> ()
    | Some layers ->
      let module SS = Metrics.Source_size in
      let total = List.fold_left (fun a (_, c) -> SS.add a c) SS.zero layers in
      R.table ~header:[ "layer"; "files"; "code lines" ]
        (List.map
           (fun (name, c) ->
             [ name; string_of_int c.SS.files; string_of_int c.SS.code_lines ])
           (layers @ [ ("total", total) ]))

(* ---- E3: §4.3 — SODA 3x + break-even ------------------------------------- *)

let e3 () =
  R.section "E3 (§4.3): SODA vs Charlotte — 3x for small messages, crossover";
  claims "E3.";
  R.table
    ~header:[ "payload (B each way)"; "charlotte"; "soda"; "winner" ]
    (List.map
       (fun p ->
         let c = lynx_mean BW.charlotte p and s = lynx_mean BW.soda p in
         [ string_of_int p; R.ms c; R.ms s; (if s < c then "soda" else "charlotte") ])
       [ 0; 500; 1000; 1250; 1500; 1750; 2000; 2500 ])

(* ---- E4: §5.3 — Chrysalis latency ----------------------------------------- *)

let e4 () =
  R.section "E4 (§5.3): simple remote operation, Chrysalis / Butterfly";
  claims "E4."

(* ---- F1: figure 1 — simultaneous move -------------------------------------- *)

let f1 () =
  R.section "F1 (figure 1): both ends of one link moved simultaneously";
  let rows =
    List.map
      (fun (backend : BW.backend) ->
        let o = S.simultaneous_move backend in
        if not o.S.o_ok then fail ();
        let move_cost =
          match backend.name with
          | "charlotte" ->
            Printf.sprintf "%d kernel move-protocol msgs"
              (S.counter o "charlotte.move_protocol_msgs")
          | "soda" ->
            Printf.sprintf "%d hint updates (adopted ends)"
              (S.counter o "lynx_soda.ends_adopted")
          | _ ->
            Printf.sprintf "%d object remappings"
              (S.counter o "lynx_chrysalis.ends_adopted")
        in
        [
          backend.name;
          (if o.S.o_ok then "link survives" else "BROKEN");
          Printf.sprintf "%.1f ms" (Sim.Time.to_ms o.S.o_duration);
          move_cost;
        ])
      BW.all
  in
  R.table ~header:[ "backend"; "outcome"; "duration"; "move machinery" ] rows

(* ---- F2: figure 2 — the multi-enclosure protocol ---------------------------- *)

let f2 () =
  R.section
    "F2 (figure 2): kernel messages per remote op moving k link ends";
  let ks = [ 0; 1; 2; 3; 4; 5 ] in
  let rows =
    List.map
      (fun k ->
        let c = S.enclosure_protocol ~n_encl:k BW.charlotte in
        let s = S.enclosure_protocol ~n_encl:k BW.soda in
        let h = S.enclosure_protocol ~n_encl:k BW.chrysalis in
        if not (c.S.o_ok && s.S.o_ok && h.S.o_ok) then fail ();
        let expected = if k <= 1 then 2 else k + 2 in
        let measured = S.counter c "charlotte.kernel_msgs" in
        if measured <> expected then fail ();
        [
          string_of_int k;
          Printf.sprintf "%d (expected %d)" measured expected;
          string_of_int (S.counter s "lynx_soda.data_puts");
          string_of_int (S.counter h "lynx_chrysalis.msgs_written");
        ])
      ks
  in
  R.table
    ~header:
      [ "enclosures"; "charlotte msgs"; "soda data puts"; "chrysalis slot writes" ]
    rows;
  R.print_endline
    "  paper: Charlotte needs request/goahead/enc.../reply; SODA and\n\
    \  Chrysalis move any number of ends in the message itself."

(* ---- E5: §3.2.1 — unwanted-message machinery -------------------------------- *)

let e5 () =
  R.section "E5 (§3.2.1): unwanted messages and the retry/forbid/allow traffic";
  let row name o =
    [
      name;
      (if o.S.o_ok then "completes" else "BROKEN");
      string_of_int (S.counter o "lynx_charlotte.unwanted_received");
      string_of_int
        (S.counter o "lynx_charlotte.pkt_sent.retry"
        + S.counter o "lynx_charlotte.pkt_sent.forbid"
        + S.counter o "lynx_charlotte.pkt_sent.allow");
    ]
  in
  let rows =
    List.concat_map
      (fun (backend : BW.backend) ->
        let cross = S.cross_request backend in
        let race = S.open_close_race backend in
        if not (cross.S.o_ok && race.S.o_ok) then fail ();
        [
          row (backend.name ^ ": cross request") cross;
          row (backend.name ^ ": open/close race") race;
        ])
      BW.all
  in
  R.table
    ~header:[ "scenario"; "outcome"; "unwanted msgs"; "bounce traffic" ]
    rows;
  R.print_endline
    "  paper: only Charlotte ever receives a message it does not want\n\
    \  (lesson two: screening belongs in the application layer).";
  R.section "E5b (§3.2.2): the lost-enclosure deviation";
  let rows =
    List.map
      (fun (backend : BW.backend) ->
        let o = S.lost_enclosure backend in
        if not o.S.o_ok then fail ();
        [ backend.name; o.S.o_detail ])
      BW.all
  in
  R.table ~header:[ "backend"; "outcome" ] rows;
  R.print_endline
    "  paper: under Charlotte the enclosed end is lost when the holder\n\
    \  dies mid-bounce; SODA and Chrysalis recover it."

(* ---- E6: §6 — cross-implementation summary ----------------------------------- *)

let e6 () =
  R.section "E6 (§6): cross-implementation summary";
  let sizes = Metrics.Source_size.backend_sizes () in
  let rows =
    List.map
      (fun (backend : BW.backend) ->
        let r0 = Harness.Rpc_bench.run backend ~payload:0 () in
        let r1000 = Harness.Rpc_bench.run backend ~payload:1000 () in
        let cross = S.cross_request backend in
        let loc =
          match sizes with
          | Some l -> (
            match List.assoc_opt ("lynx_" ^ backend.name) l with
            | Some c -> string_of_int c.Metrics.Source_size.code_lines
            | None -> "-")
          | None -> "-"
        in
        [
          backend.name;
          R.ms (Harness.Rpc_bench.mean_ms r0);
          R.ms (Harness.Rpc_bench.mean_ms r1000);
          string_of_int (S.counter cross "lynx_charlotte.unwanted_received");
          loc;
        ])
      BW.all
  in
  R.table
    ~header:
      [ "backend"; "RPC 0B"; "RPC 1000B"; "unwanted msgs"; "channel-layer LoC" ]
    rows;
  R.print_endline
    "  the paper's conclusion in one table: the high-level kernel is the\n\
    \  slowest, needs the most runtime code, and is the only one that\n\
    \  ever receives an unwanted message."

(* ---- A1-A3: ablations of the design choices the paper discusses ------------- *)

(* §3.2.2: "they would provide additional acknowledgments for the
   replies themselves if they were not so expensive... increasing
   message traffic by 50%".  The rejected design, measured. *)
let a1 () =
  R.section "A1 (ablation, §3.2.2): top-level reply acknowledgments";
  let plain = Harness.Rpc_bench.run BW.charlotte ~payload:0 () in
  let acks = Harness.Rpc_bench.run BW.charlotte_acks ~payload:0 () in
  let msgs (r : Harness.Rpc_bench.result) =
    try List.assoc "charlotte.kernel_msgs" r.Harness.Rpc_bench.r_counters
    with Not_found -> 0
  in
  R.table
    ~header:[ "variant"; "RPC latency"; "kernel msgs / 30 RPCs" ]
    [
      [ "charlotte (paper)"; R.ms (Harness.Rpc_bench.mean_ms plain); string_of_int (msgs plain) ];
      [ "charlotte + reply acks"; R.ms (Harness.Rpc_bench.mean_ms acks); string_of_int (msgs acks) ];
    ];
  claims "A1."

(* §6 lesson one: "the Charlotte kernel itself would be simplified
   considerably by using hints when moving links."  A kernel variant
   whose moves cost nothing extra, measured on figure 1. *)
let a2 () =
  R.section "A2 (ablation, lesson one): hint-based moves in the Charlotte kernel";
  let plain = S.simultaneous_move BW.charlotte in
  let hinted = S.simultaneous_move BW.charlotte_hints in
  if not (plain.S.o_ok && hinted.S.o_ok) then fail ();
  R.table
    ~header:[ "kernel variant"; "figure-1 duration"; "move-protocol msgs" ]
    [
      [
        "three-party agreement (paper)";
        Printf.sprintf "%.1f ms" (Sim.Time.to_ms plain.S.o_duration);
        string_of_int (S.counter plain "charlotte.move_protocol_msgs");
      ];
      [
        "hint-based moves";
        Printf.sprintf "%.1f ms" (Sim.Time.to_ms hinted.S.o_duration);
        string_of_int (S.counter hinted "charlotte.move_protocol_msgs");
      ];
    ];
  R.printf "  hint-based moves are %s faster on the figure-1 workload
"
    (R.ratio
       (Sim.Time.to_ms plain.S.o_duration /. Sim.Time.to_ms hinted.S.o_duration))

(* §4.2: how the hint-repair machinery degrades as SODA's broadcast
   gets lossier — discover first, the freeze search as the fallback. *)
let a3 () =
  R.section "A3 (ablation, §4.2): hint repair vs broadcast loss rate";
  let rows =
    List.map
      (fun loss ->
        let o = S.soda_hint_repair ~broadcast_loss:loss () in
        if not o.S.o_ok then fail ();
        [
          Printf.sprintf "%.0f%%" (loss *. 100.);
          (if o.S.o_ok then "repaired" else "LOST");
          string_of_int (S.counter o "lynx_soda.discover_attempts");
          string_of_int (S.counter o "lynx_soda.freeze_searches");
        ])
      [ 0.0; 0.25; 0.5; 0.9; 1.0 ]
  in
  R.table
    ~header:[ "broadcast loss"; "outcome"; "discover attempts"; "freeze searches" ]
    rows;
  R.print_endline
    "  paper: \"if the heuristics failed too often, a fall-back\n\
    \  mechanism would be needed\" — the freeze search takes over as\n\
    \  discover degrades, and the link is never presumed dead wrongly."

(* §5.3's closing prediction: "code tuning and protocol optimizations
   now under development are likely to improve both figures by 30 to
   40%".  A runtime with 35%-cheaper fixed costs, measured. *)
let a4 () =
  R.section "A4 (ablation, §5.3): the predicted Butterfly code tuning";
  claims "A4."

(* §4.2.1: "too small a limit on outstanding requests would leave the
   possibility of deadlock when many links connect the same pair of
   processes."  Six links, one call each, 2 s (virtual) deadline: the
   run-time package's signal budgeting versus the naive layer. *)
let a5 () =
  R.section "A5 (ablation, §4.2.1): per-pair request budget vs deadlock";
  claims "A5."

(* Beyond the paper: how far do concurrent coroutines pipeline against
   each kernel's buffering?  LYNX is stop-and-wait per coroutine; the
   kernels differ in how many messages they keep in flight. *)
let x1 () =
  R.section "X1 (beyond the paper): throughput vs concurrency, one link";
  let ks = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun k ->
        let cell b =
          Printf.sprintf "%.1f ops/s"
            (Harness.Rpc_bench.throughput ~coroutines:k b ~payload:0 ())
        in
        [
          string_of_int k;
          cell BW.charlotte;
          cell BW.soda;
          cell BW.chrysalis;
        ])
      ks
  in
  R.table ~header:[ "coroutines"; "charlotte"; "soda"; "chrysalis" ] rows;
  R.print_endline
    "  stop-and-wait per coroutine; extra coroutines pipeline against\n\
    \  the kernel's buffering (one kernel send per end under Charlotte,\n\
    \  one slot per kind under Chrysalis, the pair budget under SODA)."

(* Beyond the paper: the fault-tolerant LYNX protocols under the
   targeted fault plans, judged by the recovery/liveness deadline.
   Time-to-recover is virtual time from the close of the fault window
   (leader restarted, partition healed) to the protocol's own
   confirmation; retries are the LYNX screening calls spent getting
   there. *)
let x2 () =
  R.section "X2 (beyond the paper): recovery cost under targeted faults";
  let cell sc plan b =
    let spec = Run.Spec.v ~plan ~scenario:sc ~backend:b 1 in
    match Run.execute spec with
    | None ->
      fail ();
      [ sc ^ "/" ^ b; Run.Spec.plan_name plan; "n/a"; "-"; "-" ]
    | Some a ->
      if Run.Artifact.anomalous a then fail ();
      (match a.Run.Artifact.liveness with
      | Run.Liveness.Live m ->
        [
          sc ^ "/" ^ b;
          Run.Spec.plan_name plan;
          Printf.sprintf "%.1f ms" (Sim.Time.to_ms m.Run.Liveness.m_ttr);
          string_of_int m.Run.Liveness.m_failovers;
          string_of_int m.Run.Liveness.m_retries;
        ]
      | v ->
        fail ();
        [ sc ^ "/" ^ b; Run.Spec.plan_name plan; Run.Liveness.to_cell v; "-"; "-" ])
  in
  let rows =
    List.concat_map
      (fun (sc, plan) ->
        List.map (cell sc plan) [ "charlotte"; "soda"; "chrysalis" ])
      [
        ("ring-election", Run.Spec.Leader_crash);
        ("quorum", Run.Spec.Partition_minority);
        ("quorum", Run.Spec.Partition_majority);
      ]
  in
  R.table
    ~header:[ "case"; "plan"; "time-to-recover"; "failovers"; "retries" ]
    rows;
  R.print_endline
    "  every case must come back Live within its declared deadline; the\n\
    \  spread is the backends' RPC floor (Charlotte's 26 ms serialized\n\
    \  ring vs Chrysalis's shared memory) paid per screening probe."

(* Beyond the paper: population-scale throughput–latency curves.  An
   open-loop client population offers load at population/window
   arrivals per simulated second; sweeping the population sweeps the
   offered load, and each backend's curve shows where its kernel costs
   put the latency knee.  All in virtual time: the curve is a property
   of the calibrated cost models, not of the host machine. *)
let x3 () =
  R.section
    "X3 (beyond the paper): throughput vs latency under offered load \
     (open-loop farm)";
  let module W = Harness.Workload in
  let populations = [ 500; 2_000; 8_000 ] in
  let cell population backend =
    let r =
      W.run ~seed:1 ~population ~topology:W.Farm
        ~load:(W.Open { window = W.default_window })
        backend
    in
    if not r.W.r_ok then begin
      fail ();
      [ "FAILED"; "-"; "-" ]
    end
    else
      match r.W.r_latency with
      | None ->
        fail ();
        [ "no summary"; "-"; "-" ]
      | Some s ->
        let module H = Sim.Stats.Histogram in
        [
          Printf.sprintf "%.0f req/s"
            (float_of_int s.H.h_count /. Sim.Time.to_sec r.W.r_duration);
          R.ms (Sim.Time.to_ms s.H.h_p50);
          R.ms (Sim.Time.to_ms s.H.h_p99);
        ]
  in
  let rows =
    List.concat_map
      (fun population ->
        List.map2
          (fun name backend ->
            (Printf.sprintf "%d" population :: name :: cell population backend))
          [ "charlotte"; "soda"; "chrysalis" ]
          [ BW.charlotte; BW.soda; BW.chrysalis ])
      populations
  in
  R.table
    ~header:[ "population"; "backend"; "throughput"; "p50"; "p99" ]
    rows;
  R.print_endline
    "  offered load is population / 50 ms; the farm scales horizontally\n\
    \  (a server per 8-client cell), so throughput tracks offered load\n\
    \  and the latency gap between rows is pure kernel cost: Charlotte's\n\
    \  26 ms RPC floor vs SODA datagrams vs Chrysalis shared memory."

(* ---- Driver --------------------------------------------------------------------- *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("f1", f1);
    ("f2", f2);
    ("e5", e5);
    ("e6", e6);
    ("a1", a1);
    ("a2", a2);
    ("a3", a3);
    ("a4", a4);
    ("a5", a5);
    ("x1", x1);
    ("x2", x2);
    ("x3", x3);
  ]

let usage () =
  prerr_endline "usage: main.exe [-j N] [experiment ...]";
  exit 2

let () =
  let rec parse jobs names = function
    | [] -> (jobs, List.rev names)
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> parse j names rest
      | _ -> usage ())
    | [ ("-j" | "--jobs") ] -> usage ()
    | name :: rest -> parse jobs (name :: names) rest
  in
  let jobs, requested = parse 1 [] (List.tl (Array.to_list Sys.argv)) in
  (* Every name is resolved before anything runs: an unknown one must
     not let the rest report a match. *)
  let selected =
    if requested = [] then List.map snd experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f
          | None ->
            Printf.eprintf "unknown experiment %S (known: %s)\n" name
              (String.concat " " (List.map fst experiments));
            exit 2)
        requested
  in
  print_endline
    "LYNX reproduction bench — every table/figure from Scott, ICPP'86";
  print_endline
    "(simulated time from calibrated cost models; counts are exact)";
  (* -j runs whole experiments on the domain pool, each collecting its
     report into a private buffer; printing afterwards in request order
     keeps the output byte-identical to a sequential run. *)
  if jobs = 1 then List.iter (fun f -> f ()) selected
  else
    Parallel.Pool.map_list ~jobs
      (fun f ->
        let buf = Buffer.create 4096 in
        R.with_sink buf f;
        buf)
      selected
    |> List.iter (fun buf -> print_string (Buffer.contents buf));
  R.printf "\n%s\n"
    (if Atomic.get all_ok then "ALL EXPERIMENTS MATCH THE PAPER (within tolerance)"
     else "SOME EXPERIMENTS MISMATCHED — see [MISMATCH] lines above");
  if not (Atomic.get all_ok) then exit 1
