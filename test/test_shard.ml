(* Sharded PDES determinism: the merged run must be byte-identical at
   every shard count.  The differential oracle mirrors test_stream.ml:
   run the same workload at ~shards:1 (the reference) and at 2/3/8, and
   require identical merged event streams, fingerprints, counters and
   windows — then the same through the full Run pipeline (artifacts). *)

open Sim

let mesh_sent = Stats.key "mesh.sent"
let mesh_got = Stats.key "mesh.got"

(* A ping-pong mesh with data-dependent control flow: node i sends
   rounds of rng-sized messages to (i + stride) mod n, receivers spin a
   checksum and reply; enough cross-node traffic that a partition bug
   (lost edge, reordered delivery, shard-keyed rng) shows up in the
   fingerprint immediately. *)
let mesh_node ~nodes:n ~rounds ~look ctx =
  let me = Shard.self ctx in
  let rng = Shard.rng ctx in
  let rec round r =
    if r <= rounds then begin
      let dst = (me + 1 + Rng.int rng (n - 1)) mod n in
      let lat = Time.add look (Time.us (Rng.int rng 40)) in
      Shard.send ctx ~dst ~latency:lat ~op:"ping"
        (Printf.sprintf "r%d from %d" r me);
      Shard.incr ctx mesh_sent 1;
      Shard.recv ctx (fun msg ->
          Shard.incr ctx mesh_got (String.length msg);
          let next () =
            Shard.note ctx (Printf.sprintf "%d done r%d" me r);
            round (r + 1)
          in
          if r mod 3 = 0 then Shard.sleep ctx (Time.us (Rng.int rng 120)) next
          else next ())
    end
  in
  round 1

let mesh_workload ~nodes:n ~rounds ~shards ~seed ~policy () =
  let look = Time.us 50 in
  let t = Shard.create ~shards ~seed ~policy ~lookahead:look () in
  for i = 0 to n - 1 do
    ignore
      (Shard.add_node t ~name:(Printf.sprintf "peer%d" i)
         (mesh_node ~nodes:n ~rounds ~look))
  done;
  Shard.run t;
  t

type fingerprint = {
  fp_hash : int64;
  fp_total : int;
  fp_counters : (string * int) list;
  fp_windows : int;
}

let fingerprint t =
  let v = Shard.merged_view t in
  {
    fp_hash = v.Engine.v_events_hash;
    fp_total = Array.length v.Engine.v_events;
    fp_counters = Shard.counters t;
    fp_windows = Shard.windows t;
  }

let show_fp fp =
  Printf.sprintf "hash=%Lx total=%d windows=%d counters=[%s]" fp.fp_hash
    fp.fp_total fp.fp_windows
    (String.concat "; "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fp.fp_counters))

let check_invariant ~policy ~seed () =
  let base =
    fingerprint (mesh_workload ~nodes:6 ~rounds:5 ~shards:1 ~seed ~policy ())
  in
  List.iter
    (fun k ->
      let fp =
        fingerprint (mesh_workload ~nodes:6 ~rounds:5 ~shards:k ~seed ~policy ())
      in
      Alcotest.(check string)
        (Printf.sprintf "shards=%d == shards=1" k)
        (show_fp base) (show_fp fp))
    [ 2; 3; 8 ]

let test_fifo_invariant () = check_invariant ~policy:Engine.Fifo ~seed:7 ()

let test_random_invariant () =
  check_invariant ~policy:(Engine.Random_order 11) ~seed:7 ()

let test_jitter_invariant () =
  check_invariant
    ~policy:(Engine.Delay_jitter { jitter_seed = 3; bound = Time.us 20 })
    ~seed:7 ()

(* Event streams, not just hashes: compare the merged logs entry by
   entry at 1 vs 4 shards. *)
let test_streams_identical () =
  let run k = mesh_workload ~nodes:5 ~rounds:4 ~shards:k ~seed:13
      ~policy:Engine.Fifo ()
  in
  let va = Shard.merged_view (run 1) and vb = Shard.merged_view (run 4) in
  let render v =
    Array.to_list v.Engine.v_events
    |> List.map (fun ev ->
           Printf.sprintf "%s #%d %s"
             (Time.to_string ev.Event.ev_time)
             ev.Event.ev_fiber
             (Event.kind_to_string ev.Event.ev_kind))
    |> String.concat "\n"
  in
  Alcotest.(check string) "merged event logs" (render va) (render vb)

(* Window-barrier boundary: a message sent at exactly the lookahead
   latency lands exactly on the next window's edge and must still be
   delivered (<= limit, not <).  One sender, one sleeper-receiver. *)
let test_boundary_delivery () =
  let look = Time.ms 1 in
  let t = Shard.create ~shards:2 ~lookahead:look () in
  let got = ref None in
  let _receiver =
    Shard.add_node t ~name:"rx" (fun ctx ->
        Shard.recv ctx (fun msg -> got := Some msg))
  in
  let _sender =
    Shard.add_node t ~name:"tx" (fun ctx ->
        Shard.send ctx ~dst:0 ~latency:look "on-the-edge")
  in
  Shard.run t ~expect_quiescent:true;
  Alcotest.(check (option string)) "delivered" (Some "on-the-edge") !got;
  let v = Shard.merged_view t in
  Alcotest.(check string) "final time is the delivery window edge" "1.000ms"
    (Time.to_string v.Engine.v_now)

let test_sub_lookahead_rejected () =
  let t = Shard.create ~shards:2 ~lookahead:(Time.ms 1) () in
  let _rx = Shard.add_node t ~name:"rx" (fun ctx -> Shard.recv ctx ignore) in
  let _tx =
    Shard.add_node t ~name:"tx" (fun ctx ->
        Shard.send ctx ~dst:0 ~latency:(Time.us 999) "too-fast")
  in
  Alcotest.check_raises "below lookahead"
    (Engine.Fiber_crash
       ("tx", Invalid_argument "Shard.send: latency below the lookahead"))
    (fun () -> Shard.run t)

(* Deadlock detection surfaces blocked nodes in id order. *)
let test_deadlock_named () =
  let t = Shard.create ~shards:2 ~lookahead:(Time.ms 1) () in
  let _a = Shard.add_node t ~name:"alpha" (fun ctx -> Shard.recv ctx ignore) in
  let _b = Shard.add_node t ~name:"beta" (fun ctx -> Shard.recv ctx ignore) in
  Alcotest.check_raises "both starved" (Engine.Deadlock "alpha (recv), beta (recv)")
    (fun () -> Shard.run t ~expect_quiescent:true)

(* The step contract, through the Shard surface: a second blocking op
   in one step is the node's crash, and so is an exception. *)
let test_double_block () =
  let t = Shard.create ~shards:2 ~lookahead:(Time.ms 1) () in
  let _calm = Shard.add_node t ~name:"calm" (fun ctx -> Shard.recv ctx ignore) in
  let _greedy =
    Shard.add_node t ~name:"greedy" (fun ctx ->
        Shard.sleep ctx (Time.us 5) ignore;
        Shard.recv ctx ignore)
  in
  Alcotest.check_raises "second block in one step"
    (Engine.Fiber_crash
       ("greedy", Invalid_argument "Engine: a stackless step may block only once"))
    (fun () -> Shard.run t)

let test_step_crash () =
  let t = Shard.create ~shards:2 ~lookahead:(Time.ms 1) () in
  let faulty = ref (-1) in
  let _calm =
    Shard.add_node t ~name:"calm" (fun ctx ->
        Shard.recv ctx (fun _ -> Shard.note ctx "calm got it"))
  in
  faulty :=
    Shard.add_node t ~name:"faulty" (fun ctx ->
        Shard.send ctx ~dst:0 ~latency:(Time.ms 1) "hello";
        Shard.sleep ctx (Time.ms 2) (fun () -> failwith "boom"));
  Alcotest.check_raises "the raising node crashed"
    (Engine.Fiber_crash ("faulty", Failure "boom"))
    (fun () -> Shard.run t);
  let v = Shard.merged_view t in
  Alcotest.(check (list (pair string string)))
    "recorded as that node's crash" [ ("faulty", "Failure(\"boom\")") ]
    v.Engine.v_crashes;
  Alcotest.(check (list string))
    "fiber states" [ "crashed" ]
    (List.map (fun f -> f.Engine.fi_state) v.Engine.v_fibers);
  Alcotest.(check int) "the calm node finished" 1 v.Engine.v_finished;
  let crashes =
    Array.to_list v.Engine.v_events
    |> List.filter_map (fun ev ->
           match ev.Event.ev_kind with
           | Event.Crash { fid; _ } ->
             Some (Time.to_string ev.Event.ev_time, fid)
           | _ -> None)
  in
  Alcotest.(check (list (pair string int)))
    "one Crash event, at the step's time" [ ("2.000ms", !faulty) ] crashes

(* [Label] against the [Printf] formats it replaces. *)
let qcheck_labels =
  let top = Harness.Workload.max_population in
  let n = QCheck.Gen.(oneof [ oneofl [ 0; 9; 10; top ]; int_bound top ]) in
  QCheck.Test.make ~name:"Label builds what Printf.sprintf builds" ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "%d %d" a b)
       (QCheck.Gen.pair n n))
    (fun (a, b) ->
      String.equal (Label.pair "n" a "->n" b) (Printf.sprintf "n%d->n%d" a b)
      && String.equal (Label.int "srv" a) (Printf.sprintf "srv%d" a)
      && String.equal (Label.int "root" b) (Printf.sprintf "root%d" b)
      && String.equal (Label.int "node" a) (Printf.sprintf "node%d" a)
      && String.equal (Label.pair "cli" a "." b) (Printf.sprintf "cli%d.%d" a b)
      && String.equal (Label.pair "rly" a "." b) (Printf.sprintf "rly%d.%d" a b)
      && String.equal (Label.pair "leaf" a "." b)
           (Printf.sprintf "leaf%d.%d" a b))

(* Streaming observer parity: an ambient observer must see exactly the
   canonical merged stream (attached to the sink, not the sub-engines). *)
let test_observer_sees_merged_stream () =
  let seen = ref 0 and hash = ref 0L in
  let fold h i = Int64.mul (Int64.logxor h (Int64.of_int i)) 0x100000001B3L in
  let t =
    Engine.with_observer
      ~attach:(fun eng ->
        Engine.add_consumer eng (fun ev ->
            incr seen;
            hash := fold !hash (Event.kind_tag ev.Event.ev_kind)))
      (fun () ->
        mesh_workload ~nodes:6 ~rounds:5 ~shards:4 ~seed:21
          ~policy:Engine.Fifo ())
  in
  let v = Shard.merged_view t in
  Alcotest.(check int)
    "observer saw every merged event" (Array.length v.Engine.v_events) !seen;
  (* And the same workload at 1 shard feeds the observer identically. *)
  let seen1 = ref 0 and hash1 = ref 0L in
  ignore
    (Engine.with_observer
       ~attach:(fun eng ->
         Engine.add_consumer eng (fun ev ->
             incr seen1;
             hash1 := fold !hash1 (Event.kind_tag ev.Event.ev_kind)))
       (fun () ->
         mesh_workload ~nodes:6 ~rounds:5 ~shards:1 ~seed:21
           ~policy:Engine.Fifo ()));
  Alcotest.(check int) "same event count at 1 shard" !seen1 !seen;
  Alcotest.(check int64) "same consumer fold at 1 shard" !hash1 !hash

(* Artifact-level differential through the full Run pipeline: for every
   registry scenario x backend x seed x plan draw, executing the spec
   at [~sK] must produce a byte-identical judged artifact (verdict,
   violations, races, counters, duration, events hash) to [shards = 1].
   Artifacts embed their spec, so we relabel the sharded one before
   serialising — exactly what `lynx_sim repro --shards` does. *)
let qcheck_artifact_invariance =
  let module Spec = Run.Spec in
  let scenarios = Harness.Scenarios.names in
  let backends = [ "charlotte"; "soda"; "chrysalis" ] in
  let gen =
    QCheck.make
      ~print:(fun (sc, b, seed, k, plan) ->
        Spec.to_string
          (Spec.v ~scenario:sc ~backend:b ?plan ~shards:k seed))
      QCheck.Gen.(
        tup5 (oneofl scenarios) (oneofl backends) (int_range 1 3)
          (oneofl [ 2; 4; 8 ])
          (oneofl [ None; Some Spec.Drop; Some Spec.Mix ]))
  in
  QCheck.Test.make ~name:"artifact at ~sK == artifact at ~s1" ~count:25 gen
    (fun (sc, b, seed, k, plan) ->
      let spec1 = Run.Spec.v ~scenario:sc ~backend:b ?plan seed in
      let speck = { spec1 with Spec.shards = k } in
      match (Run.execute spec1, Run.execute speck) with
      | None, None -> true  (* scenario n/a on this backend *)
      | Some a1, Some ak ->
        let relabeled = { ak with Run.Artifact.spec = spec1 } in
        String.equal (Run.Artifact.to_json a1)
          (Run.Artifact.to_json relabeled)
      | _ -> false)

(* QCheck: shard-count invariance over random (seed, shards, policy,
   topology) draws. *)
let qcheck_invariance =
  let gen =
    QCheck.make
      ~print:(fun (seed, k, nodes, rounds, pol) ->
        Printf.sprintf "seed=%d shards=%d nodes=%d rounds=%d policy=%d" seed k
          nodes rounds pol)
      QCheck.Gen.(
        tup5 (int_bound 1000) (int_range 2 8) (int_range 2 7) (int_range 1 5)
          (int_bound 2))
  in
  QCheck.Test.make ~name:"sharded == sequential (merged fingerprint)"
    ~count:30 gen (fun (seed, k, nodes, rounds, pol) ->
      let policy =
        match pol with
        | 0 -> Engine.Fifo
        | 1 -> Engine.Random_order seed
        | _ -> Engine.Delay_jitter { jitter_seed = seed; bound = Time.us 20 }
      in
      let fp j =
        show_fp (fingerprint (mesh_workload ~nodes ~rounds ~shards:j ~seed ~policy ()))
      in
      String.equal (fp 1) (fp k))

(* Two nodes on one shard bouncing a message [n] times: each bounce is
   one send, one barrier exchange and injection, and one park in [recv]
   woken by the delivery.  Nothing is retained. *)
let bounce_look = Time.us 1

let bounces n =
  let t = Shard.create ~log_capacity:0 ~lookahead:bounce_look () in
  let player ctx =
    let rec loop () =
      Shard.recv ctx (fun left ->
          if left > 0 then begin
            Shard.send ctx ~dst:(1 - Shard.self ctx) ~latency:bounce_look
              (left - 1);
            loop ()
          end)
    in
    loop ()
  in
  ignore (Shard.add_node t ~daemon:true player);
  ignore
    (Shard.add_node t ~daemon:true (fun ctx ->
         Shard.send ctx ~dst:0 ~latency:bounce_look n;
         player ctx));
  Shard.run t

let test_recv_cycle_words () =
  Budgets.check "shard.recv-cycle" (Budgets.words_per_iter bounces)

(* Minor words of one default Shard_rpc run at one shard on Chrysalis
   (4 pairs x 3 rounds), after one warm-up run: what a single-shard run
   pays for the partitioning machinery. *)
let test_one_shard_words () =
  Budgets.check "shard.run" (Budgets.words_per_iter ~warm:1 ~iters:1 (fun n ->
         for _ = 1 to n do
           ignore
             (Harness.Shard_rpc.run Harness.Scenarios.default
                Harness.Backend_world.chrysalis)
         done))

(* The window buffers hand their events to the sink at each barrier and
   keep none of them: with a sink that retains nothing, no merged event
   is reachable from the coordinator once the run is over. *)
let[@inline never] watched_run () =
  let seen = ref [] in
  let t =
    Engine.with_observer
      ~attach:(fun sink ->
        Engine.add_consumer sink (fun ev -> seen := ev :: !seen))
      (fun () ->
        Shard.create ~shards:2 ~log_capacity:0 ~lookahead:(Time.us 50) ())
  in
  for _ = 1 to 4 do
    ignore (Shard.add_node t (mesh_node ~nodes:4 ~rounds:6 ~look:(Time.us 50)))
  done;
  Shard.run t;
  let w = Weak.create (List.length !seen) in
  List.iteri (fun i ev -> Weak.set w i (Some ev)) !seen;
  (* The consumer lives on in the sink: let go of its list. *)
  seen := [];
  (t, w)

let test_merged_events_released () =
  let t, w = watched_run () in
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr alive
  done;
  Alcotest.(check bool) "events were merged" true (Weak.length w > 0);
  Alcotest.(check int) "merged events still reachable" 0 !alive;
  Alcotest.(check bool) "windows ran" true (Shard.windows t > 0)

let () =
  Alcotest.run "shard"
    [
      ( "determinism",
        [
          Alcotest.test_case "fifo 1/2/3/8" `Quick test_fifo_invariant;
          Alcotest.test_case "random-order 1/2/3/8" `Quick
            test_random_invariant;
          Alcotest.test_case "jitter 1/2/3/8" `Quick test_jitter_invariant;
          Alcotest.test_case "merged logs equal" `Quick test_streams_identical;
          QCheck_alcotest.to_alcotest qcheck_invariance;
          QCheck_alcotest.to_alcotest qcheck_artifact_invariance;
        ] );
      ( "windows",
        [
          Alcotest.test_case "boundary delivery" `Quick test_boundary_delivery;
          Alcotest.test_case "sub-lookahead rejected" `Quick
            test_sub_lookahead_rejected;
          Alcotest.test_case "deadlock names nodes" `Quick test_deadlock_named;
          Alcotest.test_case "merged events are released" `Quick
            test_merged_events_released;
        ] );
      ( "steps",
        [
          Alcotest.test_case "a step that blocks twice crashes the node"
            `Quick test_double_block;
          Alcotest.test_case "a raising step is that node's crash" `Quick
            test_step_crash;
          QCheck_alcotest.to_alcotest qcheck_labels;
        ] );
      ( "pool",
        [
          Alcotest.test_case "observer sees merged stream" `Quick
            test_observer_sees_merged_stream;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "words per one-shard run" `Quick
            test_one_shard_words;
          Alcotest.test_case "words per recv park/wake cycle" `Quick
            test_recv_cycle_words;
        ] );
    ]
