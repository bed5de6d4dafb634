(* Tests for the discrete-event simulation engine and its primitives. *)

open Sim

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ---- Time ---------------------------------------------------------------- *)

let time_tests =
  [
    Alcotest.test_case "units compose" `Quick (fun () ->
        checki "us" 1_000 (Time.to_ns (Time.us 1));
        checki "ms" 1_000_000 (Time.to_ns (Time.ms 1));
        checki "sec" 1_000_000_000 (Time.to_ns (Time.sec 1)));
    Alcotest.test_case "of_ms_float rounds" `Quick (fun () ->
        checki "1.5ms" 1_500_000 (Time.to_ns (Time.of_ms_float 1.5));
        checki "rounds" 1_000 (Time.to_ns (Time.of_us_float 1.0000001)));
    Alcotest.test_case "sub saturates at zero" `Quick (fun () ->
        checki "saturate" 0 (Time.to_ns (Time.sub (Time.ms 1) (Time.ms 2))));
    Alcotest.test_case "diff is absolute" `Quick (fun () ->
        checki "diff" 1_000_000
          (Time.to_ns (Time.diff (Time.ms 1) (Time.ms 2))));
    Alcotest.test_case "comparisons" `Quick (fun () ->
        checkb "lt" true Time.(Time.ms 1 < Time.ms 2);
        checkb "ge" true Time.(Time.ms 2 >= Time.ms 2);
        checki "max" (Time.to_ns (Time.ms 2))
          (Time.to_ns (Time.max (Time.ms 1) (Time.ms 2))));
    Alcotest.test_case "pp formats ms" `Quick (fun () ->
        check Alcotest.string "pp" "57.000ms" (Time.to_string (Time.ms 57)));
    Alcotest.test_case "scale and mul_float" `Quick (fun () ->
        checki "scale" 5_000 (Time.to_ns (Time.scale (Time.us 1) 5));
        checki "mul" 1_500 (Time.to_ns (Time.mul_float (Time.us 1) 1.5)));
  ]

(* ---- Heap ---------------------------------------------------------------- *)

let heap_tests =
  [
    Alcotest.test_case "orders by time" `Quick (fun () ->
        let h = Heap.create () in
        Heap.add h ~time:30 ~seq:0 "c";
        Heap.add h ~time:10 ~seq:1 "a";
        Heap.add h ~time:20 ~seq:2 "b";
        let pop () =
          match Heap.pop h with Some (_, _, v) -> v | None -> "?"
        in
        let first = pop () in
        let second = pop () in
        let third = pop () in
        check Alcotest.(list string) "order" [ "a"; "b"; "c" ]
          [ first; second; third ]);
    Alcotest.test_case "seq breaks ties FIFO" `Quick (fun () ->
        let h = Heap.create () in
        for i = 0 to 9 do
          Heap.add h ~time:5 ~seq:i i
        done;
        let order = ref [] in
        let rec drain () =
          match Heap.pop h with
          | Some (_, _, v) ->
            order := v :: !order;
            drain ()
          | None -> ()
        in
        drain ();
        check Alcotest.(list int) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
          (List.rev !order));
    Alcotest.test_case "empty pop" `Quick (fun () ->
        let h : unit Heap.t = Heap.create () in
        checkb "none" true (Heap.pop h = None);
        checkb "empty" true (Heap.is_empty h));
    Alcotest.test_case "peek_time" `Quick (fun () ->
        let h = Heap.create () in
        Heap.add h ~time:42 ~seq:0 ();
        checkb "peek" true (Heap.peek_time h = Some 42);
        ignore (Heap.pop h);
        checkb "peek empty" true (Heap.peek_time h = None));
    Alcotest.test_case "grows past initial capacity" `Quick (fun () ->
        let h = Heap.create () in
        for i = 0 to 999 do
          Heap.add h ~time:(1000 - i) ~seq:i i
        done;
        checki "len" 1000 (Heap.length h);
        match Heap.pop h with
        | Some (t, _, _) -> checki "min" 1 t
        | None -> Alcotest.fail "empty");
  ]

let heap_property =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (t, _) -> Heap.add h ~time:t ~seq:i i) entries;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, s, _) -> drain ((t, s) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted)

(* Interleaved adds and pops checked against a sorted-list model: after
   any operation sequence the heap and the model agree on every pop,
   including pops taken while later adds are still to come.  [true] ops
   are adds (with a pseudo-random time), [false] ops are pops. *)
let heap_model_property =
  QCheck.Test.make ~name:"heap matches sorted-list model under add/pop mix"
    ~count:300
    QCheck.(list bool)
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun is_add ->
          if is_add then begin
            let time = !seq * 7919 mod 97 in
            Heap.add h ~time ~seq:!seq !seq;
            model := List.merge compare !model [ (time, !seq, !seq) ];
            incr seq
          end
          else begin
            (match (Heap.pop h, !model) with
            | None, [] -> ()
            | Some got, expect :: rest ->
              if got <> expect then ok := false;
              model := rest
            | Some _, [] | None, _ :: _ -> ok := false);
            if Heap.length h <> List.length !model then ok := false
          end)
        ops;
      !ok)

let heap_clear_tests =
  [
    Alcotest.test_case "clear empties and the heap stays usable" `Quick
      (fun () ->
        let h = Heap.create () in
        for i = 0 to 99 do
          Heap.add h ~time:i ~seq:i i
        done;
        Heap.clear h;
        checki "len" 0 (Heap.length h);
        checkb "empty pop" true (Heap.pop h = None);
        Heap.add h ~time:7 ~seq:0 42;
        checkb "reusable" true (Heap.pop h = Some (7, 0, 42)));
    Alcotest.test_case "clear releases payload references" `Quick (fun () ->
        (* A cleared heap must not pin its old payloads: the backing
           store is dropped, so a dead payload can be collected.  The
           weak pointer observes the payload disappearing. *)
        let h = Heap.create () in
        let w = Weak.create 1 in
        let () =
          let payload = ref 12345 in
          Weak.set w 0 (Some payload);
          Heap.add h ~time:1 ~seq:0 payload
        in
        Heap.clear h;
        Gc.full_major ();
        checkb "payload collected after clear" true (Weak.check w 0 = false))
  ]

(* Add+pop pairs on a queue that holds 100 entries throughout, so its
   backing array (128 slots) never grows: what one scheduled event
   costs the queue. *)
let words_per_pair ~add ~pop =
  for seq = 1 to 100 do
    add ~time:0 ~seq
  done;
  Budgets.words_per_iter (fun n ->
      for seq = 1 to n do
        add ~time:(seq * 7919 mod 1000) ~seq;
        ignore (Sys.opaque_identity (pop ()))
      done)

let queue_rung_tests =
  [
    Alcotest.test_case "words per heap add+pop" `Quick (fun () ->
        let h = Heap.create () in
        Budgets.exact "heap" ~budget:Budgets.heap_pair
          (words_per_pair
             ~add:(fun ~time ~seq -> Heap.add h ~time ~seq seq)
             ~pop:(fun () -> Heap.pop h)));
    Alcotest.test_case "words per task queue add+pop" `Quick (fun () ->
        let q = Taskq.create () in
        Budgets.exact "taskq" ~budget:Budgets.taskq_pair
          (words_per_pair
             ~add:(fun ~time ~seq ->
               Taskq.add q ~time ~seq ~clk:Vclock.empty ignore)
             ~pop:(fun () -> Taskq.pop q)));
  ]

(* ---- structured event log: array representation ----------------------- *)

let event_log_tests =
  [
    Alcotest.test_case "events snapshot is shared, not re-copied" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore (Engine.spawn e (fun () -> Engine.sleep e (Time.ms 1)));
        Engine.run e;
        checkb "physically shared" true (Engine.events e == Engine.events e));
    Alcotest.test_case "append after a snapshot leaves it intact" `Quick
      (fun () ->
        let e = Engine.create () in
        Engine.record e "one";
        let snap = Engine.events e in
        let n = Array.length snap in
        Engine.record e "two";
        checki "snapshot untouched" n (Array.length snap);
        checki "log advanced" (n + 1) (Array.length (Engine.events e)));
    Alcotest.test_case "iter_events walks the same stream" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 5 do
                 Engine.sleep e (Time.ms 1)
               done));
        Engine.run e;
        let seen = ref [] in
        Engine.iter_events e (fun ev -> seen := ev :: !seen);
        checkb "same events in order" true
          (List.rev !seen = Array.to_list (Engine.events e)));
    Alcotest.test_case "events_hash is order sensitive" `Quick (fun () ->
        let run first =
          let e = Engine.create () in
          if first then Engine.record e "x";
          ignore (Engine.spawn e ~name:"w" (fun () -> ()));
          if not first then Engine.record e "x";
          Engine.run e;
          Engine.events_hash e
        in
        checkb "differ" false (Int64.equal (run true) (run false)));
    Alcotest.test_case "events_hash covers evicted events" `Quick (fun () ->
        (* Two streams that differ only in their second event, long
           since rotated out of a 4-slot ring: the retained windows are
           equal, the fingerprints are not. *)
        let run first_note =
          let e = Engine.create ~log_capacity:4 () in
          ignore
            (Engine.spawn e ~name:"w" (fun () ->
                 for i = 1 to 10 do
                   Engine.record e (string_of_int i);
                   Engine.sleep e (Time.ms 1)
                 done));
          if first_note then Engine.record e "x"
          else ignore (Engine.spawn e ~name:"x" (fun () -> ()));
          Engine.run e;
          e
        in
        let a = run true and b = run false in
        let window e = Array.map Event.describe (Engine.events e) in
        checki "same total" (Engine.events_total a) (Engine.events_total b);
        checkb "prefix evicted" true (Engine.events_dropped a > 2);
        checkb "same retained window" true (window a = window b);
        checkb "differ" false
          (Int64.equal (Engine.events_hash a) (Engine.events_hash b)));
    Alcotest.test_case "event capacity drops with O(1) accounting" `Quick
      (fun () ->
        let e = Engine.create ~event_capacity:4 () in
        for i = 1 to 10 do
          Engine.record e (string_of_int i)
        done;
        checki "kept" 4 (Array.length (Engine.events e));
        checki "dropped" 6 (Engine.events_dropped e));
    Alcotest.test_case
      "ring capacities 0/1/k/length keep the last k, hash exact" `Quick
      (fun () ->
        (* The same program at every capacity: the retained window is
           the stream's tail, and the fingerprint, total and drop
           accounting never depend on how much was kept. *)
        let program ?log_capacity () =
          let e = Engine.create ?log_capacity () in
          ignore
            (Engine.spawn e ~name:"w" (fun () ->
                 for i = 1 to 10 do
                   Engine.record e (Printf.sprintf "n%d" i);
                   Engine.sleep e (Time.ms 1)
                 done));
          Engine.run e;
          e
        in
        let full = program () in
        let all = Array.to_list (Array.map Event.describe (Engine.events full)) in
        let total = Engine.events_total full in
        checki "no drops unbounded" 0 (Engine.events_dropped full);
        checkb "stream wraps the small rings" true (total > 8);
        List.iter
          (fun k ->
            let e = program ~log_capacity:k () in
            let kept =
              Array.to_list (Array.map Event.describe (Engine.events e))
            in
            let keep = min k total in
            let expect =
              List.filteri (fun i _ -> i >= total - keep) all
            in
            checkb
              (Printf.sprintf "capacity %d keeps the tail" k)
              true (kept = expect);
            checkb
              (Printf.sprintf "capacity %d same fingerprint" k)
              true
              (Int64.equal (Engine.events_hash full) (Engine.events_hash e));
            checki
              (Printf.sprintf "capacity %d total" k)
              total (Engine.events_total e);
            checki
              (Printf.sprintf "capacity %d dropped" k)
              (total - keep) (Engine.events_dropped e);
            let seen = ref [] in
            Engine.iter_events e (fun ev ->
                seen := Event.describe ev :: !seen);
            checkb
              (Printf.sprintf "capacity %d iter agrees" k)
              true
              (List.rev !seen = kept))
          [ 0; 1; 5; total; total + 7 ]);
    Alcotest.test_case "consumers see every event at any capacity" `Quick
      (fun () ->
        let e = Engine.create ~log_capacity:2 () in
        let fed = ref [] in
        Engine.add_consumer e (fun ev -> fed := Event.describe ev :: !fed);
        for i = 1 to 9 do
          Engine.record e (string_of_int i)
        done;
        checki "ring bounded" 2 (Array.length (Engine.events e));
        checki "consumer saw the full stream" 9 (List.length !fed);
        checki "total exact" 9 (Engine.events_total e));
    Alcotest.test_case "ring snapshots never alias the ring storage" `Quick
      (fun () ->
        let e = Engine.create ~log_capacity:4 () in
        for i = 1 to 6 do
          Engine.record e (string_of_int i)
        done;
        let a = Engine.events e and b = Engine.events e in
        checkb "fresh array per call" false (a == b);
        checkb "equal contents" true (a = b);
        (* Later emission must not reach into a returned snapshot. *)
        let before = Array.map Event.describe a in
        for i = 7 to 12 do
          Engine.record e (string_of_int i)
        done;
        checkb "snapshot untouched by wraparound" true
          (before = Array.map Event.describe a));
    Alcotest.test_case
      "append-mode snapshot after new events is a fresh array" `Quick
      (fun () ->
        let e = Engine.create () in
        Engine.record e "one";
        let s1 = Engine.events e in
        Engine.record e "two";
        let s2 = Engine.events e in
        checkb "second call returns a fresh array" false (s1 == s2);
        checki "old snapshot keeps its length" 1 (Array.length s1);
        checki "new snapshot sees both" 2 (Array.length s2);
        checkb "quiescent calls share again" true (s2 == Engine.events e));
    Alcotest.test_case "with_observer bounds and attaches ambiently" `Quick
      (fun () ->
        let attached = ref 0 in
        Engine.with_observer ~log_capacity:3
          ~attach:(fun _ -> incr attached)
          (fun () ->
            let e = Engine.create () in
            for i = 1 to 8 do
              Engine.record e (string_of_int i)
            done;
            checki "ambient capacity adopted" 3
              (Array.length (Engine.events e));
            (* An explicit capacity wins over the ambient one. *)
            let e' = Engine.create ~log_capacity:5 () in
            for i = 1 to 8 do
              Engine.record e' (string_of_int i)
            done;
            checki "explicit capacity wins" 5
              (Array.length (Engine.events e'));
            checki "both engines attached" 2 !attached);
        let e = Engine.create () in
        for i = 1 to 8 do
          Engine.record e (string_of_int i)
        done;
        checki "observer scope restored" 8 (Array.length (Engine.events e));
        checki "no further attach" 2 !attached);
  ]

let rng_property =
  QCheck.Test.make ~name:"Rng.int stays within any positive bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* ---- Rng ------------------------------------------------------------------ *)

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          checkb "same" true (Rng.next_int64 a = Rng.next_int64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        checkb "differ" false (Rng.next_int64 a = Rng.next_int64 b));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          checkb "in range" true (v >= 0 && v < 17)
        done);
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let r = Rng.create 4 in
        for _ = 1 to 1000 do
          let f = Rng.float r in
          checkb "in range" true (f >= 0. && f < 1.)
        done);
    Alcotest.test_case "split is independent" `Quick (fun () ->
        let a = Rng.create 5 in
        let child = Rng.split a in
        checkb "differ" false (Rng.next_int64 a = Rng.next_int64 child));
    Alcotest.test_case "bool probability roughly respected" `Quick (fun () ->
        let r = Rng.create 6 in
        let hits = ref 0 in
        for _ = 1 to 10_000 do
          if Rng.bool r 0.25 then incr hits
        done;
        checkb "rough" true (!hits > 2_000 && !hits < 3_000));
    Alcotest.test_case "int near max_int is unbiased (rejection sampling)"
      `Quick (fun () ->
        (* With bound = 3 * 2^60 and 62-bit draws, plain modulo reduction
           would hit the low quarter of the range with probability 1/2
           instead of 1/3 — the bias the rejection loop removes. *)
        let bound = (max_int / 4) * 3 in
        let low_cut = bound / 3 in
        let r = Rng.create 9 in
        let n = 50_000 in
        let low = ref 0 in
        for _ = 1 to n do
          let v = Rng.int r bound in
          checkb "in range" true (v >= 0 && v < bound);
          if v < low_cut then incr low
        done;
        let frac = float_of_int !low /. float_of_int n in
        checkb
          (Printf.sprintf "low-quarter fraction %.4f within [0.30,0.37]" frac)
          true
          (frac > 0.30 && frac < 0.37));
    Alcotest.test_case "int small-bound uniformity" `Quick (fun () ->
        let r = Rng.create 10 in
        let buckets = Array.make 8 0 in
        let n = 80_000 in
        for _ = 1 to n do
          let v = Rng.int r 8 in
          buckets.(v) <- buckets.(v) + 1
        done;
        Array.iteri
          (fun i c ->
            (* Expected 10_000 per bucket; allow 5%. *)
            checkb
              (Printf.sprintf "bucket %d count %d within 5%%" i c)
              true
              (c > 9_500 && c < 10_500))
          buckets);
    Alcotest.test_case "int rejects non-positive bounds" `Quick (fun () ->
        let r = Rng.create 11 in
        checkb "zero" true
          (match Rng.int r 0 with
          | _ -> false
          | exception Invalid_argument _ -> true);
        checkb "negative" true
          (match Rng.int r (-3) with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "split streams are independent and uniform" `Quick
      (fun () ->
        let parent = Rng.create 12 in
        let child = Rng.split parent in
        (* Determinism: splitting an identically seeded parent again
           yields the same child stream. *)
        let parent' = Rng.create 12 in
        let child' = Rng.split parent' in
        for _ = 1 to 100 do
          checkb "same child stream" true
            (Rng.next_int64 child = Rng.next_int64 child')
        done;
        (* Independence: parent and child streams disagree and stay
           individually uniform; their agreement rate on a coarse bucket
           is near chance. *)
        let n = 20_000 in
        let agree = ref 0 in
        let p_buckets = Array.make 4 0 and c_buckets = Array.make 4 0 in
        for _ = 1 to n do
          let pv = Rng.int parent 4 and cv = Rng.int child 4 in
          p_buckets.(pv) <- p_buckets.(pv) + 1;
          c_buckets.(cv) <- c_buckets.(cv) + 1;
          if pv = cv then incr agree
        done;
        let agree_frac = float_of_int !agree /. float_of_int n in
        checkb
          (Printf.sprintf "agreement %.4f near 0.25" agree_frac)
          true
          (agree_frac > 0.22 && agree_frac < 0.28);
        Array.iter
          (fun c -> checkb "parent uniform" true (c > 4_600 && c < 5_400))
          p_buckets;
        Array.iter
          (fun c -> checkb "child uniform" true (c > 4_600 && c < 5_400))
          c_buckets);
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let r = Rng.create 8 in
        let arr = Array.init 20 Fun.id in
        Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check Alcotest.(array int) "same elements" (Array.init 20 Fun.id) sorted);
  ]

(* ---- Engine ----------------------------------------------------------------- *)

let engine_tests =
  [
    Alcotest.test_case "sleep advances virtual time" `Quick (fun () ->
        let e = Engine.create () in
        let final = ref Time.zero in
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 5);
               Engine.sleep e (Time.ms 7);
               final := Engine.now e));
        Engine.run e ~expect_quiescent:true;
        checki "12ms" (Time.to_ns (Time.ms 12)) (Time.to_ns !final));
    Alcotest.test_case "same-time tasks run in schedule order" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        for i = 1 to 5 do
          Engine.schedule_at e Time.zero (fun () -> order := i :: !order)
        done;
        Engine.run e;
        check Alcotest.(list int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order));
    Alcotest.test_case "schedule in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               Alcotest.check_raises "past" (Invalid_argument
                 "Engine.schedule_at: time is in the past") (fun () ->
                   Engine.schedule_at e Time.zero ignore)));
        Engine.run e);
    Alcotest.test_case "spawned fibers interleave deterministically" `Quick
      (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        let worker name d =
          ignore
            (Engine.spawn e ~name (fun () ->
                 for i = 1 to 3 do
                   Engine.sleep e d;
                   log := (name, i) :: !log
                 done))
        in
        worker "a" (Time.ms 2);
        worker "b" (Time.ms 3);
        Engine.run e;
        check
          Alcotest.(list (pair string int))
          "interleave"
          [ ("a", 1); ("b", 1); ("a", 2); ("b", 2); ("a", 3); ("b", 3) ]
          (List.rev !log));
    Alcotest.test_case "run_until stops at limit" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 10 do
                 Engine.sleep e (Time.ms 10);
                 incr count
               done));
        Engine.run_until e (Time.ms 35);
        checki "3 iterations" 3 !count;
        checki "clock at limit" (Time.to_ns (Time.ms 35))
          (Time.to_ns (Engine.now e)));
    Alcotest.test_case "deadlock detected when quiescence expected" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"stuck" (fun () ->
               ignore (Engine.suspend e (fun _waker -> ()))));
        checkb "raises" true
          (match Engine.run e ~expect_quiescent:true with
          | () -> false
          | exception Engine.Deadlock _ -> true));
    Alcotest.test_case "daemon fibers excluded from quiescence" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~daemon:true (fun () ->
               ignore (Engine.suspend e (fun _ -> ()))));
        Engine.run e ~expect_quiescent:true);
    Alcotest.test_case "fiber crash raises by default" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.spawn e ~name:"boom" (fun () -> failwith "bang"));
        checkb "raises" true
          (match Engine.run e with
          | () -> false
          | exception Engine.Fiber_crash ("boom", Failure _) -> true
          | exception _ -> false));
    Alcotest.test_case "fiber crash recorded when requested" `Quick (fun () ->
        let e = Engine.create ~on_crash:`Record () in
        ignore (Engine.spawn e ~name:"boom" (fun () -> failwith "bang"));
        Engine.run e;
        match Engine.crashed e with
        | [ ("boom", Failure _) ] -> ()
        | _ -> Alcotest.fail "crash not recorded");
    Alcotest.test_case "waker is idempotent" `Quick (fun () ->
        let e = Engine.create () in
        let resumed = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               Engine.suspend e (fun waker ->
                   Engine.schedule_after e (Time.ms 1) (fun () ->
                       waker (Ok ());
                       waker (Ok ());
                       waker (Error Exit)));
               incr resumed));
        Engine.run e;
        checki "once" 1 !resumed);
    Alcotest.test_case "waker can deliver exception" `Quick (fun () ->
        let e = Engine.create () in
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               try
                 Engine.suspend e (fun waker ->
                     Engine.schedule_after e (Time.ms 1) (fun () ->
                         waker (Error Not_found)))
               with Not_found -> caught := true));
        Engine.run e;
        checkb "caught" true !caught);
    Alcotest.test_case "yield lets same-time work run" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore
          (Engine.spawn e (fun () ->
               log := "a1" :: !log;
               Engine.yield e;
               log := "a2" :: !log));
        ignore (Engine.spawn e (fun () -> log := "b" :: !log));
        Engine.run e;
        check Alcotest.(list string) "order" [ "a1"; "b"; "a2" ] (List.rev !log));
    Alcotest.test_case "stop halts the loop" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 100 do
                 Engine.sleep e (Time.ms 1);
                 incr count;
                 if !count = 5 then Engine.stop e
               done));
        Engine.run e;
        checki "stopped" 5 !count);
    Alcotest.test_case "identical runs have identical event hashes" `Quick
      (fun () ->
        let run_once () =
          let e = Engine.create ~seed:11 () in
          ignore
            (Engine.spawn e (fun () ->
                 for i = 1 to 20 do
                   Engine.sleep e (Time.us (Rng.int (Engine.rng e) 500 + 1));
                   Engine.record e (Printf.sprintf "step %d" i)
                 done));
          Engine.run e;
          Engine.events_hash e
        in
        checkb "equal" true (run_once () = run_once ()));
    Alcotest.test_case "different seeds give different event hashes" `Quick (fun () ->
        let run_once seed =
          let e = Engine.create ~seed () in
          ignore
            (Engine.spawn e (fun () ->
                 for i = 1 to 20 do
                   Engine.sleep e (Time.us (Rng.int (Engine.rng e) 500 + 1));
                   Engine.record e (Printf.sprintf "step %d" i)
                 done));
          Engine.run e;
          Engine.events_hash e
        in
        checkb "differ" false (run_once 1 = run_once 2));
    Alcotest.test_case "fiber ids are monotonic and exposed as spawn events"
      `Quick (fun () ->
        let e = Engine.create () in
        let child_id = ref (-1) in
        let a =
          Engine.spawn e ~name:"a" (fun () ->
              let c = Engine.spawn e ~name:"c" (fun () -> ()) in
              child_id := Engine.fiber_id c)
        in
        let b = Engine.spawn e ~name:"b" (fun () -> ()) in
        Engine.run e;
        checki "first" 0 (Engine.fiber_id a);
        checki "second" 1 (Engine.fiber_id b);
        checki "nested third" 2 !child_id;
        let spawns =
          List.filter_map
            (fun ev ->
              match ev.Event.ev_kind with
              | Event.Spawn _ as k -> Some (Event.kind_to_string k)
              | _ -> None)
            (Array.to_list (Engine.events e))
        in
        check
          Alcotest.(list string)
          "spawn events carry ids"
          [ "spawn #0 a"; "spawn #1 b"; "spawn #2 c" ]
          spawns);
    Alcotest.test_case "fiber ids are stable across same-seed runs" `Quick
      (fun () ->
        let run_once () =
          let e = Engine.create ~seed:13 () in
          let ids = ref [] in
          for i = 1 to 4 do
            let f =
              Engine.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
                  Engine.sleep e
                    (Time.us (Rng.int (Engine.rng e) 100 + 1)))
            in
            ids := (Engine.fiber_name f, Engine.fiber_id f) :: !ids
          done;
          Engine.run e;
          (List.rev !ids, Engine.events_hash e)
        in
        let a = run_once () and b = run_once () in
        checkb "identical id assignment" true (fst a = fst b);
        checkb "identical event hashes" true (snd a = snd b));
    Alcotest.test_case "random-order policy is deterministic per seed" `Quick
      (fun () ->
        let run_once policy =
          let e = Engine.create ~policy () in
          let order = ref [] in
          for i = 1 to 6 do
            Engine.schedule_at e Time.zero (fun () -> order := i :: !order)
          done;
          Engine.run e;
          List.rev !order
        in
        let r1 = run_once (Engine.Random_order 3) in
        let r2 = run_once (Engine.Random_order 3) in
        checkb "reproducible" true (r1 = r2);
        check
          Alcotest.(list int)
          "all tasks ran" [ 1; 2; 3; 4; 5; 6 ]
          (List.sort compare r1);
        checkb "some seed permutes the FIFO order" true
          (List.exists
             (fun s -> run_once (Engine.Random_order s) <> run_once Engine.Fifo)
             [ 1; 2; 3; 4; 5 ]));
    Alcotest.test_case "jitter policy delays by at most the bound" `Quick
      (fun () ->
        let bound = Time.us 50 in
        let e =
          Engine.create
            ~policy:(Engine.Delay_jitter { jitter_seed = 4; bound })
            ()
        in
        let ran_at = ref Time.zero in
        Engine.schedule_at e (Time.ms 1) (fun () -> ran_at := Engine.now e);
        Engine.run e;
        checkb "not early" true Time.(!ran_at >= Time.ms 1);
        checkb "within bound" true
          Time.(!ran_at <= Time.add (Time.ms 1) bound));
    Alcotest.test_case "policies leave the model RNG stream untouched" `Quick
      (fun () ->
        let stream policy =
          let e = Engine.create ~seed:21 ~policy () in
          List.init 20 (fun _ -> Rng.next_int64 (Engine.rng e))
        in
        checkb "same stream" true
          (stream Engine.Fifo = stream (Engine.Random_order 99)));
    Alcotest.test_case "view reports pending, blocked and fibers" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"stuck" (fun () ->
               ignore (Engine.suspend e ~reason:"forever" (fun _ -> ()))));
        ignore (Engine.spawn e ~name:"done" (fun () -> ()));
        Engine.run e;
        let v = Engine.view e in
        checki "no pending tasks" 0 v.Engine.v_pending;
        checki "one blocked" 1 (List.length v.Engine.v_blocked);
        checki "two fibers" 2 (List.length v.Engine.v_fibers);
        match v.Engine.v_fibers with
        | [ f0; f1 ] ->
          checki "ids in order" 0 f0.Engine.fi_id;
          checki "ids in order" 1 f1.Engine.fi_id;
          check Alcotest.string "state" "blocked:forever" f0.Engine.fi_state;
          check Alcotest.string "state" "finished" f1.Engine.fi_state
        | _ -> Alcotest.fail "expected two fiber infos");
    Alcotest.test_case "blocked_fibers reports reason" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"waiter" (fun () ->
               ignore (Engine.suspend e ~reason:"test-reason" (fun _ -> ()))));
        Engine.run e;
        match Engine.blocked_fibers e with
        | [ desc ] ->
          checkb "mentions reason" true
            (String.length desc > 0
            && String.length desc >= String.length "waiter");
        | _ -> Alcotest.fail "expected one blocked fiber");
  ]

(* ---- Sync ----------------------------------------------------------------- *)

let sync_tests =
  [
    Alcotest.test_case "ivar delivers to later reader" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        let got = ref 0 in
        Sync.Ivar.fill iv 42;
        ignore (Engine.spawn e (fun () -> got := Sync.Ivar.read iv));
        Engine.run e;
        checki "42" 42 !got);
    Alcotest.test_case "ivar wakes blocked readers" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        let got = ref [] in
        for i = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 let v = Sync.Ivar.read iv in
                 got := (i, v) :: !got))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               Sync.Ivar.fill iv 7));
        Engine.run e;
        checki "all three" 3 (List.length !got);
        checkb "all 7" true (List.for_all (fun (_, v) -> v = 7) !got));
    Alcotest.test_case "ivar double fill rejected" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        Sync.Ivar.fill iv 1;
        checkb "rejected" true
          (match Sync.Ivar.fill iv 2 with
          | () -> false
          | exception Invalid_argument _ -> true);
        checkb "try_fill false" false (Sync.Ivar.try_fill iv 3));
    Alcotest.test_case "ivar error propagates" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        Sync.Ivar.fill_error iv Not_found;
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               try ignore (Sync.Ivar.read iv) with Not_found -> caught := true));
        Engine.run e;
        checkb "caught" true !caught);
    Alcotest.test_case "mailbox is FIFO" `Quick (fun () ->
        let e = Engine.create () in
        let mb = Sync.Mailbox.create e in
        let got = ref [] in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 3 do
                 let v = Sync.Mailbox.take mb in
                 got := v :: !got
               done));
        ignore
          (Engine.spawn e (fun () ->
               List.iter (Sync.Mailbox.put mb) [ 1; 2; 3 ]));
        Engine.run e;
        check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !got));
    Alcotest.test_case "mailbox poison wakes takers" `Quick (fun () ->
        let e = Engine.create () in
        let mb : int Sync.Mailbox.t = Sync.Mailbox.create e in
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               try ignore (Sync.Mailbox.take mb) with Exit -> caught := true));
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               Sync.Mailbox.poison mb Exit));
        Engine.run e;
        checkb "caught" true !caught);
    Alcotest.test_case "mailbox delivers queued items before poison" `Quick
      (fun () ->
        let e = Engine.create () in
        let mb = Sync.Mailbox.create e in
        Sync.Mailbox.put mb 1;
        Sync.Mailbox.poison mb Exit;
        let got = ref 0 and caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               got := Sync.Mailbox.take mb;
               try ignore (Sync.Mailbox.take mb) with Exit -> caught := true));
        Engine.run e;
        checki "item" 1 !got;
        checkb "then poison" true !caught);
    Alcotest.test_case "semaphore serializes" `Quick (fun () ->
        let e = Engine.create () in
        let sem = Sync.Semaphore.create e 2 in
        let active = ref 0 and peak = ref 0 in
        for _ = 1 to 5 do
          ignore
            (Engine.spawn e (fun () ->
                 Sync.Semaphore.acquire sem;
                 incr active;
                 peak := max !peak !active;
                 Engine.sleep e (Time.ms 2);
                 decr active;
                 Sync.Semaphore.release sem))
        done;
        Engine.run e;
        checki "peak" 2 !peak);
    Alcotest.test_case "waitq signal order is FIFO" `Quick (fun () ->
        let e = Engine.create () in
        let q = Sync.Waitq.create e in
        let got = ref [] in
        for i = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 let v = Sync.Waitq.wait q in
                 got := (i, v) :: !got))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               ignore (Sync.Waitq.signal q "x");
               ignore (Sync.Waitq.signal q "y");
               ignore (Sync.Waitq.signal q "z")));
        Engine.run e;
        check
          Alcotest.(list (pair int string))
          "fifo" [ (1, "x"); (2, "y"); (3, "z") ]
          (List.rev !got));
    Alcotest.test_case "stats counters accumulate and diff" `Quick (fun () ->
        (* Registered out of name order: numbering never shows. *)
        let c = Stats.key "c" and b = Stats.key "b" and a = Stats.key "a" in
        checkb "re-registering returns the same key" true (Stats.key "a" == a);
        let s = Stats.create () in
        Stats.incr s a;
        Stats.incr s ~by:4 a;
        Stats.incr s b;
        checki "a" 5 (Stats.get s "a");
        checki "missing" 0 (Stats.get s "zzz");
        let before = Stats.snapshot s in
        Stats.incr s ~by:2 a;
        Stats.incr s c;
        let d = Stats.diff ~before ~after:(Stats.snapshot s) in
        let listing = Alcotest.(list (pair string int)) in
        check listing "diff" [ ("a", 2); ("c", 1) ] d;
        check listing "sorted by name" [ ("a", 7); ("b", 1); ("c", 1) ]
          (Stats.to_list s);
        (* A counter bumped by 0 is listed; blocks sum by key. *)
        let z = Stats.key "zero" and s' = Stats.create () in
        Stats.incr s' ~by:0 z;
        Stats.incr s' ~by:3 a;
        check listing "summed"
          [ ("a", 10); ("b", 1); ("c", 1); ("zero", 0) ]
          (Stats.to_list (Stats.sum [| s; s' |]));
        Stats.clear s';
        check listing "cleared" [] (Stats.to_list s'));
    Alcotest.test_case "series statistics" `Quick (fun () ->
        let s = Stats.Series.create () in
        List.iter (fun n -> Stats.Series.add s (Time.ms n)) [ 4; 2; 6 ];
        checki "count" 3 (Stats.Series.count s);
        checki "mean" (Time.to_ns (Time.ms 4)) (Time.to_ns (Stats.Series.mean s));
        checki "min" (Time.to_ns (Time.ms 2)) (Time.to_ns (Stats.Series.min s));
        checki "max" (Time.to_ns (Time.ms 6)) (Time.to_ns (Stats.Series.max s));
        checki "p50" (Time.to_ns (Time.ms 4))
          (Time.to_ns (Stats.Series.percentile s 0.5)));
  ]

let extra_tests =
  [
    Alcotest.test_case "waitq broadcast_error wakes everyone" `Quick (fun () ->
        let e = Engine.create () in
        let q : int Sync.Waitq.t = Sync.Waitq.create e in
        let woken = ref 0 in
        for _ = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 try ignore (Sync.Waitq.wait q)
                 with Not_found -> incr woken))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               checki "three waiters" 3 (Sync.Waitq.waiters q);
               checki "three woken" 3 (Sync.Waitq.broadcast_error q Not_found)));
        Engine.run e;
        checki "all woke with the error" 3 !woken);
    Alcotest.test_case "waitq signal_error targets one waiter" `Quick
      (fun () ->
        let e = Engine.create () in
        let q : unit Sync.Waitq.t = Sync.Waitq.create e in
        let errs = ref 0 and oks = ref 0 in
        for _ = 1 to 2 do
          ignore
            (Engine.spawn e (fun () ->
                 match Sync.Waitq.wait q with
                 | () -> incr oks
                 | exception Exit -> incr errs))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               ignore (Sync.Waitq.signal_error q Exit);
               ignore (Sync.Waitq.signal q ())));
        Engine.run e;
        checki "one error" 1 !errs;
        checki "one ok" 1 !oks);
    Alcotest.test_case "mailbox peek and length" `Quick (fun () ->
        let e = Engine.create () in
        let mb = Sync.Mailbox.create e in
        checkb "empty" true (Sync.Mailbox.is_empty mb);
        Sync.Mailbox.put mb 1;
        Sync.Mailbox.put mb 2;
        checki "length" 2 (Sync.Mailbox.length mb);
        checkb "peek head" true (Sync.Mailbox.peek_opt mb = Some 1);
        checkb "peek does not consume" true (Sync.Mailbox.length mb = 2);
        checkb "take_opt" true (Sync.Mailbox.take_opt mb = Some 1));
    Alcotest.test_case "semaphore reports availability" `Quick (fun () ->
        let e = Engine.create () in
        let sem = Sync.Semaphore.create e 3 in
        ignore
          (Engine.spawn e (fun () ->
               Sync.Semaphore.acquire sem;
               checki "two left" 2 (Sync.Semaphore.available sem);
               Sync.Semaphore.release sem;
               checki "back to three" 3 (Sync.Semaphore.available sem)));
        Engine.run e);
    Alcotest.test_case "run_until can be continued by run" `Quick (fun () ->
        let e = Engine.create () in
        let steps = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 10 do
                 Engine.sleep e (Time.ms 10);
                 incr steps
               done));
        Engine.run_until e (Time.ms 45);
        checki "four so far" 4 !steps;
        Engine.run e;
        checki "all ten" 10 !steps);
    Alcotest.test_case "record feeds the event log" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e (fun () ->
               Engine.record e "one";
               Engine.sleep e (Time.ms 1);
               Engine.record e "two"));
        Engine.run e;
        (* Four events: the spawn, the two notes and the sleep's block. *)
        checki "four events" 4 (Engine.events_total e);
        match Array.to_list (Engine.events e) with
        | [
         { Event.ev_kind = Event.Spawn { fid = 0; name = "fiber" }; _ };
         { Event.ev_kind = Event.Note "one"; _ };
         { Event.ev_kind = Event.Block { reason = "sleep" }; _ };
         { Event.ev_kind = Event.Note "two"; ev_time = t2; _ };
        ] ->
          checki "timestamped" (Time.to_ns (Time.ms 1)) (Time.to_ns t2)
        | _ -> Alcotest.fail "unexpected event log");
    Alcotest.test_case "fibers can spawn fibers" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        ignore
          (Engine.spawn e ~name:"parent" (fun () ->
               order := "parent" :: !order;
               ignore
                 (Engine.spawn e ~name:"child" (fun () ->
                      Engine.sleep e (Time.ms 1);
                      order := "child" :: !order));
               Engine.sleep e (Time.ms 2);
               order := "parent-end" :: !order));
        Engine.run e ~expect_quiescent:true;
        Alcotest.check
          Alcotest.(list string)
          "order"
          [ "parent"; "child"; "parent-end" ]
          (List.rev !order));
    Alcotest.test_case "current_fiber_name tracks context" `Quick (fun () ->
        let e = Engine.create () in
        let inside = ref "" in
        ignore
          (Engine.spawn e ~name:"worker" (fun () ->
               inside := Engine.current_fiber_name e));
        Alcotest.check Alcotest.string "outside" "<scheduler>"
          (Engine.current_fiber_name e);
        Engine.run e;
        Alcotest.check Alcotest.string "inside" "worker" !inside);
    Alcotest.test_case "time unit conversions agree" `Quick (fun () ->
        checkb "us float" true
          (Time.to_us (Time.of_us_float 12.5) = 12.5);
        checkb "sec" true (Time.to_sec (Time.sec 2) = 2.0);
        checkb "is_zero" true (Time.is_zero Time.zero);
        checkb "not zero" false (Time.is_zero (Time.ns 1)));
  ]

(* ---- Causality on demand ------------------------------------------------ *)

(* An engine with no consumer and [log_capacity = 0] keeps no clocks,
   event records or stamps; one with a consumer keeps them all.  Both
   must run the same program: same events, same fingerprint, same
   fiber behaviour. *)
let make_engine ~observed =
  let e = Engine.create ~log_capacity:0 () in
  if observed then Engine.add_consumer e ignore;
  e

type op = Sleep of int | Wait of int | Signal of int | Stamp of int | Adopt of int

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun d -> Sleep d) (int_bound 3);
        map (fun q -> Wait q) (int_bound 1);
        map (fun q -> Signal q) (int_bound 1);
        map (fun k -> Stamp k) (int_bound 3);
        map (fun k -> Adopt k) (int_bound 3);
      ])

let show_op = function
  | Sleep d -> Printf.sprintf "sleep %d" d
  | Wait q -> Printf.sprintf "wait %d" q
  | Signal q -> Printf.sprintf "signal %d" q
  | Stamp k -> Printf.sprintf "stamp %d" k
  | Adopt k -> Printf.sprintf "adopt %d" k

(* Runs one fiber per op list; returns everything a program can see. *)
let run_program ~observed fibers =
  let e = make_engine ~observed in
  let qs = Array.init 2 (fun _ -> Sync.Waitq.create e) in
  let seen = ref [] in
  List.iteri
    (fun i ops ->
      ignore
        (Engine.spawn e (fun () ->
             List.iteri
               (fun j op ->
                 (match op with
                 | Sleep d -> Engine.sleep e (Time.ms d)
                 | Wait q -> Sync.Waitq.wait qs.(q)
                 | Signal q -> ignore (Sync.Waitq.signal qs.(q) ())
                 | Stamp k -> Engine.stamp e (Engine.stamp_key ~layer:0 ~obj:k ~seq:0)
                 | Adopt k -> Engine.adopt e (Engine.stamp_key ~layer:0 ~obj:k ~seq:0));
                 Engine.record e "step";
                 seen := (i, j, Time.to_ns (Engine.now e)) :: !seen)
               ops)))
    fibers;
  Engine.run e;
  ( Engine.events_hash e,
    Engine.events_total e,
    Time.to_ns (Engine.now e),
    List.rev !seen,
    Engine.blocked_fibers e )

let observed_unobserved_property =
  QCheck.Test.make ~name:"observed and unobserved engines run the same program"
    ~count:300
    QCheck.(
      make
        ~print:(Print.list (Print.list show_op))
        Gen.(list_size (int_range 1 4) (list_size (int_bound 8) op_gen)))
    (fun fibers ->
      run_program ~observed:true fibers = run_program ~observed:false fibers)

let sleeps ~observed n =
  let e = make_engine ~observed in
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to n do
           Engine.sleep e (Time.us 1)
         done));
  Engine.run e

let waitq_cycles ~observed n =
  let e = make_engine ~observed in
  let q = Sync.Waitq.create e in
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to n do
           Sync.Waitq.wait q
         done));
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to n do
           Engine.sleep e (Time.us 1);
           ignore (Sync.Waitq.signal q ())
         done));
  Engine.run e

(* ---- Vclock -------------------------------------------------------------- *)

(* The reference clock: a sorted association list keyed by fiber id, the
   representation [Vclock] had before it went owner-first. *)
module Oracle = struct
  let rec get t i =
    match t with
    | [] -> 0
    | (j, n) :: rest -> if j = i then n else if j > i then 0 else get rest i

  let rec tick t i =
    match t with
    | [] -> [ (i, 1) ]
    | ((j, n) as hd) :: rest ->
      if j = i then (j, n + 1) :: rest
      else if j > i then (i, 1) :: t
      else hd :: tick rest i

  let rec merge a b =
    match (a, b) with
    | [], c | c, [] -> c
    | ((i, n) as ha) :: ra, ((j, m) as hb) :: rb ->
      if i = j then (i, max n m) :: merge ra rb
      else if i < j then ha :: merge ra b
      else hb :: merge a rb

  let rec leq a b =
    match (a, b) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (i, n) :: ra, (j, m) :: rb ->
      if i = j then n <= m && leq ra rb else if i > j then leq a rb else false

  let compare_causal a b =
    match (leq a b, leq b a) with
    | true, true -> `Equal
    | true, false -> `Before
    | false, true -> `After
    | false, false -> `Concurrent

  let to_string t =
    "{"
    ^ String.concat " " (List.map (fun (i, n) -> Printf.sprintf "%d:%d" i n) t)
    ^ "}"
end

(* A clock program grows a pool that starts as [empty]: [Tick (k, id)]
   appends pool.(k) ticked at [id], [Merge (k, l)] appends the merge of
   pool.(k) into pool.(l) (indices taken modulo the pool size).  Ids mix
   interned (< 256) and uninterned fiber ids. *)
type clock_op = Tick of int * int | Merge of int * int

let clock_ids = [| 0; 1; 2; 3; 5; 8; 13; 255; 256; 300; 1_000_000 |]

let clock_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun k i -> Tick (k, clock_ids.(i)))
            nat
            (int_bound (Array.length clock_ids - 1)) );
        (2, map2 (fun k l -> Merge (k, l)) nat nat);
      ])

let show_clock_op = function
  | Tick (k, i) -> Printf.sprintf "tick %d @%d" k i
  | Merge (k, l) -> Printf.sprintf "merge %d into %d" k l

let run_clock_program ops =
  let pool = ref [ (Vclock.empty, []) ] in
  List.iter
    (fun op ->
      let p = Array.of_list !pool in
      let nth k = p.(k mod Array.length p) in
      let next =
        match op with
        | Tick (k, i) ->
          let c, o = nth k in
          (Vclock.tick c i, Oracle.tick o i)
        | Merge (k, l) ->
          let (c, o), (c', o') = (nth l, nth k) in
          (Vclock.merge c c', Oracle.merge o o')
      in
      pool := !pool @ [ next ])
    ops;
  !pool

let vclock_property =
  QCheck.Test.make ~name:"Vclock agrees with the sorted-list clock" ~count:300
    QCheck.(
      make ~print:(Print.list show_clock_op)
        Gen.(list_size (int_range 1 40) clock_op_gen))
    (fun ops ->
      let pool = run_clock_program ops in
      List.for_all
        (fun (c, o) ->
          Vclock.to_string c = Oracle.to_string o
          && Array.for_all (fun i -> Vclock.get c i = Oracle.get o i) clock_ids
          && List.for_all
               (fun (c', o') ->
                 Vclock.leq c c' = Oracle.leq o o'
                 (* a merge that changes nothing returns its left side *)
                 && ((not (Vclock.leq c' c)) || Vclock.merge c c' == c)
                 && Vclock.compare_causal c c' = Oracle.compare_causal o o'
                 && Vclock.concurrent c c'
                    = (Oracle.compare_causal o o' = `Concurrent))
               pool)
        pool)

(* A clock of [width] entries: fibers [0 .. width - 2] and the owner,
   which ticked last and sorts after all of them, so a sorted-list tick
   would rebuild every entry. *)
let owner = 1000

let owned_clock width =
  let rec go acc i =
    if i >= width - 1 then acc
    else go (Vclock.merge acc (Vclock.tick Vclock.empty i)) (i + 1)
  in
  Vclock.tick (go Vclock.empty 0) owner

let owner_ticks c n =
  let c = ref c in
  for _ = 1 to n do
    c := Vclock.tick !c owner
  done;
  ignore (Sys.opaque_identity !c)

let merges a b n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Vclock.merge a b))
  done

let vclock_tests =
  [
    QCheck_alcotest.to_alcotest vclock_property;
    Alcotest.test_case "an owner tick costs one cell at any width" `Quick
      (fun () ->
        let w1 = Budgets.words_per_iter (owner_ticks (owned_clock 1)) in
        let w32 = Budgets.words_per_iter (owner_ticks (owned_clock 32)) in
        Budgets.exact "width 1" ~budget:Budgets.owner_tick w1;
        check (Alcotest.float 0.) "width 32 = width 1" w1 w32);
    Alcotest.test_case "merging a dominated clock allocates nothing" `Quick
      (fun () ->
        let a = owned_clock 32 in
        Budgets.exact "merge a a" ~budget:Budgets.dominated_merge
          (Budgets.words_per_iter (merges a a));
        (* [b] is an older snapshot of the owner; [c] is another fiber's
           clock that [a] has already absorbed. *)
        let b = a in
        let a = Vclock.tick (Vclock.tick a owner) owner in
        let c = Vclock.tick (owned_clock 8) 5 in
        let a = Vclock.tick (Vclock.merge a c) owner in
        checkb "a dominates b" true (Vclock.leq b a);
        checkb "a dominates c" true (Vclock.leq c a);
        Budgets.exact "merge a b (same owner)"
          ~budget:Budgets.dominated_merge
          (Budgets.words_per_iter (merges a b));
        Budgets.exact "merge a c (other owner)"
          ~budget:Budgets.dominated_merge
          (Budgets.words_per_iter (merges a c)));
  ]

(* ---- Counters ------------------------------------------------------------ *)

let early = Stats.key "rung.early"

let bumps s k n =
  for _ = 1 to n do
    Stats.incr s k
  done

let counter_tests =
  [
    Alcotest.test_case "Stats.incr allocates nothing" `Quick (fun () ->
        let s = Stats.create () in
        Budgets.exact "key registered before create"
          ~budget:Budgets.stats_incr
          (Budgets.words_per_iter (bumps s early));
        (* Registered after [s] was created: the first bump grows the
           block, later ones are array stores. *)
        let late = Stats.key "rung.late" in
        Stats.incr s late;
        Budgets.exact "key registered after create"
          ~budget:Budgets.stats_incr
          (Budgets.words_per_iter (bumps s late));
        checki "late key counted" 1201 (Stats.get s "rung.late"));
  ]

let causality_tests =
  [
    Alcotest.test_case "add_consumer after the first emit is refused" `Quick
      (fun () ->
        let e = Engine.create ~log_capacity:0 () in
        Engine.add_consumer e ignore;
        Engine.record e "first";
        Alcotest.check_raises "late consumer"
          (Invalid_argument
             "Engine.add_consumer: the engine has already emitted events")
          (fun () -> Engine.add_consumer e ignore));
    Alcotest.test_case "sleep outside a fiber names Engine.sleep" `Quick
      (fun () ->
        Alcotest.check_raises "outside a fiber"
          (Invalid_argument "Engine.sleep: not inside a fiber") (fun () ->
            Engine.sleep (Engine.create ()) (Time.ms 1)));
    Alcotest.test_case "unobserved engines keep no causality" `Quick (fun () ->
        let e = make_engine ~observed:false in
        let clk = ref Vclock.empty in
        ignore
          (Engine.spawn e (fun () ->
               Engine.record e "x";
               Engine.sleep e (Time.ms 1);
               clk := Engine.clock e));
        Engine.run e;
        checki "events counted" 3 (Engine.events_total e);
        check Alcotest.string "spawn clock" "{}" (Vclock.to_string !clk));
    QCheck_alcotest.to_alcotest observed_unobserved_property;
    Alcotest.test_case "words per sleep" `Quick (fun () ->
        Budgets.gate "observed" ~budget:Budgets.sleep_observed
          (Budgets.words_per_iter (sleeps ~observed:true));
        Budgets.gate "unobserved" ~budget:Budgets.sleep_unobserved
          (Budgets.words_per_iter (sleeps ~observed:false)));
    Alcotest.test_case "words per waitq wait, signal and sleep" `Quick
      (fun () ->
        Budgets.gate "observed" ~budget:Budgets.waitq_cycle_observed
          (Budgets.words_per_iter (waitq_cycles ~observed:true));
        Budgets.gate "unobserved" ~budget:Budgets.waitq_cycle_unobserved
          (Budgets.words_per_iter (waitq_cycles ~observed:false)));
    Alcotest.test_case "unobserved emit of a constant kind allocates nothing"
      `Quick (fun () ->
        let e = make_engine ~observed:false in
        let kind = Event.Block { reason = "sleep" } in
        let w =
          Budgets.words_per_iter (fun n ->
              for _ = 1 to n do
                Engine.emit e kind
              done)
        in
        Budgets.exact "words per emit" ~budget:Budgets.unobserved_emit w);
    Alcotest.test_case "unobserved stamp and adopt allocate nothing" `Quick
      (fun () ->
        let e = make_engine ~observed:false in
        let w =
          Budgets.words_per_iter (fun n ->
              for seq = 1 to n do
                let key = Engine.stamp_key ~layer:1 ~obj:7 ~seq in
                Engine.stamp e key;
                Engine.adopt e key
              done)
        in
        Budgets.exact "words per stamp and adopt"
          ~budget:Budgets.unobserved_stamp_adopt w);
  ]

let () =
  Alcotest.run "sim"
    [
      ("time", time_tests);
      ( "heap",
        heap_tests @ heap_clear_tests @ queue_rung_tests
        @ [
            QCheck_alcotest.to_alcotest heap_property;
            QCheck_alcotest.to_alcotest heap_model_property;
          ] );
      ("rng", rng_tests @ [ QCheck_alcotest.to_alcotest rng_property ]);
      ("engine", engine_tests);
      ("event-log", event_log_tests);
      ("sync", sync_tests);
      ("extra", extra_tests);
      ("causality", causality_tests);
      ("vclock", vclock_tests);
      ("counters", counter_tests);
    ]
