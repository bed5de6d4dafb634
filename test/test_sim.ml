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

(* ---- retention: what a run can no longer read is collectable -------- *)

(* [collected w] after a full major collection: whether the value the
   weak pointer watched is gone.  The values are made in separate
   non-inlined functions, so no stack slot of the test keeps them. *)
let collected w =
  Gc.full_major ();
  not (Weak.check w 0)

let watch v =
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  w

let[@inline never] finished_fiber ~stackless e =
  let captured = ref 0 in
  let body () = captured := !captured + 1 in
  let f =
    if stackless then
      Engine.spawn_stackless e ~name:"short" (fun () ->
          Engine.sleep_then e (Time.us 1) body)
    else
      Engine.spawn e ~name:"short" (fun () ->
          Engine.sleep e (Time.us 1);
          body ())
  in
  (watch f, watch captured)

let[@inline never] taken_task q =
  let captured = ref 0 in
  Taskq.add q ~time:1 ~seq:0 ~clk:Vclock.empty (fun () -> incr captured);
  (Taskq.take q).Taskq.fn ();
  watch captured

let[@inline never] popped_payload h =
  let payload = ref 0 in
  Heap.add h ~time:1 ~seq:0 payload;
  ignore (Sys.opaque_identity (Heap.pop h));
  watch payload

let retention_tests =
  List.map
    (fun stackless ->
      Alcotest.test_case
        (Printf.sprintf "a finished %s fiber is released"
           (if stackless then "stackless" else "effect"))
        `Quick (fun () ->
          let e = Engine.create () in
          let fiber, captured = finished_fiber ~stackless e in
          Engine.run e;
          checkb "fiber collected" true (collected fiber);
          checkb "captured value collected" true (collected captured);
          checki "counted" 1 (Engine.view e).Engine.v_finished))
    [ false; true ]
  @ [
      Alcotest.test_case "a taken task is released by the queue" `Quick
        (fun () ->
          let q = Taskq.create () in
          let captured = taken_task q in
          checkb "collected" true (collected captured);
          checki "empty" 0 (Taskq.length (Sys.opaque_identity q)));
      Alcotest.test_case "a popped payload is released by the heap" `Quick
        (fun () ->
          let h = Heap.create () in
          let payload = popped_payload h in
          checkb "collected" true (collected payload);
          checkb "empty" true (Heap.is_empty (Sys.opaque_identity h)));
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
        Budgets.check "heap.add-pop"
          (words_per_pair
             ~add:(fun ~time ~seq -> Heap.add h ~time ~seq seq)
             ~pop:(fun () -> Heap.pop h)));
    Alcotest.test_case "words per task queue add+pop" `Quick (fun () ->
        let q = Taskq.create () in
        Budgets.check "taskq.add-take"
          (words_per_pair
             ~add:(fun ~time ~seq ->
               Taskq.add q ~time ~seq ~clk:Vclock.empty ignore)
             ~pop:(fun () -> Taskq.take q)));
  ]

(* ---- structured event log: array representation ----------------------- *)

(* Random calls on a three-slot memo: each returns a kind structurally
   equal to a freshly built record, and the very record of the slot's
   previous call when that call had the same inputs.  Ops are rebuilt
   per call, so they match by value only; objects are shared names, so
   they match physically. *)
let kind_memo_property =
  let objs = [| "q0"; "q1"; "q2" |] and modes = [| Event.Ordered; Unordered; Final |] in
  QCheck.Test.make ~name:"Send/Receive kind memos" ~count:300
    QCheck.(list (quad (int_bound 2) (int_bound 2) (int_bound 2) (int_bound 3)))
    (fun calls ->
      let m = Event.memo 3 in
      let last = Array.make 3 None in
      List.for_all
        (fun (slot, o, op, how) ->
          let obj = objs.(o) and op = String.make 1 "abc".[op] in
          let fresh, k =
            if how < 3 then
              let mode = modes.(how) in
              (Event.Send { obj; op; mode }, Event.send_kind m slot ~obj ~op ~mode)
            else (Event.Receive { obj; op }, Event.receive_kind m slot ~obj ~op)
          in
          let reused =
            match last.(slot) with
            | Some (inputs, prev) when inputs = (o, op, how) -> k == prev
            | _ -> true
          in
          last.(slot) <- Some ((o, op, how), k);
          k = fresh && reused)
        calls)

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

(* Block events of reason "waitq" in a retained log. *)
let waitq_blocks e =
  Array.fold_left
    (fun n (ev : Event.t) ->
      match ev.Event.ev_kind with
      | Event.Block { reason = "waitq" } -> n + 1
      | _ -> n)
    0 (Engine.events e)

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
               ignore (Engine.await_prepared e ~reason:"wait" (Engine.prepare e))));
        checkb "raises" true
          (match Engine.run e ~expect_quiescent:true with
          | () -> false
          | exception Engine.Deadlock _ -> true));
    Alcotest.test_case "daemon fibers excluded from quiescence" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~daemon:true (fun () ->
               ignore (Engine.await_prepared e ~reason:"wait" (Engine.prepare e))));
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
    Alcotest.test_case "a second wake of an effect fiber raises" `Quick
      (fun () ->
        let e = Engine.create () in
        let resumed = ref 0 and stale = ref None in
        let not_parked =
          Invalid_argument "Engine.resume: the fiber is not parked"
        in
        ignore
          (Engine.spawn e (fun () ->
               let h = Engine.prepare e in
               stale := Some h;
               Engine.schedule_after e (Time.ms 1) (fun () ->
                   Engine.resume e h ();
                   Alcotest.check_raises "a second value" not_parked (fun () ->
                       Engine.resume e h ());
                   Alcotest.check_raises "then an error" not_parked (fun () ->
                       Engine.resume_error e h Exit));
               Engine.await_prepared e ~reason:"wait" h;
               incr resumed;
               (* Waiting again, on another handle: the old one stays
                  spent. *)
               let h' = Engine.prepare e in
               Alcotest.check_raises "the stale handle" not_parked (fun () ->
                   Engine.resume e h ());
               Engine.resume e h' ();
               Engine.await_prepared e ~reason:"again" h';
               incr resumed));
        Engine.run e ~expect_quiescent:true;
        checki "once per handle" 2 !resumed;
        Alcotest.check_raises "after the fiber finished" not_parked (fun () ->
            Engine.resume e (Option.get !stale) ()));
    Alcotest.test_case "resume_error raises in the fiber" `Quick (fun () ->
        let e = Engine.create () in
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               try
                 let h = Engine.prepare e in
                 Engine.schedule_after e (Time.ms 1) (fun () ->
                     Engine.resume_error e h Not_found);
                 Engine.await_prepared e ~reason:"wait" h
               with Not_found -> caught := true));
        Engine.run e;
        checkb "caught" true !caught);
    Alcotest.test_case "a prepared handle woken before its await blocks nothing"
      `Quick (fun () ->
        let e = Engine.create () in
        let got = ref 0 and queued = ref true in
        ignore
          (Engine.spawn e (fun () ->
               let h = Engine.prepare e in
               Engine.resume e h 5;
               queued := Engine.next_task_ns e <> max_int;
               got := Engine.await_prepared e ~reason:"waitq" h));
        Engine.run e ~expect_quiescent:true;
        checki "the value" 5 !got;
        checkb "no task queued" false !queued;
        checki "no Block" 0 (waitq_blocks e));
    Alcotest.test_case "a prepared handle woken during a sleep before its await"
      `Quick (fun () ->
        let e = Engine.create () in
        let got = ref 0 and at = ref 0. in
        ignore
          (Engine.spawn e (fun () ->
               let h = Engine.prepare e in
               Engine.schedule_after e (Time.ms 1) (fun () -> Engine.resume e h 7);
               Engine.sleep e (Time.ms 2);
               got := Engine.await_prepared e ~reason:"waitq" h;
               at := Time.to_ms (Engine.now e)));
        Engine.run e ~expect_quiescent:true;
        checki "the value" 7 !got;
        checkb "returned when the sleep ended" true (!at = 2.);
        checki "no Block" 0 (waitq_blocks e));
    Alcotest.test_case "a prepared handle awaited first blocks until its wake"
      `Quick (fun () ->
        let e = Engine.create () in
        let got = ref 0 and at = ref 0. in
        ignore
          (Engine.spawn e (fun () ->
               let h = Engine.prepare e in
               Engine.schedule_after e (Time.ms 1) (fun () -> Engine.resume e h 9);
               got := Engine.await_prepared e ~reason:"waitq" h;
               at := Time.to_ms (Engine.now e)));
        Engine.run e ~expect_quiescent:true;
        checki "the value" 9 !got;
        checkb "at the wake" true (!at = 1.);
        checki "one Block" 1 (waitq_blocks e));
    Alcotest.test_case "resume_error before the await raises at the await"
      `Quick (fun () ->
        let e = Engine.create () in
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               let h : int Engine.handle = Engine.prepare e in
               Engine.resume_error e h Not_found;
               checkb "woken" true (Engine.woken h);
               match Engine.await_prepared e ~reason:"waitq" h with
               | _ -> ()
               | exception Not_found -> caught := true));
        Engine.run e ~expect_quiescent:true;
        checkb "caught" true !caught;
        checki "no Block" 0 (waitq_blocks e));
    Alcotest.test_case "a prepared handle is woken once" `Quick (fun () ->
        let e = Engine.create () in
        let not_parked =
          Invalid_argument "Engine.resume: the fiber is not parked"
        in
        let got = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               let h = Engine.prepare e in
               checkb "not woken yet" false (Engine.woken h);
               Engine.resume e h 1;
               Alcotest.check_raises "a second value" not_parked (fun () ->
                   Engine.resume e h 2);
               Alcotest.check_raises "then an error" not_parked (fun () ->
                   Engine.resume_error e h Exit);
               got := Engine.await_prepared e ~reason:"waitq" h;
               Alcotest.check_raises "after the await" not_parked (fun () ->
                   Engine.resume e h 3)));
        Engine.run e ~expect_quiescent:true;
        checki "the first value" 1 !got);
    Alcotest.test_case "only the preparing fiber may await its handle" `Quick
      (fun () ->
        let e = Engine.create () in
        let h = ref None and refused = ref false in
        ignore (Engine.spawn e (fun () -> h := Some (Engine.prepare e)));
        ignore
          (Engine.spawn e (fun () ->
               match Engine.await_prepared e ~reason:"waitq" (Option.get !h) with
               | () -> ()
               | exception Invalid_argument _ -> refused := true));
        Engine.run e ~expect_quiescent:true;
        checkb "refused" true !refused;
        Alcotest.check_raises "outside a fiber"
          (Invalid_argument "Engine.prepare: not inside a fiber") (fun () ->
            ignore (Engine.prepare e)));
    Alcotest.test_case "wake-with-error discontinues into the fiber" `Quick
      (fun () ->
        (* How a destroyed link reaches a LYNX thread waiting for its
           reply: the waiter's ivar is failed, and the thread goes on
           from its handler. *)
        let e = Engine.create () in
        let reply : int Sync.Ivar.t = Sync.Ivar.create e in
        let outcome = ref "" in
        let waiter =
          Engine.spawn e ~name:"caller" (fun () ->
              (outcome :=
                 match Sync.Ivar.read reply with
                 | v -> string_of_int v
                 | exception Lynx.Excn.Link_destroyed -> "destroyed");
              Engine.sleep e (Time.ms 1);
              Engine.record e "after")
        in
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 2);
               Sync.Ivar.fill_error reply Lynx.Excn.Link_destroyed));
        Engine.run e ~expect_quiescent:true;
        check Alcotest.string "raised at the read" "destroyed" !outcome;
        checkb "the fiber ran on and finished" false (Engine.fiber_alive waiter);
        checki "and slept after it" 3 (int_of_float (Time.to_ms (Engine.now e)));
        check Alcotest.(list (pair string string)) "no crash" []
          (Engine.view e).Engine.v_crashes);
    Alcotest.test_case "a parked effect fiber that crashed is never resumed"
      `Quick (fun () ->
        let e = Engine.create ~on_crash:`Record () in
        let raised = ref None and failed = ref None and resumed = ref 0 in
        (* One crashes after preparing, before its await; the other is
           woken with an error it does not catch. *)
        ignore
          (Engine.spawn e ~name:"early" (fun () ->
               raised := Some (Engine.prepare e);
               failwith "boom"));
        ignore
          (Engine.spawn e ~name:"late" (fun () ->
               let h = Engine.prepare e in
               failed := Some h;
               Engine.await_prepared e ~reason:"r" h;
               incr resumed));
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.us 2);
               Engine.resume e (Option.get !raised) ();
               Engine.resume_error e (Option.get !failed) Exit;
               Engine.sleep e (Time.us 2);
               Engine.resume e (Option.get !failed) ();
               Engine.resume_error e (Option.get !failed) Exit));
        Engine.run e;
        checki "never resumed" 0 !resumed;
        check Alcotest.(list (pair string string)) "both crashed"
          [ ("early", "Failure(\"boom\")"); ("late", "Stdlib.Exit") ]
          (Engine.view e).Engine.v_crashes;
        check Alcotest.(list string) "states" [ "crashed"; "crashed" ]
          (List.map (fun f -> f.Engine.fi_state) (Engine.view e).Engine.v_fibers);
        checki "nothing left queued" 0 (Engine.view e).Engine.v_pending);
    Alcotest.test_case "Sync waiters are listed as blocked" `Quick (fun () ->
        let e = Engine.create () in
        let q : unit Sync.Waitq.t = Sync.Waitq.create e in
        let iv : unit Sync.Ivar.t = Sync.Ivar.create e in
        let mb : unit Sync.Mailbox.t = Sync.Mailbox.create e in
        ignore (Engine.spawn e ~name:"q" (fun () -> Sync.Waitq.wait q));
        ignore (Engine.spawn e ~name:"iv" (fun () -> Sync.Ivar.read iv));
        ignore (Engine.spawn e ~name:"mb" (fun () -> Sync.Mailbox.take mb));
        Engine.run e;
        check Alcotest.(list string) "blocked, newest first"
          [ "mb (waitq)"; "iv (waitq)"; "q (waitq)" ]
          (Engine.blocked_fibers e);
        check Alcotest.(list string) "states"
          [ "blocked:waitq"; "blocked:waitq"; "blocked:waitq" ]
          (List.map (fun f -> f.Engine.fi_state) (Engine.view e).Engine.v_fibers));
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
    Alcotest.test_case "yield resumes where a woken wait would" `Quick (fun () ->
        (* Same-time tasks queued before the yield ("t1", "b") and after
           its first task ("t2", "t3") run before the fiber resumes; "t4",
           queued once the wake has queued the resumption, runs after. *)
        let e = Engine.create () in
        let note msg = Engine.record e msg in
        let later msg k = Engine.schedule_after e Time.zero (fun () -> note msg; k ()) in
        ignore
          (Engine.spawn e ~name:"a" (fun () ->
               note "a1";
               later "t1" (fun () -> later "t3" (fun () -> later "t4" ignore));
               Engine.yield e;
               note "a2"));
        ignore (Engine.spawn e ~name:"b" (fun () -> note "b"; later "t2" ignore));
        Engine.run e;
        let notes =
          Array.to_list (Engine.events e)
          |> List.filter_map (fun ev ->
                 match ev.Event.ev_kind with Event.Note m -> Some m | _ -> None)
        in
        check Alcotest.(list string) "resumption point"
          [ "a1"; "b"; "t1"; "t2"; "t3"; "a2"; "t4" ] notes;
        check Alcotest.(list string) "the one block"
          [ "yield" ]
          (Array.to_list (Engine.events e)
          |> List.filter_map (fun ev ->
                 match ev.Event.ev_kind with
                 | Event.Block { reason } -> Some reason
                 | _ -> None));
        (* The handle-based yield's run, pinned. *)
        check Alcotest.int64 "events hash" 3302770132059845893L (Engine.events_hash e));
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
               ignore (Engine.await_prepared e ~reason:"forever" (Engine.prepare e))));
        ignore (Engine.spawn e ~name:"done" (fun () -> ()));
        Engine.run e;
        let v = Engine.view e in
        checki "no pending tasks" 0 v.Engine.v_pending;
        checki "one blocked" 1 (List.length v.Engine.v_blocked);
        checki "one unfinished fiber" 1 (List.length v.Engine.v_fibers);
        checki "one finished fiber" 1 v.Engine.v_finished;
        match v.Engine.v_fibers with
        | [ f0 ] ->
          checki "id" 0 f0.Engine.fi_id;
          check Alcotest.string "state" "blocked:forever" f0.Engine.fi_state
        | _ -> Alcotest.fail "expected one fiber info");
    Alcotest.test_case "a pinned fid is used once" `Quick (fun () ->
        let e = Engine.create () in
        let spawn fid = ignore (Engine.spawn e ~fid (fun () -> ())) in
        let auto = Engine.fiber_id (Engine.spawn e (fun () -> ())) in
        spawn 5_000;
        spawn 7;
        List.iter
          (fun fid ->
            Alcotest.check_raises (Printf.sprintf "fid %d again" fid)
              (Invalid_argument
                 (Printf.sprintf "Engine.spawn: fid %d already used" fid))
              (fun () -> spawn fid))
          [ auto; 7; 5_000 ];
        Alcotest.check_raises "negative"
          (Invalid_argument "Engine.spawn: negative fid") (fun () ->
            spawn (-1));
        checki "the counter moved past the largest" 5_001
          (Engine.fiber_id (Engine.spawn e (fun () -> ()))));
    Alcotest.test_case "blocked_fibers reports reason" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"waiter" (fun () ->
               ignore (Engine.await_prepared e ~reason:"test-reason" (Engine.prepare e))));
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
          (Stats.to_list (Stats.sum [| s; s' |])));
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

let stackless_sleeps ~observed n =
  let e = make_engine ~observed in
  let rec loop i () = if i <= n then Engine.sleep_then e (Time.us 1) (loop (i + 1)) in
  ignore (Engine.spawn_stackless e (loop 1));
  Engine.run e

(* ---- Stackless fibers ---------------------------------------------------- *)

(* Every retained event with its clock, one line each. *)
let describe_log e =
  Array.to_list (Engine.events e) |> List.map Event.describe

(* One program, written once in direct style and once as steps: two
   workers that sleep, a waiter blocked on a handle (parked, as
   steps) that the second worker wakes, and a note after each
   step.  Both spellings must emit the same events with the same
   clocks. *)
let two_ways ~stackless =
  let e = Engine.create () in
  let got v = Engine.record e (Printf.sprintf "got %d" v) in
  let fire =
    if stackless then begin
      let parked = ref None in
      ignore
        (Engine.spawn_stackless e ~name:"waiter" (fun () ->
             parked := Some (Engine.park e ~reason:"parked")));
      fun () ->
        match !parked with
        | Some f ->
          parked := None;
          Engine.wake e f got 7
        | None -> ()
    end
    else begin
      let pending = ref None in
      ignore
        (Engine.spawn e ~name:"waiter" (fun () ->
             let h = Engine.prepare e in
             pending := Some h;
             got (Engine.await_prepared e ~reason:"parked" h)));
      fun () ->
        match !pending with
        | Some h ->
          pending := None;
          Engine.resume e h 7
        | None -> ()
    end
  in
  if stackless then
    ignore
      (Engine.spawn_stackless e ~name:"worker" (fun () ->
           Engine.sleep_then e (Time.us 3) (fun () ->
               Engine.record e "woke";
               fire ();
               Engine.sleep_then e (Time.us 2) (fun () ->
                   Engine.record e "done"))))
  else
    ignore
      (Engine.spawn e ~name:"worker" (fun () ->
           Engine.sleep e (Time.us 3);
           Engine.record e "woke";
           fire ();
           Engine.sleep e (Time.us 2);
           Engine.record e "done"));
  Engine.run e ~expect_quiescent:true;
  e

(* A fiber that parks [n] times, each time waking itself from its own
   step: a park/wake cycle with nothing else in it. *)
let park_wakes ~observed n =
  let e = make_engine ~observed in
  let left = ref n in
  let rec step () =
    if !left > 0 then begin
      decr left;
      Engine.wake e (Engine.park e ~reason:"p") step ()
    end
  in
  ignore (Engine.spawn_stackless e step);
  Engine.run e

(* An effect fiber that yields [n] times: each a prepared wait, woken
   by a task of its own. *)
let yields ~observed n =
  let e = make_engine ~observed in
  ignore (Engine.spawn e (fun () -> for _ = 1 to n do Engine.yield e done));
  Engine.run e

let stackless_tests =
  [
    Alcotest.test_case "steps emit what the direct-style program emits"
      `Quick (fun () ->
        let direct = two_ways ~stackless:false
        and steps = two_ways ~stackless:true in
        check Alcotest.(list string) "events with clocks"
          (describe_log direct) (describe_log steps);
        check Alcotest.int64 "events hash" (Engine.events_hash direct)
          (Engine.events_hash steps);
        check Alcotest.(list string) "fiber states"
          (List.map (fun f -> f.Engine.fi_state) (Engine.view direct).Engine.v_fibers)
          (List.map (fun f -> f.Engine.fi_state) (Engine.view steps).Engine.v_fibers);
        checki "finished fibers" (Engine.view direct).Engine.v_finished
          (Engine.view steps).Engine.v_finished);
    Alcotest.test_case "a step that blocks twice raises Invalid_argument"
      `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn_stackless e ~name:"greedy" (fun () ->
               Engine.sleep_then e (Time.us 1) ignore;
               Engine.sleep_then e (Time.us 2) ignore));
        Alcotest.check_raises "second block"
          (Engine.Fiber_crash
             ( "greedy",
               Invalid_argument "Engine: a stackless step may block only once" ))
          (fun () -> Engine.run e));
    Alcotest.test_case "a raising step is the crash; its wakeup never runs"
      `Quick (fun () ->
        let e = Engine.create ~on_crash:`Record () in
        let resumed = ref false in
        let f =
          Engine.spawn_stackless e ~name:"faulty" (fun () ->
              Engine.sleep_then e (Time.us 5) (fun () -> resumed := true);
              failwith "boom")
        in
        Engine.run e;
        checkb "never resumed" false !resumed;
        checkb "dead" false (Engine.fiber_alive f);
        check Alcotest.(list string) "crash recorded" [ "faulty" ]
          (List.map fst (Engine.crashed e));
        check Alcotest.(list (pair string string)) "view"
          [ ("faulty", "Failure(\"boom\")") ]
          (Engine.view e).Engine.v_crashes;
        checki "the clock stops at the crash" 0 (Time.to_ns (Engine.now e) - Time.to_ns (Time.us 5)));
    Alcotest.test_case "a step that returns ends the fiber" `Quick (fun () ->
        let e = Engine.create () in
        let f =
          Engine.spawn_stackless e (fun () ->
              Engine.sleep_then e (Time.us 1) (fun () -> Engine.record e "last"))
        in
        Engine.run e ~expect_quiescent:true;
        checkb "finished" false (Engine.fiber_alive f);
        check Alcotest.(list string) "states" []
          (List.map (fun f -> f.Engine.fi_state) (Engine.view e).Engine.v_fibers);
        checki "counted as finished" 1 (Engine.view e).Engine.v_finished);
    Alcotest.test_case "each kind of op refuses the other kind of fiber" `Quick
      (fun () ->
        let e = Engine.create ~on_crash:`Record () in
        ignore
          (Engine.spawn_stackless e ~name:"steps" (fun () ->
               Engine.sleep e (Time.us 1)));
        ignore
          (Engine.spawn e ~name:"direct" (fun () ->
               Engine.sleep_then e (Time.us 1) ignore));
        Engine.run e;
        check Alcotest.(list (pair string string)) "crashes"
          [
            ("steps", "Invalid_argument(\"Engine.sleep: inside a stackless fiber\")");
            ( "direct",
              "Invalid_argument(\"Engine.sleep_then: not inside a stackless fiber\")" );
          ]
          (Engine.view e).Engine.v_crashes);
    Alcotest.test_case "wake raises on a fiber that is not parked" `Quick
      (fun () ->
        let e = Engine.create () in
        let sleeper =
          Engine.spawn_stackless e ~name:"sleeper" (fun () ->
              Engine.sleep_then e (Time.us 5) ignore)
        in
        let parked = ref None in
        ignore
          (Engine.spawn_stackless e ~name:"parked" (fun () ->
               parked := Some (Engine.park e ~reason:"p")));
        let not_parked = Invalid_argument "Engine.wake: the fiber is not parked" in
        Alcotest.check_raises "runnable, not yet started" not_parked (fun () ->
            Engine.wake e sleeper ignore ());
        Engine.run_until e (Time.us 1);
        Alcotest.check_raises "asleep" not_parked (fun () ->
            Engine.wake e sleeper ignore ());
        let f = Option.get !parked in
        Engine.wake e f ignore ();
        Alcotest.check_raises "already woken" not_parked (fun () ->
            Engine.wake e f ignore ());
        Engine.run e ~expect_quiescent:true;
        checkb "the woken fiber finished" false (Engine.fiber_alive f);
        Alcotest.check_raises "finished" not_parked (fun () ->
            Engine.wake e f ignore ()));
    Alcotest.test_case "a parked fiber that crashed is never resumed" `Quick
      (fun () ->
        let e = Engine.create ~on_crash:`Record () in
        let parked = ref None and resumed = ref false in
        ignore
          (Engine.spawn_stackless e ~name:"faulty" (fun () ->
               parked := Some (Engine.park e ~reason:"p");
               failwith "boom"));
        ignore
          (Engine.spawn_stackless e ~name:"waker" (fun () ->
               Engine.sleep_then e (Time.us 2) (fun () ->
                   Engine.wake e (Option.get !parked)
                     (fun () -> resumed := true)
                     ())));
        Engine.run e;
        checkb "never resumed" false !resumed;
        check Alcotest.(list (pair string string)) "crash recorded"
          [ ("faulty", "Failure(\"boom\")") ]
          (Engine.view e).Engine.v_crashes;
        checki "nothing left queued" 0 (Engine.view e).Engine.v_pending);
    Alcotest.test_case "a parked fiber is listed as blocked" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn_stackless e ~name:"idle" (fun () ->
               ignore (Engine.park e ~reason:"recv")));
        Alcotest.check_raises "deadlock names it"
          (Engine.Deadlock "idle (recv)")
          (fun () -> Engine.run e ~expect_quiescent:true);
        check Alcotest.(list string) "state" [ "blocked:recv" ]
          (List.map (fun f -> f.Engine.fi_state) (Engine.view e).Engine.v_fibers));
    Alcotest.test_case "words per park/wake" `Quick (fun () ->
        Budgets.check "engine.park-wake" (Budgets.words_per_iter (park_wakes ~observed:false)));
    Alcotest.test_case "words per yield" `Quick (fun () ->
        Budgets.check "engine.yield" (Budgets.words_per_iter (yields ~observed:false)));
    Alcotest.test_case "words per stackless sleep" `Quick (fun () ->
        Budgets.check "engine.stackless-sleep.observed"
          (Budgets.words_per_iter (stackless_sleeps ~observed:true));
        Budgets.check "engine.stackless-sleep.unobserved"
          (Budgets.words_per_iter (stackless_sleeps ~observed:false)));
  ]

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
   appends pool.(k) ticked at [id]; [Merge (k, l)] appends the merge of
   pool.(k) into pool.(l); [Fork (k, i, j)] appends pool.(k) ticked at
   [i], that clock ticked at [i] again (an older and a newer snapshot of
   one owner, sharing their tail) and pool.(k) ticked at [j] (a sibling:
   the same tail entries under another owner); [Load (k, id)] appends
   the merge of pool.(k) with a clock holding [id] at one below the
   counter limit, so later ticks at [id] reach it.  Indices are taken
   modulo the pool size.  A tick that would pass {!Vclock.max_count}
   must raise [Invalid_argument] and appends nothing. *)
type clock_op =
  | Tick of int * int
  | Merge of int * int
  | Fork of int * int * int
  | Load of int * int

(* Ids mix interned (< 256) and uninterned fiber ids, up to the packing
   limit.  A full workload cell holds 8 clients and at most 5 servers,
   and the largest population fills its cells, so every node id it
   assigns is below twice the population. *)
let top_workload_id = 2 * Harness.Workload.max_population

let clock_ids =
  [| 0; 1; 2; 3; 5; 8; 13; 255; 256; 300; 1_000_000; top_workload_id;
     Vclock.max_id - 1; Vclock.max_id |]

let clock_op_gen ids =
  QCheck.Gen.(
    let id = map (fun i -> ids.(i)) (int_bound (Array.length ids - 1)) in
    frequency
      [
        (3, map2 (fun k i -> Tick (k, i)) nat id);
        (2, map2 (fun k l -> Merge (k, l)) nat nat);
        (1, map3 (fun k i j -> Fork (k, i, j)) nat id id);
        (1, map2 (fun k i -> Load (k, i)) nat id);
      ])

let show_clock_op = function
  | Tick (k, i) -> Printf.sprintf "tick %d @%d" k i
  | Merge (k, l) -> Printf.sprintf "merge %d into %d" k l
  | Fork (k, i, j) -> Printf.sprintf "fork %d @%d @%d" k i j
  | Load (k, i) -> Printf.sprintf "load %d @%d" k i

let tick_both (c, o) i =
  if Oracle.get o i < Vclock.max_count then
    [ (Vclock.tick c i, Oracle.tick o i) ]
  else
    match Vclock.tick c i with
    | _ -> Alcotest.failf "tick @%d past the counter limit did not raise" i
    | exception Invalid_argument _ -> []

let run_clock_program ?(base = []) ops =
  let pool = ref ((Vclock.empty, []) :: base) in
  List.iter
    (fun op ->
      let p = Array.of_list !pool in
      let nth k = p.(k mod Array.length p) in
      let next =
        match op with
        | Tick (k, i) -> tick_both (nth k) i
        | Merge (k, l) ->
          let (c, o), (c', o') = (nth l, nth k) in
          [ (Vclock.merge c c', Oracle.merge o o') ]
        | Fork (k, i, j) ->
          let older = tick_both (nth k) i in
          older
          @ List.concat_map (fun c -> tick_both c i) older
          @ tick_both (nth k) j
        | Load (k, i) ->
          let n = Vclock.max_count - 1 in
          let c, o = nth k in
          [
            ( Vclock.merge c (Vclock.of_list [ (i, n) ]),
              Oracle.merge o [ (i, n) ] );
          ]
      in
      pool := !pool @ next)
    ops;
  !pool

let agrees ids pool =
  List.for_all
    (fun (c, o) ->
      Vclock.to_string c = Oracle.to_string o
      && Array.for_all (fun i -> Vclock.get c i = Oracle.get o i) ids
      && List.for_all
           (fun (c', o') ->
             Vclock.leq c c' = Oracle.leq o o'
             (* a merge that changes nothing returns its left side *)
             && ((not (Vclock.leq c' c)) || Vclock.merge c c' == c)
             && Vclock.to_string (Vclock.merge c c')
                = Oracle.to_string (Oracle.merge o o')
             && Vclock.compare_causal c c' = Oracle.compare_causal o o'
             && Vclock.concurrent c c'
                = (Oracle.compare_causal o o' = `Concurrent))
           pool)
    pool

let vclock_property =
  QCheck.Test.make ~name:"Vclock agrees with the sorted-list clock" ~count:300
    QCheck.(
      make ~print:(Print.list show_clock_op)
        Gen.(list_size (int_range 1 40) (clock_op_gen clock_ids)))
    (fun ops -> agrees clock_ids (run_clock_program ops))

(* Clocks wider than 256 entries, whose merged tails are allocated in
   the major heap: a few bases of 257..400 distinct ids out of 0..999
   (389 is prime to 1000), then a short program over them. *)
let wide_ids = Array.init 1000 Fun.id

let wide_base_gen =
  QCheck.Gen.(
    int_range 257 400 >>= fun width ->
    map
      (List.mapi (fun k n -> ((k * 389) mod 1000, n)))
      (list_repeat width (int_range 1 4)))

let wide_property =
  QCheck.Test.make
    ~name:"Vclock agrees with the sorted-list clock above 256 entries"
    ~count:20
    QCheck.(
      make
        ~print:(fun (bases, ops) ->
          Printf.sprintf "%d bases; %s" (List.length bases)
            (Print.list show_clock_op ops))
        Gen.(
          pair
            (list_size (int_range 2 3) wide_base_gen)
            (list_size (int_range 1 12) (clock_op_gen wide_ids))))
    (fun (bases, ops) ->
      let base =
        List.map
          (fun entries ->
            (Vclock.of_list entries, List.sort compare entries))
          bases
      in
      agrees [| 0; 1; 389; 500; 999 |] (run_clock_program ~base ops))

(* Out-of-range ids and counters raise a one-line [Invalid_argument]
   and never wrap into another entry. *)
let one_line_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" name
  | exception Invalid_argument msg ->
    checkb (name ^ ": one line") false (String.contains msg '\n')

let limit_tests () =
  let top = Vclock.of_list [ (Vclock.max_id, Vclock.max_count) ] in
  check Alcotest.string "entry at the limits"
    (Printf.sprintf "{%d:%d}" Vclock.max_id Vclock.max_count)
    (Vclock.to_string top);
  checki "get at the limits" Vclock.max_count (Vclock.get top Vclock.max_id);
  checkb "top entry dominates a lower one" true
    (Vclock.leq (Vclock.tick Vclock.empty Vclock.max_id) top);
  one_line_invalid "tick past the counter limit" (fun () ->
      Vclock.tick top Vclock.max_id);
  one_line_invalid "spawn past the counter limit" (fun () ->
      let spawned = Vclock.merge (Vclock.tick Vclock.empty 0) top in
      Vclock.tick spawned Vclock.max_id);
  one_line_invalid "id past the limit" (fun () ->
      Vclock.tick Vclock.empty (Vclock.max_id + 1));
  one_line_invalid "negative id" (fun () -> Vclock.tick Vclock.empty (-1));
  one_line_invalid "id max_int" (fun () -> Vclock.tick top max_int);
  one_line_invalid "of_list counter past the limit" (fun () ->
      Vclock.of_list [ (0, Vclock.max_count + 1) ]);
  one_line_invalid "of_list zero counter" (fun () -> Vclock.of_list [ (0, 0) ]);
  one_line_invalid "of_list id past the limit" (fun () ->
      Vclock.of_list [ (Vclock.max_id + 1, 1) ]);
  one_line_invalid "of_list repeated id" (fun () ->
      Vclock.of_list [ (3, 1); (3, 2) ]);
  checkb "the largest workload's ids fit" true
    (top_workload_id <= Vclock.max_id)

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
    QCheck_alcotest.to_alcotest wide_property;
    Alcotest.test_case "ids and counters past the packing limits raise" `Quick
      limit_tests;
    Alcotest.test_case "an owner tick costs one record at any width" `Quick
      (fun () ->
        let w1 = Budgets.words_per_iter (owner_ticks (owned_clock 1)) in
        let w32 = Budgets.words_per_iter (owner_ticks (owned_clock 32)) in
        Budgets.check "vclock.owner-tick" w1;
        check (Alcotest.float 0.) "width 32 = width 1" w1 w32);
    Alcotest.test_case "merging a dominated clock allocates nothing" `Quick
      (fun () ->
        let a = owned_clock 32 in
        Budgets.check "vclock.dominated-merge" (Budgets.words_per_iter (merges a a));
        (* [b] is an older snapshot of the owner; [c] is another fiber's
           clock that [a] has already absorbed. *)
        let b = a in
        let a = Vclock.tick (Vclock.tick a owner) owner in
        let c = Vclock.tick (owned_clock 8) 5 in
        let a = Vclock.tick (Vclock.merge a c) owner in
        checkb "a dominates b" true (Vclock.leq b a);
        checkb "a dominates c" true (Vclock.leq c a);
        Budgets.check "vclock.dominated-merge" (Budgets.words_per_iter (merges a b));
        Budgets.check "vclock.dominated-merge" (Budgets.words_per_iter (merges a c)));
    Alcotest.test_case "words per non-dominated merge" `Quick (fun () ->
        List.iter
          (fun (width, id) ->
            (* [b] is another fiber's clock of the same width, ahead of
               [a] in one entry *)
            let a = owned_clock width in
            let b = Vclock.tick (owned_clock width) 0 in
            checkb "a does not dominate b" false (Vclock.leq b a);
            Budgets.check id
              (Budgets.words_per_iter ~count:Budgets.all_words (merges a b)))
          [ (8, "vclock.raised-merge.8"); (32, "vclock.raised-merge.32");
            (300, "vclock.raised-merge.300") ]);
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
        Budgets.check "stats.incr" (Budgets.words_per_iter (bumps s early));
        (* Registered after [s] was created: the first bump grows the
           block, later ones are array stores. *)
        let late = Stats.key "rung.late" in
        Stats.incr s late;
        Budgets.check "stats.incr" (Budgets.words_per_iter (bumps s late));
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
        Budgets.check "engine.sleep.observed" (Budgets.words_per_iter (sleeps ~observed:true));
        Budgets.check "engine.sleep.unobserved" (Budgets.words_per_iter (sleeps ~observed:false)));
    Alcotest.test_case "words per waitq wait, signal and sleep" `Quick
      (fun () ->
        Budgets.check "engine.waitq.observed"
          (Budgets.words_per_iter (waitq_cycles ~observed:true));
        Budgets.check "engine.waitq.unobserved"
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
        Budgets.check "engine.emit" w);
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
        Budgets.check "engine.stamp-adopt" w);
  ]

(* ---- Golden: random Sync programs ------------------------------------- *)

(* Two hundred seeded programs over every blocking primitive — waitqs,
   ivars, mailboxes, a semaphore made of a waitq, yield and sleep,
   error fills and poison included — run on observed engines, a third
   of them under a random same-time order.  Each fiber notes every
   op's outcome, and one fiber in four lets exceptions escape, so
   crashes are exercised too.  A row pins a program's [events_hash], its event count and the
   MD5 of its described events (clocks included), blocked fibers and
   crashes: any change to how fibers block and resume shows here. *)

type sync_op =
  | Nap of int
  | Yield
  | Wait of int
  | Signal of int
  | Signal_error of int
  | Broadcast_error of int
  | Read of int
  | Fill of int
  | Fill_error of int
  | Try_fill of int
  | Take of int
  | Take_opt of int
  | Put of int
  | Poison of int
  | Acquire
  | Release

exception Boom of int

let sync_op rng =
  let pick n = Rng.int rng n in
  match pick 16 with
  | 0 -> Nap (pick 3)
  | 1 -> Yield
  | 2 -> Wait (pick 2)
  | 3 -> Signal (pick 2)
  | 4 -> Signal_error (pick 2)
  | 5 -> Broadcast_error (pick 2)
  | 6 -> Read (pick 2)
  | 7 -> Fill (pick 2)
  | 8 -> Fill_error (pick 2)
  | 9 -> Try_fill (pick 2)
  | 10 -> Take (pick 2)
  | 11 -> Take_opt (pick 2)
  | 12 -> Put (pick 2)
  | 13 -> Poison (pick 2)
  | 14 -> Acquire
  | _ -> Release

let sync_program i =
  let rng = Rng.create (1_000 + i) in
  List.init
    (2 + Rng.int rng 4)
    (fun _ -> List.init (3 + Rng.int rng 10) (fun _ -> sync_op rng))

let run_sync_program i =
  let policy = if i mod 3 = 2 then Engine.Random_order i else Engine.Fifo in
  let e = Engine.create ~seed:i ~policy ~on_crash:`Record () in
  let qs = Array.init 2 (fun _ -> Sync.Waitq.create e) in
  let ivs = Array.init 2 (fun _ -> Sync.Ivar.create e) in
  let mbs = Array.init 2 (fun _ -> Sync.Mailbox.create e) in
  (* A one-permit semaphore: a count and the waitq of its waiters. *)
  let permits = ref 1 and sem = Sync.Waitq.create e in
  let step f j op =
    let n = (f * 100) + j in
    match op with
    | Nap d ->
      Engine.sleep e (Time.ms d);
      "nap"
    | Yield ->
      Engine.yield e;
      "yield"
    | Wait q -> Printf.sprintf "wait %d" (Sync.Waitq.wait qs.(q))
    | Signal q -> Printf.sprintf "signal %b" (Sync.Waitq.signal qs.(q) n)
    | Signal_error q ->
      Printf.sprintf "signal_error %b" (Sync.Waitq.signal_error qs.(q) (Boom n))
    | Broadcast_error q ->
      Printf.sprintf "broadcast %d" (Sync.Waitq.broadcast_error qs.(q) (Boom n))
    | Read v -> Printf.sprintf "read %d" (Sync.Ivar.read ivs.(v))
    | Fill v ->
      Sync.Ivar.fill ivs.(v) n;
      "fill"
    | Fill_error v ->
      Sync.Ivar.fill_error ivs.(v) (Boom n);
      "fill_error"
    | Try_fill v -> Printf.sprintf "try_fill %b" (Sync.Ivar.try_fill ivs.(v) n)
    | Take m -> Printf.sprintf "take %d" (Sync.Mailbox.take mbs.(m))
    | Take_opt m ->
      Printf.sprintf "take_opt %s"
        (match Sync.Mailbox.take_opt mbs.(m) with
        | Some v -> string_of_int v
        | None -> "-")
    | Put m ->
      Sync.Mailbox.put mbs.(m) n;
      "put"
    | Poison m ->
      Sync.Mailbox.poison mbs.(m) (Boom n);
      "poison"
    | Acquire ->
      if !permits > 0 then decr permits else Sync.Waitq.wait sem;
      "acquire"
    | Release ->
      if not (Sync.Waitq.signal sem ()) then incr permits;
      "release"
  in
  List.iteri
    (fun f ops ->
      let careless = f = 0 && i mod 4 = 0 in
      ignore
        (Engine.spawn e ~name:(Printf.sprintf "f%d" f) (fun () ->
             List.iteri
               (fun j op ->
                 let outcome =
                   if careless then step f j op
                   else
                     try step f j op
                     with exn -> "raised " ^ Printexc.to_string exn
                 in
                 Engine.record e (Printf.sprintf "f%d.%d %s" f j outcome))
               ops)))
    (sync_program i);
  Engine.run e;
  let lines =
    List.map Event.describe (Array.to_list (Engine.events e))
    @ Engine.blocked_fibers e
    @ List.map
        (fun (name, exn) -> name ^ " crashed: " ^ Printexc.to_string exn)
        (Engine.crashed e)
  in
  Printf.sprintf "%3d %016Lx %3d %s\n" i (Engine.events_hash e)
    (Engine.events_total e)
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let golden_sync_programs =
  {|  0 e302f331f72dddfb  19 5f27c20c00d5ab310eaab19861944c6c
  1 ea1048973de3461e  19 9e608a67448afac15941aa93bf5255de
  2 f5a0ab074d4af122  16 7ca30d385c09f0f021857e7b2b96fb57
  3 2150fb92cc69438b   9 5d4dfe596ab863f9c64be3ab17249695
  4 e98df09dab235859  31 ef2407f021ab4447f200df35e07e4be7
  5 c2ccd490aa8c0092  52 11d6d4d581739e91e962518209821bd4
  6 2d1746ea92433dd3  27 195dca50000b5787b9627140480740bb
  7 04b8f407c0317685  56 e0e64832470f893da4c53f873946649e
  8 ed52e2f1ab446bcd  12 55026a68986be5565e5b1c06598f5b4f
  9 1f2f4e3bf22a8328  21 c5fa20c82ad1f278eaa8596721b643c7
 10 39436aa729c0003a   8 636f1f4add6dd9447c1140f77d72b8dd
 11 296329ddaa83e75a  24 398a0670407bebf843ecd50925aa6d70
 12 ca9cbd8b6da1309d  39 d96833e5337c97aed0efdbe7896ae0b8
 13 c228514765eddcf2  28 35965f85db68549fa76e70f3f3c7555c
 14 eaae730cc0c63fcc  13 49cc6e2cc7601afa95deea9bef89e27e
 15 0560f22b9a5e55e3  17 efa27ada89c1ad83140ff7376a8cbf35
 16 316eb58cb5e3ca7c  10 32deca8c3e0f74d94bad486a825ca584
 17 e96cbc9ef011af49  35 9621b0810e90d957302c8e73faa5b6e9
 18 154ec10ccddc773d  42 f3dbcf0eecf03871080c79db53c7c8c0
 19 2596479f713b8baa  45 73dd9379cd1389f212e0f2d059d7090d
 20 f7cc5287cb7b1101  38 95502a97027c2056cb44c47a51715748
 21 f6d8d14460ad40f1  34 9bfb3b18f1a6a3a0ca5727a58f170ab1
 22 d43c98444713b25d  43 6d02c5bb5989ab1f4b6bef3fde112a77
 23 3c277137571b6575   5 7c0e02614ef4d2cc2e7498005ccbec58
 24 fc199b4538c2a8f5  10 7f8387952ef6b299c442700252d2a86f
 25 0e745105cf569d87  47 a53ed0cbe70cab544382c2281c7cda9d
 26 3a4ffa19df43be54  23 267baa237cd10c5d3f02ec22a356a361
 27 30313b168749472e  34 3174fd7d476711da6f54ce632b4281d1
 28 154f1ce3b07933eb  45 76b5876631977058256e0433c8d9524f
 29 2bb1d7c10375ac5a  20 991e257d3052e84f4661a411260c4bd4
 30 30499a020424fbfc   7 b2e5263eb02aa4d88b4e3c959b68d17c
 31 3db9bc9b7a08c713  51 602668252e3d0f8c506c673903c93968
 32 ea44e2ba7f93ece1  26 d7fd3000fbcbdfe152504df7611e6a87
 33 f3ee3cf4419b3f28   7 14132dc3207639bed6b59cd8334896d5
 34 3300bcd2ef060bc3  29 b92a03bb2c4234597dfff3070bd83874
 35 f2643ccbeec4a24e  50 9432cf833fb8cf3a7b05120d8918372f
 36 21bb284e07aaec1a  20 14284d025a72fad7bedd5cd3562594c5
 37 d168f6d86e796043  37 39613e2030adb8411567e196d6fb935d
 38 18e43805202a2e6c  53 41c5d6330116a749cb164dcf56e85c8f
 39 fa3a39aa0051019b  23 89a46c172586cf3ad9b6250c1dae21db
 40 3489617d2cabbbaa  24 7ffa511360ff0c8ad8858d675d40de72
 41 d2300ff996bf8bab   9 d84a23bcb52f300f30d1e9b2bbdffd08
 42 e2ff861aa0d08af7  57 8f555d04a0c9234d0edc5ef3e152d306
 43 2bbd145833e8a886  29 b6d70c71eb48e8de41657d37201f7673
 44 1cc607adebd54ed7  15 caaa18e9da1e2fe949d4aa0504d7e517
 45 c5358a6d0433f640  15 e0b141cf12043b38fb440d701c09f2bb
 46 332cae0892e183bd  50 77f2ce2ce68df3694ede6cec1548e5f1
 47 c65885fb4b2592c8  15 1d607f5cd89045c0c3ae6bfaa2de8586
 48 34f7481291faa36e  36 b4cb564bd780597200e94286e88e07eb
 49 fabd07168412c95d  46 2fb5c5ebf7352fbbab0a7a39122179f3
 50 ccaeff82d574112e  12 c536c0194077ffc176ec77cc888cf5fd
 51 d6de7adef4a72159  42 73f3910911f9454b11eafc502e7c826c
 52 3c277137571b6575   5 07b3de64ad4523819a9dff8cb4b0a0fb
 53 c740c7f2c83e8e72  39 54b04686dacb75aa3cc1dbf578b573a2
 54 06281049f292b7c7  35 d8afad593d2a0c64d40904f9246d7118
 55 187e25231eb50b82  31 0c9bc14efbbe89bed195dde0d2302770
 56 1d9235757f5ed66a   9 94c0552dc9911f21a34b7e36b6c55ec5
 57 effde525ac785e3a  46 968cd1e39efa82c4d07001c945eadc67
 58 f0805592a9f80afc  18 8ec044083650b35e52215d81a6889514
 59 2a37066bf1ae7dc1   6 1c15c3330f26f8f1e9f8f19d90ecb385
 60 ef7b7c8b50e099e4  37 f71bf8059fa67a757152f94575c1ee4c
 61 ef4617385ccfea13  25 53ff126fad3c9c847b10fc2f4d5347f9
 62 08e57e98a6356db4  14 a6bb38cf620551047e19f237ff50a9b1
 63 f2de6d9b27b2380f  12 b583f0eec4737217183374ed7e24041c
 64 2ace4b527877bdc8   8 02a49cbb81b982e7f19642592c3f16c7
 65 0accacf40f7f1429  23 cc448ef1f037e64420b2b8e01357d223
 66 3754a63b080b22ad  33 cf191fbf8d2cf2c14d40fc8f84e5bee9
 67 c63ee2b06381998f  41 962b2c8d9153f2a6f997d7edfa81359a
 68 1a1a5f0f30028611  19 cfdab9fbd4ae8763588bfdbf94ba1b8b
 69 c493e0486bc82aeb  39 a0a1b16a8c1256424d19b49c2c992d3f
 70 345b0d83bc238f3d  25 1f12c275d08bb91faec7468182d29dfe
 71 d78538ac9aa483f2  26 56bb3990fefb157b5a148b5276003f2f
 72 ef95647c051d1df9  15 7d8fa046bbe3d3a0f9657ee8e5ea59aa
 73 1db5d287a096b896  42 d8c6c2495fa53ac7de6e8336a6d13f31
 74 2ee30bf4a38a126f  18 f1c0247efcd88aabc4aeeef60c25288e
 75 204134af19ee52bc  18 061946d83875962ac37a9449cad4b327
 76 2b273bcdcf3adb69  48 099f04a51abdcc601ad54b062d2af9cf
 77 32891f4551344160  12 a4e3afbef9059702ddd2c6b8d0bf8916
 78 d529042ea7259ed6  32 b26b105bcfdc3fe484bac0c35779ee34
 79 df8981301f87c18d  27 4e6ed8f0ca8fd09dada535accb0cdfa9
 80 e4a7cd273637d965  34 e506a8da5afb3ed21ffeb1955eeeb033
 81 f2cd475f10016e72  31 582db8c01a95697593153e44d86a93d5
 82 36656e7bb00e4f4a  47 a16e82269b1e20922e7c0153120281b0
 83 ffbf394cd3cdecea  32 cd72790ddf026657da50a642c40442ba
 84 31a48af48611776b  16 1dc9fb2e6bd9158b762782f1ec56c8b1
 85 2aacc4a82de1c166  50 e2d56555a7065a3bfe7d17de971d780b
 86 320fc6b028a41b31  20 0eaf52241d3b70ad387fa0e68c917820
 87 21d9d52b466b751f  30 e3d60652e23124666e30effb35de8b97
 88 de2abfb2f959f9ba  16 b12c40e6e9bf457f03e99c4890d80417
 89 14447691591bd679  28 7776e294145004049e145e3b27a220d9
 90 d4f93eb727f61de0  10 5228725c3db57390af27679f2591628b
 91 e65b8887f9d4e262  20 40668d50e767912f2775d250e7f83fd6
 92 f05b2aaf95d40590  10 e6ee6018c62667177b01c6d977977989
 93 3da7c4269d0d762c  14 7c87a2f80fbf53dca5dda8648ffaf721
 94 eaefbccf509a5aba  13 07ec55ed2b4bf4ead0b780ba7473f652
 95 25f0ca8d72cf3bd3  26 a007fe3dc0cc733e07e5fe170d72f7f7
 96 2bbccda539a120ec  31 b9a32e41d32c78749347483635efe25c
 97 da3daa39f94fe98c  10 c6b0ca08dbb70bfc130e0e3da3afb800
 98 c62ec62d2e1817f0  20 bc1f931bc22b8651f4240b64796a46af
 99 cc514a3bb7f9c5fa  26 df15da361e3b90ddcf662ba3903b27a4
100 f713e35a99b79d4f  27 38384a60dbbcd6ec7441dd5a49e0e675
101 e0d6022c110d13a1  25 5c312cc7c32d7923a562b659733a9838
102 30534c226268bbbc  25 82e1f4edd6ef2027a7502672d14966dd
103 fef422b9fb80d5b7  28 9c36b8f4738a4805c249800af6e3d139
104 2912b81b0cb74547  18 b20c962511b4b664053b01f4ba9eb194
105 c14508209ab08990  15 a2f103b784f3971265619e7af7043708
106 36c58071e51260e6  24 c4811c91774693c2b54fa9d094b7c205
107 e253b11f32315b6d  32 278bec115c540e8d0cb6a524059f1497
108 dccaa40e84989469  21 1f2c7fd54d623f84bc10681a772ecc77
109 1f2ab49bb86b5af2  27 e916ca81b315bf8abaab619a451cfada
110 e0ad21def339bcd3  39 92bb2917a1a255a9a4f00778e0c829db
111 c639aab030ad04dc   4 1bf08b7a9d2e8a8e648cb17aef05d02b
112 10393019e2511a73  19 d0e353c6ecb5bb6b3ad1a70d94667927
113 1166e20b89aff3ed  24 f5f47341f22f124e86e6cba0e8820982
114 10a8697dbe1d847b  19 ec1a559bcec5967504d698f3c9b58c3c
115 24bcb7dc43bd6190  13 79ba1963f36352635181ffff7beaa967
116 2ebbb815a0f69197   8 7d27a1b75faac9544d26013d5aa96a9c
117 f8e81a2a2e93e75e  27 421eb894c1166facef31a934e4bde8db
118 390719738c252507  20 2d8500496271acad1c2f4d1bab47c146
119 ebf29666a2f28a8e  11 d47b08b8cebf52162ffb7e346e4d16fa
120 e8f9b8f1d34c88cc  28 20b57760580b23076b15c0df1db2f0e0
121 da3daa39f94fe98c  10 93643489a33669462670500259872b7c
122 30499a020424fbfc   7 6ab4f78a7798a48a973b6ea713ed8812
123 21643d667a37df8b  41 0a91bdf5c9ec347efe1676482e01a910
124 1075e0a2827fd047  53 47f9bb4ca131becc62e20455315e3aa0
125 f728b50be0724330  35 a583475afaa879cd3856ebaef54f6e3a
126 f7fe40270c751363  52 c6d73647dc6b76b644a15557c6a066b1
127 2f569ec4915d94db  20 e3d3bfa2a23b261199c726536fcc9e57
128 0cd74c4632934637  16 9626718318e7a131e7463413198c2004
129 df7829f15b96f60c  25 7676ae26295385ca5e70f8739b1b1e9f
130 25e3f562501a6f96  12 060572463fe12d9ca5df4259bff13077
131 c639aab030ad04dc   4 1bf08b7a9d2e8a8e648cb17aef05d02b
132 d809f1fd3a847971  24 3fbd07443edd00088b9061433f752f6e
133 ff5e063f65010ca6  13 b6a01176ee0b5ba6731275aed6aebc56
134 1695d8c3a6fe5bb0  50 1a05a453edddfdfddca0c0171b3e6b91
135 1b0171e39b3756ba  50 f5ee81abf391bd5ddf26ea655634de86
136 2e4ded6fdae96d79  24 21beeb03093aa70b1b105e29cd823875
137 fe9837027ccb02e8  34 f056971624e9a80143d0fd77478558d7
138 e7c5694a3252e6a4  56 f517f605494a0ab14ce4ec4ac854d893
139 f0d3566404b0a1ba   9 7ea6998ca4f1ff55bffce1b90c6fbefb
140 c639aab030ad04dc   4 1bf08b7a9d2e8a8e648cb17aef05d02b
141 d0bb19904fafd526  14 2bb91fa0ef193fcfcb5d791958b0772a
142 d940950de28878ab  40 98337afa551c7e3988ef5cb22d56505d
143 e9725ea5aefa905c   6 bb588e9b3a1f9c4b7b12d40546b04a80
144 eb2900ba24f5e984  32 62563c3722795e3844da9948b40ee7dd
145 22183ee4af4196e9  50 9016c09d2873dc6459edb56fd2b38d37
146 30499a020424fbfc   7 b8d815724c66248a2bfb40b6760ff119
147 345db884e7c30b91  25 4a835c07481d67507eae931ccd4693c2
148 ca17ec1fa2b78292  41 2e457a1dcbd78ce1d000f20d3c0c7ab6
149 e6da5a1405ab966f  13 2d32ee3bd90d3e422742c9d880090ccb
150 ea15d92918107f86  29 d5486eb784e3dbaa77e9a2922438d4cc
151 fb38c70e422fd201  59 c3fddd54e9dd46d620fe439814d03a69
152 04c08bf265d1d211  29 90f51b425528a93ab086e792129718e1
153 fd5f757f711f4863  12 f28dbfb080667a8f200fc14e664f37b0
154 f40830bc0b003c72  21 6a114a53e35adb4ce40947d9f9729f1c
155 e3cf049620c49b83  20 3c7323f30d0da92fc042a68a81474c6e
156 14cc7f9f81db4d6a   5 7206c55171f6fa9da3d8f030c7e903c7
157 2672e5249d25bae0  32 c36365796024dbdf6b7de86457aa7a57
158 de3b885f75ac39dd  18 a1dc924131eb80d641a0d6d09ca670c7
159 d7559a3ac72cfccc  11 4bdaabc82577222ff7af38eb4d482f33
160 3d662b7a7bdc0ead  26 6c3ab57d223403401ff54e0bdc004a04
161 d1e2218dde141821  20 b4c234d334cdee7d1a465743a515726b
162 172b251f63ccd26e  50 d2f911e01f5e7954ff0dd721b50e4791
163 d1f8ff71cbecd7c0  32 07753f607d783e7cf09262b649de1714
164 e6c7ab3274f22790  28 fac8a362821711032ed13b7bbc5523f9
165 c1534eb733642f49  44 0d87580997e2f4d1dc7cf147090baf33
166 fe0a3ad931aba3d2  16 d458ca113014badf561289400f2f6bde
167 0a630a9390a2c5ee  38 c275e3c4bc15485492c2c7c059c875e0
168 de342b5cb217c133  14 265c1e76641917b90a295b7b58b411fe
169 fb3ae476ada133c2   8 c36acdf8a7c1ae29d2d322ee7b6edb1f
170 f3ee3df4419b40db   7 52168257b5f8523c93883e063dc28a17
171 3202455ec5815e26  16 b83f14b1b6cfaae8bbbdc3dba54d30ef
172 3c277137571b6575   5 1afe8f3f06867570ee8ff41da80e654c
173 c9d5bd06bd816f12   7 6af8e63a99fc021da321ac15a14d9cfe
174 1599e1d5d83af394  13 83936b3382a1b2309695887f60d7c845
175 3a961b38022a8085  24 f8c76e677ac6ff26bcb4e79472b5337e
176 211b58f718151b5e  19 da8deef957289b8727fbcedfd43fad6d
177 017772e33ba40a09  45 b97f5e65bcdaf1114e61f5d4d8f8bd24
178 dd0c7faf04dc958d  29 3a4595aebbc83414be6ebc5e1822aa19
179 e20774a4019b9a9e  29 835bec4bff5aa10af80a813403d6f6f2
180 d25f807a2afb0c12  38 9ea718335e6b8a6fabfeed07d0d5a732
181 c9f50cf9acb4b990  19 f0f18d459dac5eb677a3d10d15bcf3ab
182 110e8451e0da51bb  12 2358cd80d16c83d6483688796c05c591
183 2164aef560851936  20 0c12f44975033e05b6b411166d459ab3
184 0cb0cd1a1628361d  15 e7eb06f6c12f2d3ebf562a79f9ab2ea5
185 070cb8e440fd395f  53 7efd0b12783d10d69da1841c6effd9b4
186 f9e1bf04900711aa  32 c32cc317eb77496fb07fdbb26a9d46e7
187 2100ccdfc56a39ca  19 4deab27fc0aab4d03770c3b97e9a98e2
188 e4690bc3662dd9ce  20 237ff5061e42bebf7429ca6d20cf0106
189 3eccdee406dcd1c1  55 d0b1d1763b9b23a0c250287a2f44167b
190 2fd4b07a2273bb3b  22 6e154468199d3c08485223c7bf6602b1
191 1799e7aa85d093f5   7 f4a9457d25cd0b27ad518bdde73c8c07
192 d708798aea2e8550   9 322dd010076776d26540403134f3fb6b
193 f964e79d32691edc  59 27f1f903abfb8b9ba75b0d2e0d492ad6
194 04c5d4d8056ee5bd  12 093666a72833f39f70287588d36bfab3
195 12edb42cb0afbadf  12 7928a7dd1e6eae7206707003bec2b338
196 c15f3586a42b54b9  16 0ce4a873c3be1f00566158161d882e74
197 0ad0cd19bb86096c  33 ae872a70a872b3dd5259185111d648f1
198 f7d368c105b0e198  19 98ca9e6872b3613e8933b3c2333ee2cc
199 f1054d81aa292ffd  37 628649012ffa927d05af1eb990d9a948
|}

let sync_golden_tests =
  [
    Alcotest.test_case "random Sync programs" `Quick (fun () ->
        check Alcotest.string "rows unchanged" golden_sync_programs
          (String.concat "" (List.init 200 run_sync_program)));
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
      ("event-log", event_log_tests @ [ QCheck_alcotest.to_alcotest kind_memo_property ]);
      ("sync", sync_tests);
      ("extra", extra_tests);
      ("causality", causality_tests);
      ("stackless", stackless_tests);
      ("vclock", vclock_tests);
      ("counters", counter_tests);
      ("retention", retention_tests);
      ("sync-golden", sync_golden_tests);
    ]
