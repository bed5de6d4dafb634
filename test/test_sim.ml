(* Tests for the discrete-event simulation engine and its primitives. *)

open Sim
module Waitq = Sync.For_tests.Waitq

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
    Alcotest.test_case "min_time reads the minimum without removing it"
      `Quick (fun () ->
        let h = Heap.create () in
        Heap.add h ~time:42 ~seq:0 "late";
        Heap.add h ~time:7 ~seq:1 "early";
        checki "min" 7 (Heap.min_time h);
        checki "still two" 2 (Heap.length h);
        checkb "pop agrees" true (Heap.pop h = Some (7, 1, "early"));
        checki "next min" 42 (Heap.min_time h));
    Alcotest.test_case "take drains in (time, seq) order" `Quick (fun () ->
        let h = Heap.create () in
        Heap.add h ~time:5 ~seq:2 "c";
        Heap.add h ~time:1 ~seq:3 "a";
        Heap.add h ~time:5 ~seq:1 "b";
        let drained =
          List.init 3 (fun _ ->
              let t = Heap.min_time h in
              (t, Heap.take h))
        in
        check
          Alcotest.(list (pair int string))
          "order"
          [ (1, "a"); (5, "b"); (5, "c") ]
          drained;
        checkb "empty" true (Heap.is_empty h));
    Alcotest.test_case "min_time and take reject an empty heap" `Quick
      (fun () ->
        let h : unit Heap.t = Heap.create () in
        let raises f =
          match f () with _ -> false | exception Invalid_argument _ -> true
        in
        checkb "min_time" true (raises (fun () -> Heap.min_time h));
        checkb "take" true (raises (fun () -> Heap.take h));
        Heap.add h ~time:3 ~seq:0 ();
        Heap.take h;
        checkb "min_time once drained" true (raises (fun () -> Heap.min_time h)));
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
        let window e = Array.map Event.For_tests.describe (Engine.events e) in
        checki "same total" (Engine.events_total a) (Engine.events_total b);
        checkb "prefix evicted" true
          (Engine.events_total a - Array.length (Engine.events a) > 2);
        checkb "same retained window" true (window a = window b);
        checkb "differ" false
          (Int64.equal (Engine.events_hash a) (Engine.events_hash b)));
    Alcotest.test_case
      "ring capacities 0/1/k/length keep the last k, hash exact" `Quick
      (fun () ->
        (* The same program at every capacity: the retained window is
           the stream's tail, and the fingerprint and total never
           depend on how much was kept. *)
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
        let all = Array.to_list (Array.map Event.For_tests.describe (Engine.events full)) in
        let total = Engine.events_total full in
        checki "no drops unbounded" total (List.length all);
        checkb "stream wraps the small rings" true (total > 8);
        List.iter
          (fun k ->
            let e = program ~log_capacity:k () in
            let kept =
              Array.to_list (Array.map Event.For_tests.describe (Engine.events e))
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
              total (Engine.events_total e))
          [ 0; 1; 5; total; total + 7 ]);
    Alcotest.test_case "consumers see every event at any capacity" `Quick
      (fun () ->
        let e = Engine.create ~log_capacity:2 () in
        let fed = ref [] in
        Engine.add_consumer e (fun ev_time ev_fiber ev_clock ev_kind ->
            fed :=
              Event.For_tests.describe { Event.ev_time; ev_fiber; ev_clock; ev_kind }
              :: !fed);
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
        let before = Array.map Event.For_tests.describe a in
        for i = 7 to 12 do
          Engine.record e (string_of_int i)
        done;
        checkb "snapshot untouched by wraparound" true
          (before = Array.map Event.For_tests.describe a));
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
          checkb "same" true (Rng.float a = Rng.float b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        checkb "differ" false (Rng.float a = Rng.float b));
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
        checkb "differ" false (Rng.float a = Rng.float child));
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
            (Rng.float child = Rng.float child')
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
  ]

(* The first draws of every entry point at three seeds, printed
   exactly ([%h] for floats): a change to the generator's representation
   must keep the stream bit-identical, and every fingerprint rests on
   it. *)
let rng_draws seed =
  let r = Rng.create seed in
  let b = Buffer.create 256 in
  let pr fmt = Printf.bprintf b fmt in
  pr "seed %d:" seed;
  for _ = 1 to 3 do
    pr " %d" (Rng.int r 1000)
  done;
  pr " %d %d" (Rng.int r max_int) (Rng.int r 3);
  pr " %h %h" (Rng.float r) (Rng.float r);
  pr " %b %b %b" (Rng.bool r 0.5) (Rng.bool r 0.1) (Rng.bool r 0.9);
  let c = Rng.split r in
  pr " | split %d %h" (Rng.int c max_int) (Rng.float c);
  let d = Rng.derive r 3 in
  pr " | derive %d %h" (Rng.int d max_int) (Rng.float d);
  pr " | after %d" (Rng.int r max_int);
  Buffer.contents b

let rng_golden =
  [
    "seed 1: 492 673 881 931835874657720878 0 0x1.d2b5309350688p-2 \
     0x1.31087e915296fp-1 false false true | split 1529195223478620695 \
     0x1.496d0551eacfdp-1 | derive 574084555421270588 0x1.48c8c0723c5cp-7 \
     | after 2460862104762392994";
    "seed 7: 963 181 52 3060718489179605629 2 0x1.980a57f430be8p-2 \
     0x1.60e097496b38p-2 true false true | split 182363272266540581 \
     0x1.76fd7428ff819p-1 | derive 2566074402936010619 0x1.6e87012578ef8p-3 \
     | after 784821237860263090";
    "seed 42: 570 797 285 4523206237176398889 1 0x1.1e0b12d313f7cp-2 \
     0x1.e187e2fea8348p-3 true false true | split 4114681668312531823 \
     0x1.4c961dfbd0af8p-3 | derive 1648088214080895849 0x1.9edd7d42ffa38p-1 \
     | after 4086949034143292357";
  ]

let rng_golden_tests =
  [
    Alcotest.test_case "first draws at three seeds" `Quick (fun () ->
        Alcotest.(check (list string))
          "draws" rng_golden (List.map rng_draws [ 1; 7; 42 ]));
    Alcotest.test_case "a bool and an int draw allocate nothing" `Quick
      (fun () ->
        let r = Rng.create 3 in
        let hits = ref 0 in
        Budgets.check "rng.bool-int"
          (Budgets.words_per_iter (fun n ->
               for _ = 1 to n do
                 if Rng.bool r 0.5 then incr hits;
                 hits := !hits + Rng.int r 100
               done));
        checkb "drew" true (!hits > 0));
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
               ignore (Engine.await_prepared e
                   ~reason:(Engine.reason "wait") (Engine.prepare e))));
        checkb "raises" true
          (match Engine.run e ~expect_quiescent:true with
          | () -> false
          | exception Engine.Deadlock _ -> true));
    Alcotest.test_case "daemon fibers excluded from quiescence" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~daemon:true (fun () ->
               ignore (Engine.await_prepared e
                   ~reason:(Engine.reason "wait") (Engine.prepare e))));
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
               Engine.await_prepared e ~reason:(Engine.reason "wait") h;
               incr resumed;
               (* Waiting again, on another handle: the old one stays
                  spent. *)
               let h' = Engine.prepare e in
               Alcotest.check_raises "the stale handle" not_parked (fun () ->
                   Engine.resume e h ());
               Engine.resume e h' ();
               Engine.await_prepared e ~reason:(Engine.reason "again") h';
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
                 Engine.await_prepared e ~reason:(Engine.reason "wait") h
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
               got := Engine.await_prepared e ~reason:(Engine.reason "waitq") h));
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
               got := Engine.await_prepared e ~reason:(Engine.reason "waitq") h;
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
               got := Engine.await_prepared e ~reason:(Engine.reason "waitq") h;
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
               match Engine.await_prepared e ~reason:(Engine.reason "waitq") h with
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
               got := Engine.await_prepared e ~reason:(Engine.reason "waitq") h;
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
               match Engine.await_prepared e
                   ~reason:(Engine.reason "waitq") (Option.get !h) with
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
        checkb "the fiber ran on and finished" false (Engine.For_tests.fiber_alive waiter);
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
               Engine.await_prepared e ~reason:(Engine.reason "r") h;
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
        let q : unit Waitq.t = Waitq.create e in
        let iv : unit Sync.Ivar.t = Sync.Ivar.create e in
        let mb : unit Sync.Mailbox.t = Sync.Mailbox.create e in
        ignore (Engine.spawn e ~name:"q" (fun () -> Waitq.wait q));
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
              child_id := Engine.For_tests.fiber_id c)
        in
        let b = Engine.spawn e ~name:"b" (fun () -> ()) in
        Engine.run e;
        checki "first" 0 (Engine.For_tests.fiber_id a);
        checki "second" 1 (Engine.For_tests.fiber_id b);
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
            ids := (Engine.For_tests.fiber_name f, Engine.For_tests.fiber_id f) :: !ids
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
          List.init 20 (fun _ -> Rng.float (Engine.rng e))
        in
        checkb "same stream" true
          (stream Engine.Fifo = stream (Engine.Random_order 99)));
    Alcotest.test_case "view reports pending, blocked and fibers" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"stuck" (fun () ->
               ignore (Engine.await_prepared e
                   ~reason:(Engine.reason "forever") (Engine.prepare e))));
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
        let spawn fid = ignore (Engine.spawn_stackless e ~fid (fun () -> ())) in
        let auto = Engine.For_tests.fiber_id (Engine.spawn e (fun () -> ())) in
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
          (Engine.For_tests.fiber_id (Engine.spawn e (fun () -> ()))));
    Alcotest.test_case "blocked_fibers reports reason" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"waiter" (fun () ->
               ignore (Engine.await_prepared e
                   ~reason:(Engine.reason "test-reason") (Engine.prepare e))));
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
        checkb "try_fill false" false (Sync.For_tests.try_fill iv 3));
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
        let q = Waitq.create e in
        let got = ref [] in
        for i = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 let v = Waitq.wait q in
                 got := (i, v) :: !got))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               ignore (Waitq.signal q "x");
               ignore (Waitq.signal q "y");
               ignore (Waitq.signal q "z")));
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
        let q : int Waitq.t = Waitq.create e in
        let woken = ref 0 in
        for _ = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 try ignore (Waitq.wait q)
                 with Not_found -> incr woken))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               checki "three waiters" 3 (Waitq.waiters q);
               checki "three woken" 3 (Waitq.broadcast_error q Not_found)));
        Engine.run e;
        checki "all woke with the error" 3 !woken);
    Alcotest.test_case "waitq signal_error targets one waiter" `Quick
      (fun () ->
        let e = Engine.create () in
        let q : unit Waitq.t = Waitq.create e in
        let errs = ref 0 and oks = ref 0 in
        for _ = 1 to 2 do
          ignore
            (Engine.spawn e (fun () ->
                 match Waitq.wait q with
                 | () -> incr oks
                 | exception Exit -> incr errs))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               ignore (Waitq.signal_error q Exit);
               ignore (Waitq.signal q ())));
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
  if observed then Engine.add_consumer e (fun _ _ _ _ -> ());
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
  let qs = Array.init 2 (fun _ -> Waitq.create e) in
  let seen = ref [] in
  List.iteri
    (fun i ops ->
      ignore
        (Engine.spawn e (fun () ->
             List.iteri
               (fun j op ->
                 (match op with
                 | Sleep d -> Engine.sleep e (Time.ms d)
                 | Wait q -> Waitq.wait qs.(q)
                 | Signal q -> ignore (Waitq.signal qs.(q) ())
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

(* Two fibers sleeping 2 us, 1 us out of phase: each wake has the
   other fiber's wake queued before it, so every sleep but the first
   is queued.  An iteration is one sleep of each. *)
let sleeps ~observed n =
  let e = make_engine ~observed in
  let sleeper offset =
    ignore
      (Engine.spawn e (fun () ->
           Engine.sleep e (Time.us offset);
           for _ = 1 to n do
             Engine.sleep e (Time.us 2)
           done))
  in
  sleeper 0;
  sleeper 1;
  Engine.run e

(* One fiber alone: every wake is the next task, so every sleep
   resumes in place. *)
let sleeps_inline ~observed n =
  let e = make_engine ~observed in
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to n do
           Engine.sleep e (Time.us 1)
         done));
  Engine.run e

let waitq_cycles ~observed n =
  let e = make_engine ~observed in
  let q = Waitq.create e in
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to n do
           Waitq.wait q
         done));
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to n do
           Engine.sleep e (Time.us 1);
           ignore (Waitq.signal q ())
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
  Array.to_list (Engine.events e) |> List.map Event.For_tests.describe

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
             parked := Some (Engine.park e ~reason:(Engine.reason "parked"))));
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
             got (Engine.await_prepared e ~reason:(Engine.reason "parked") h)));
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
let p_reason = Engine.reason "p"

let park_wakes ~observed n =
  let e = make_engine ~observed in
  let left = ref n in
  let rec step () =
    if !left > 0 then begin
      decr left;
      Engine.wake e (Engine.park e ~reason:p_reason) step ()
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
        checkb "dead" false (Engine.For_tests.fiber_alive f);
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
        checkb "finished" false (Engine.For_tests.fiber_alive f);
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
               parked := Some (Engine.park e ~reason:(Engine.reason "p"))));
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
        checkb "the woken fiber finished" false (Engine.For_tests.fiber_alive f);
        Alcotest.check_raises "finished" not_parked (fun () ->
            Engine.wake e f ignore ()));
    Alcotest.test_case "a parked fiber that crashed is never resumed" `Quick
      (fun () ->
        let e = Engine.create ~on_crash:`Record () in
        let parked = ref None and resumed = ref false in
        ignore
          (Engine.spawn_stackless e ~name:"faulty" (fun () ->
               parked := Some (Engine.park e ~reason:(Engine.reason "p"));
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
               ignore (Engine.park e ~reason:(Engine.reason "recv"))));
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
   modulo the pool size.  A tick that would pass {!Vclock.For_tests.max_count}
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
     Vclock.For_tests.max_id - 1; Vclock.For_tests.max_id |]

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
  if Oracle.get o i < Vclock.For_tests.max_count then
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
          let n = Vclock.For_tests.max_count - 1 in
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
             (* a merge that changes nothing returns its left side *)
             ((not (Oracle.leq o' o)) || Vclock.merge c c' == c)
             && Vclock.to_string (Vclock.merge c c')
                = Oracle.to_string (Oracle.merge o o')
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
  let top = Vclock.of_list [ (Vclock.For_tests.max_id, Vclock.For_tests.max_count) ] in
  check Alcotest.string "entry at the limits"
    (Printf.sprintf "{%d:%d}" Vclock.For_tests.max_id Vclock.For_tests.max_count)
    (Vclock.to_string top);
  checki "get at the limits" Vclock.For_tests.max_count (Vclock.get top Vclock.For_tests.max_id);
  checkb "top entry dominates a lower one" true
    (Vclock.merge top (Vclock.tick Vclock.empty Vclock.For_tests.max_id) == top);
  one_line_invalid "tick past the counter limit" (fun () ->
      Vclock.tick top Vclock.For_tests.max_id);
  one_line_invalid "spawn past the counter limit" (fun () ->
      let spawned = Vclock.merge (Vclock.tick Vclock.empty 0) top in
      Vclock.tick spawned Vclock.For_tests.max_id);
  one_line_invalid "id past the limit" (fun () ->
      Vclock.tick Vclock.empty (Vclock.For_tests.max_id + 1));
  one_line_invalid "negative id" (fun () -> Vclock.tick Vclock.empty (-1));
  one_line_invalid "id max_int" (fun () -> Vclock.tick top max_int);
  one_line_invalid "of_list counter past the limit" (fun () ->
      Vclock.of_list [ (0, Vclock.For_tests.max_count + 1) ]);
  one_line_invalid "of_list zero counter" (fun () -> Vclock.of_list [ (0, 0) ]);
  one_line_invalid "of_list id past the limit" (fun () ->
      Vclock.of_list [ (Vclock.For_tests.max_id + 1, 1) ]);
  one_line_invalid "of_list repeated id" (fun () ->
      Vclock.of_list [ (3, 1); (3, 2) ]);
  checkb "the largest workload's ids fit" true
    (top_workload_id <= Vclock.For_tests.max_id)

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
        checkb "a dominates b" true (Vclock.merge a b == a);
        checkb "a dominates c" true (Vclock.merge a c == a);
        Budgets.check "vclock.dominated-merge" (Budgets.words_per_iter (merges a b));
        Budgets.check "vclock.dominated-merge" (Budgets.words_per_iter (merges a c)));
    Alcotest.test_case "words per non-dominated merge" `Quick (fun () ->
        List.iter
          (fun (width, id) ->
            (* [b] is another fiber's clock of the same width, ahead of
               [a] in one entry *)
            let a = owned_clock width in
            let b = Vclock.tick (owned_clock width) 0 in
            checkb "a does not dominate b" false (Vclock.merge a b == a);
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
        Engine.add_consumer e (fun _ _ _ _ -> ());
        Engine.record e "first";
        Alcotest.check_raises "late consumer"
          (Invalid_argument
             "Engine.add_consumer: the engine has already emitted events")
          (fun () -> Engine.add_consumer e (fun _ _ _ _ -> ())));
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
        let per_sleep observed = Budgets.words_per_iter (sleeps ~observed) /. 2. in
        Budgets.check "engine.sleep.observed" (per_sleep true);
        Budgets.check "engine.sleep.unobserved" (per_sleep false));
    Alcotest.test_case "words per sleep resumed in place" `Quick (fun () ->
        Budgets.check "engine.sleep.inline.observed"
          (Budgets.words_per_iter (sleeps_inline ~observed:true));
        Budgets.check "engine.sleep.inline.unobserved"
          (Budgets.words_per_iter (sleeps_inline ~observed:false)));
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
    Alcotest.test_case "observed emit with no log builds no record" `Quick
      (fun () ->
        let kind = Event.Block { reason = "sleep" } in
        let emits e n =
          for _ = 1 to n do
            Engine.emit e kind
          done
        in
        (* In scheduler context the event is the ambient clock and the
           kind, handed to the consumer as they are. *)
        let e = make_engine ~observed:true in
        Budgets.check "engine.emit.observed" (Budgets.words_per_iter (emits e));
        (* In a fiber each emit ticks the fiber's clock: its owner tick
           is all it allocates. *)
        Budgets.check "engine.emit.observed.fiber"
          (Budgets.words_per_iter (fun n ->
               let e = make_engine ~observed:true in
               ignore (Engine.spawn e (fun () -> emits e n));
               Engine.run e)));
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
   crashes: any change to how fibers block and resume shows here.
   Programs 200 to 299 run under a bounded delay jitter.  Programs 300
   to 399 run in a sequence of [run_until] windows under all three
   policies, their fibers now and then stop the engine before an op,
   and the MD5 also covers the clock, queue length, blocked fibers and
   events hash at the end of every window. *)

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

let sync_jitter i = Engine.Delay_jitter { jitter_seed = i; bound = Time.us 700 }

let sync_policy i =
  if i < 200 then if i mod 3 = 2 then Engine.Random_order i else Engine.Fifo
  else if i < 300 then sync_jitter i
  else
    match i mod 3 with
    | 0 -> Engine.Fifo
    | 1 -> Engine.Random_order i
    | _ -> sync_jitter i

let sync_windows = List.map Time.us [ 300; 1_000; 1_000; 2_500; 4_000 ]

let run_sync_program i =
  let windowed = i >= 300 in
  let e = Engine.create ~seed:i ~policy:(sync_policy i) ~on_crash:`Record () in
  let qs = Array.init 2 (fun _ -> Waitq.create e) in
  let ivs = Array.init 2 (fun _ -> Sync.Ivar.create e) in
  let mbs = Array.init 2 (fun _ -> Sync.Mailbox.create e) in
  (* A one-permit semaphore: a count and the waitq of its waiters. *)
  let permits = ref 1 and sem = Waitq.create e in
  let step f j op =
    let n = (f * 100) + j in
    if windowed && (f + j + i) mod 5 = 0 then Engine.stop e;
    match op with
    | Nap d ->
      Engine.sleep e (Time.ms d);
      "nap"
    | Yield ->
      Engine.yield e;
      "yield"
    | Wait q -> Printf.sprintf "wait %d" (Waitq.wait qs.(q))
    | Signal q -> Printf.sprintf "signal %b" (Waitq.signal qs.(q) n)
    | Signal_error q ->
      Printf.sprintf "signal_error %b" (Waitq.signal_error qs.(q) (Boom n))
    | Broadcast_error q ->
      Printf.sprintf "broadcast %d" (Waitq.broadcast_error qs.(q) (Boom n))
    | Read v -> Printf.sprintf "read %d" (Sync.Ivar.read ivs.(v))
    | Fill v ->
      Sync.Ivar.fill ivs.(v) n;
      "fill"
    | Fill_error v ->
      Sync.Ivar.fill_error ivs.(v) (Boom n);
      "fill_error"
    | Try_fill v -> Printf.sprintf "try_fill %b" (Sync.For_tests.try_fill ivs.(v) n)
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
      if !permits > 0 then decr permits else Waitq.wait sem;
      "acquire"
    | Release ->
      if not (Waitq.signal sem ()) then incr permits;
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
  let window limit =
    Engine.run_until e limit;
    let v = Engine.view e in
    Printf.sprintf "window: now %d pending %d blocked [%s] hash %016Lx"
      (Time.to_ns v.Engine.v_now) v.Engine.v_pending
      (String.concat "; " v.Engine.v_blocked)
      v.Engine.v_events_hash
  in
  let windows = if windowed then List.map window sync_windows else [] in
  (* A stop ends a run early, so a windowed program runs until its
     queue is empty. *)
  let rec finish () =
    Engine.run e;
    if windowed && Engine.next_task_ns e < max_int then finish ()
  in
  finish ();
  let lines =
    windows
    @ List.map Event.For_tests.describe (Array.to_list (Engine.events e))
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

let golden_sync_windows = {|200 343093cd7a054c52  36 a8c68252fd7da77678976e8aa7f1f37d
201 eec274927aa8a60d  12 3c9aa1e394710c86e241a191a9c2776e
202 3c1dcc7acd73ac97  17 09e74bfe187adad61d339ba27418137e
203 e05de5499a1dd9bf  10 fb20f3c4c89f3b1ff58276ed44c2c382
204 1fd162558d05d543  31 ab58b55ac49647bd6672349db998eecc
205 266cd099ff75d423  42 c3eb5ac67963588582a28146d39df933
206 094695aeac19dc0d  35 a2614af2e12b458afab07932d86e33a2
207 28634ec70d4d3efe  29 375e822e99b33b46f6df1e1c0b893720
208 0f9c278010d734cf   8 af981cc267de19384326cd29efff9ab7
209 deab1add8df7aa01  31 a6b268e7f89e38f913137fb66c3c70e6
210 074e3d99a447f497  18 8284858ad249b28bdeb0f866fd501c32
211 ee1a98551af100b5   7 112a9dbc5ea8b25ada1ecdec6cb145b9
212 e53e95fac9548b2d  20 ad4a06f1aa56287b6a479f4b2daf911c
213 db49f61b01962b17  53 25fe3ff7642b303dbbcb68df6d2a1ce0
214 277b9f3034f194d5  29 7da1ca9b5c7f2fd4be3319259e7de013
215 089ca04158e6ec27  24 53d77b73fdbef6bf446dcb93ba2997bd
216 066b01170bba8611  33 db27d6464375f2d9d4b4df0f0ac2cd19
217 01afca94dc5d5311  38 dddcb162e199574b6a667db0ea0d576c
218 c50a9997fd4a7bb1  39 fb2d42ca8fc1d01852f3fe8fea13d84c
219 e6b116efebc047e1  49 cdc064cf8f900a307563c1f9591d7443
220 c2efa42e84610f2f  18 5bae7b26f17726fefb8b69e41e633cc4
221 d423a6429c4fa9fa  16 1f5ce6a5212b430ae541221ed5066e70
222 1494d264f3c96757   8 8672abece00d18592aa975f2df57d48d
223 31dc79822dae0742  43 84b7886e7cfb2260df1771941c3da597
224 3a60b82f07ee767c  17 7e92870ac60df576d29d1c42b248eed4
225 17004d95dad7c14e  21 99b1086162f38b50f823ef7acb0f2fd1
226 f865011c495cf364  57 990fc9df5a3241511dd7bd9ac4b48782
227 c96df94c6d33f107  48 dc7fbe0d3c4aaeed14d2002f44d8593c
228 173575a4d6d5f3c5  26 cff5f46b232af7c8c5a7c66f6f075ac5
229 f21539064d970704  11 be870fc3b3b0990e3151e9b81d39a2b0
230 df5a964f16276196  41 0b61ed77f4a48fffa2ea05effbf9ea7b
231 dc8ee226fba6f450  37 d4547efc9c72d273fef16e66428bedf0
232 e41344e82232c39c  16 05cd213923330cb34b841266e48d9175
233 13f9d15d55f7fa9b  30 29b3590d16dab000a1efb7d8a032f414
234 edb9b2205f4da47b  48 e0d18fdc3c26650020483100daf18d3f
235 36a756eb237ee54e  48 dcb31bf170bb996f0af3bfe580c8f5de
236 dfae5b4929cad208  46 c4fedaca434f70c54c70b0a16cf4c542
237 d5a85c92dd4ba60c   8 ab5a56f33d670f15799fe26e8bb1f48d
238 27f18b8480f5ad9b  41 8836863ab4a577f549a91074af560431
239 1e7606b7ec005fc4  15 f3e680e3edb40c784f1da2e2c617c8d8
240 dc27b48cbe347a04  49 37780fcf28f9bfaf40d8d5d6e9140415
241 dc1e1ff244ef2f35  19 93cad63166c44603f5731842afb9f110
242 dbaebf6dbb88f5d7  28 7e16a87e1ac7194dbe9d5194cb4eda62
243 3ff86f152d2f05ff  12 b6e2775af5c69e006fdb805d94adbd6f
244 29f3c2f91944fa22  17 3cd250e9e706a60d73abbad0be78f8fe
245 01fa586ad55c18a9  57 a39b8e229eefa73342319a1bdfe578e3
246 115627a361105c0c  24 43ea961dab1614a5359944ae92d3e2d0
247 c0819871de8e4f38  22 207a2525234f6f880716921556922d23
248 cb98d2172ac88b66  14 d7fed8e11b849d7b49e586836cfa7ff5
249 f14aba85b383cb2d  31 3da543bb5facfbc1bf28a87b5c57fecc
250 cf117d66c8ef03b3  37 136ca3db44d184c0b8dad99f1d403104
251 c79e9398d14468e0  10 ce043954d258229a0ea71c41eac7e644
252 304ee51ce51ee3b5  17 0adfec379895755437df8d948be9bc82
253 1ed9db143c82ae42  34 a8719cdb2ab2b765ee98e4cef503f225
254 dbaaee148e37d78e  63 00ebba6766649d739fe24cad1efe18e9
255 c36aeaf464e53b51  36 3657803daa022509f820916224fe6b0a
256 1f2709f893b7fcb6  17 3936449b8aa290122a3d541c566a98a7
257 1c4c2ce4e0c5e132  37 d40eaff6f6e97db460349a32bcac9cfa
258 e9b96775b6b5a212  11 3287542a739ac040347173f0bfe918f0
259 15700f5601663f3a  23 a07e7cd58ba19e0f584fe155a6de59be
260 e8ffe65ffa34b21b  10 e80a6a0c59f5a431953ac6432109ad75
261 264882d2accbda3c  34 f9ee1ad55fd3c8ff21d105b4bf1dfeb3
262 c793cbedb06c44b0  28 dfe2f8151e6937a4f10a8d58e087b1f4
263 09cedd0cf1d03b4c  32 3522d5d8cdb120d9f340fb9522f41615
264 e1d63046b90a9899  37 84e7b7346b23c94dd3497fa7968b2448
265 332d7edb692b6722   8 8b92ad544e3756106dfced1026bfe2df
266 0b23b62c0a0e41cf  11 2757805c4ebe1a1af78bced3a0d0d636
267 339a05112241b3c2  40 b19dfcf74749e007e139c98db7d8d8c1
268 25553e6f33868ce1  31 a2f1bbfbc1e6a8e850c5afc33ddd1036
269 cd802dcb97095c95  36 f1fa0f56df2858297b87820e83954507
270 f193bd19d4b45ffa  12 1e639411826272f31aec57021b491bce
271 db93c951e9a02ae7  50 58f2e16de323c96b35098db8cc39897b
272 c0f4c1ab8bb56d1f   7 25c01a01605914966d15079f97ca818e
273 11d724523d20ced1  13 fcc482875776cc89af627292e50ebeae
274 e01457e5ba76cad9  31 e36b02859da77b3852bde4ee6a3ac07c
275 c4fb59246024d69f  21 e3f09a1f5d2dfc20eb7bbfd261e499bb
276 0a1e6992a4fdb4d7  21 f1c2df9093013dd15356657c6f1ac98f
277 29e99cf6745abc4d  40 f6828f6f88f8befa86af427ec558e168
278 d15989abb6944658  31 aa1603af5b09482b3f89149af1e95103
279 de986f27e21f972f  40 8555f7b856c6dbb69785b037bf6d97b9
280 e607d05798d6e864   6 9342f5b0b4c87c6e94eff4a46ea7aa58
281 20306562a0ee689e  41 31322cb34dd93e919f6cefaf1d2f938b
282 fe0ce3ba3947ef00  10 a898582765f5f4e61c68bee583d05a7a
283 c639763cf1219d11  59 7d86ddb5ae4863f2c908984d059f5564
284 f2bb8d33a9040d85  41 dc540379460409c0f7f37eade8ed5357
285 1ba41a6c76ee23b6  18 969dedfe4cc15fc8c9f149376d94ede4
286 2f463c823421253f  23 bda26c8fe9906d4ff3b16fec07f0ae2b
287 2015f67ed33d88bf  18 8a4a0bb52f3c401501326db5f9b1f1cc
288 149927ee9952a172  24 3e54bf2e2cb76e032dea99d7b84d1581
289 dae19c73b2de9fdd  45 f65a7107c0fee2d91a6455eb7ce0cd14
290 1fdae3b4ef17d593  42 a5f08af66cbb7b7425beae05859e89cf
291 f57e11d5a07ae4a4  17 3d24f3651b9c5155f35949231bd90d5e
292 16e816f1f0a4947f  18 1e0ab48fa6967b6569ff7968dd08e36f
293 000d9d87180e79f9  18 4fa5d5c6cbf203dc48760b1959e3a2cc
294 1a924dd670f19253   7 00955053d527559c30adf7682c2835a9
295 1af8fc7ffc6d7d79  22 187aff4ab48efcfd3d3c9ce36b98d1e2
296 367260ddbda4fd6a  22 f81de6fec67b76fca51f79dbb9295e6c
297 103c6756541880cd   5 b02f31e8aa6a3d54bc9d59a15df9e4d5
298 c89f64265331ed60  40 5e6cf85c79f62512405b9f31e7ab4ec8
299 f7b98703664bfbf8  23 f680a9c1dd7995f696c66687833bc4e9
300 dab5c6299a831f7e  31 c352c9b5bb212d493f66061b93c0517c
301 2e477eb90c8ff861  23 fd3ce3f9ce652df7951c71912c2d0d38
302 cc5affe47f788420  40 7ac8425b0f95e276ded42eb3f6737953
303 fb39c718104a40aa  15 ef244f3b28eadd475045e55da04b1395
304 ec23cce76c8a892b  21 e0437bf263cf2534bba324d52c912d16
305 cf33174beecc97b2  19 df5fdf4f0a7b2d0ba9a5257ef66f27bb
306 d3e3e3159180b17b  33 dc51e9b35a977bcd174581680cba24c4
307 3e5fe526e9db3e59  16 904d6a465cf68f06d27ba46a2703ca24
308 f1ed4c33d1f20e34  39 3397955b400bb35f69c9d7b07a02db67
309 097be492afc77468   9 2f08b8f22253c01f842dd4866ce3ac26
310 122b5a047a2b691e  18 c30b05e67e81140b48dabd907c2881ea
311 f8c673b8a05a0048  32 ff42c634db390680962cf489dfd7d6ac
312 12e12bb3b30f534c  58 3e59c4cc13b94ed1035180f175485526
313 1f9ee0559f6e8c4e  10 6014627f49ad26c5fad2fe6f272b5774
314 1de72d1c9fae5c82  15 026bd392710cea2e3a3026e3854bda5b
315 f699395f2d0b6431  34 fdb8c1acff4503a5eff35eead25b5a58
316 c767cf3a34d59ed1  17 b0dde9a724a7fd5fb90438a99f80016e
317 f82042c8bb3f1148  30 1f47590afafe46ebd6c257d0849422f0
318 fadd1fd2785b8e5d  21 64e7fc25832b49c3e44e01fc0ddd6d50
319 cf35eb408a3ca2c6  48 28ddabf5956ab50773d537273a0935dc
320 02372e2b3a148781  41 53ecf3a4bfb2163548c80dd38a6dd645
321 01a8bc900cb69347  35 53c1b2d0888f6908f949b66e3c977110
322 05505296feb27b2b  24 3a44ad94a324e6f56b978534442ea683
323 ee17f52fd2e59805   7 5d5c55fb614fceaaf854e4a9d4872f0b
324 df478445e907ddf7  25 ff7a8fee8d59d7a04ba3a6b5606299d8
325 c60270fe2fad4830  15 e97afb7fda1e8e529168a4be2e2f1312
326 21d37a747cb62503  22 ca5e158e432eac3924aa88f499cd2d98
327 f681b2b2107671c8  40 126f89e8980084c319bad6ff34895846
328 d044eaa3c1aa3e83  30 2903b59cfc0e4a4c0b6347e8251b2550
329 e544fa9a9644c8a3  15 d11459da00bdb39949526a5b624dc94f
330 0a622f609697193f  53 8dc17a6bfd766c1ec2ec6875fd2fd03f
331 23dbbcb483e868c4  19 70de8a652aff520051efddc680df5036
332 fdc45e926e1829e4  13 5919f2e62213c82e3b37182f7a732a5a
333 e6c6bd2518e0e8c8  12 14c3af238f85955c6b4d9e0550380130
334 d32353ff56709dfe  41 745a3e5b4d551a7a873f2b4eff186d15
335 1073aecaa2ede5b5  28 8dc48e8a2e3a270dbd107def31b4ded5
336 0bc8fef95dfec7a5  35 643ba1c4f66a1fa50605ea20ee8cab8c
337 3748fe1663510168  21 5b932d2ef7dcf92f109c89c2d9ff6c6b
338 eb7d3eed7e427682  46 fc57d690601ca3d2dc076cb2355aa42f
339 ccb480e043874ed6  45 40885faf2cfcd272a1cf6d76222800a5
340 c6cb1a0545fd1f71  21 e7221a4c9ff2b86969a7e947822465bc
341 e184d84cd2d67f7c  35 d6d58504e991e57873fe8a8e8035e3b5
342 e7729ed12639d900  27 d355e6e03d57a60323b75d4782b7a700
343 faec33a8359b57ec  16 28f5a6750a2ae7474fe5ddd162c2ba05
344 d04df569e1a614c1  47 08c06fc21c551d7142e4d66bd9540186
345 102792efbb58b6dd  44 cad30cbce298808e2c9a8bdc1e87d101
346 f2865b629c5e940e  19 e6196306d7fc4563e703bbc7e8da62fb
347 c873109aaf3ed8c7  54 d79d4cbbeefbe640f752b56956935fe3
348 30616e5eec7bbc33  31 8c140bfb547e833c28fb1cc31a83af54
349 f0001df23d8e9856  39 2ff26555d23cbf9ca2d2f13fc2718a18
350 dc89e6bb8c921e47  18 3aab3a0c1a8c1ca1b7ab8ca99f63c438
351 cd30033aca987506  13 721cf6f0fd6ccdbfaf82c6f0195503ea
352 cd6931480cf1197c  18 8acfc006729687261b28a8c2df5fdc51
353 3d2751af5f5a3094  27 8e029e7f7ce86e818bddf014769b9c88
354 d210ea2f002a3b52  20 1b926a6e1bd3d229f0ba728326175a72
355 1a3182408c0300be  12 6f3e7b37bdaa91e8ac4a0371011c3046
356 df44c74206eac1fd   6 5a971104940e920e1a6c76733ec2d5d4
357 d294beafc087e767  40 5d2ffa862da7c7cab5404b00861f1b41
358 d7e9393d55f4bf9d  37 02c1cc6733e6a87a68f5ee05e40ee401
359 efcd2b070b896bba  31 da4106962f5ea7e849459bc9244e8f0e
360 d5b9524b51bba697  19 f1a99ca236bfea97faa507493f5ae65b
361 136fd5128c80adb1  32 299e5ed1dcd8f0668a0c5a08109f2d71
362 3cf3b99f7577f163  30 604b63cd03c48affcdfe7ef70a6aae1c
363 e1f3aad5cbf6c7e8  65 7e21ba8fa1d502cc7036fc8c61a03830
364 d714637ea4806c8e  21 2f9cc5958dae5d94a4a08e81cfc192f2
365 239c24ab0707f9da  22 b1183c691e6999cfe75cc494fc3cbf8f
366 ef2cd387e14eb5a7  25 f019ae4b2cf5bde9f4c97e68325b1cdd
367 2e0670933e0fcf9e  31 09b4969ebc8d871368bc287ab192c732
368 fef994179e881cd8  35 6bc8ed71c895bc1d4c81362d8fdd6275
369 e227ad0d20b17326  55 301d658e196baf10a398c94486f91182
370 35f104445b4ab279  19 e695cd3cbe0c6f9e2e4fb0f931c28877
371 0f4abe05bc0af9ba  20 b48fddf7bf21b4aea7005b66758c20fd
372 2fcdfe966dc6f0e9  30 9b5b44359b035c4bded29f31ea3bbe83
373 cddcabad02bdc630   8 4e01b7c29ee2fefb9fbf8e1d6dd9dc18
374 05df1685c9dae9a4  21 655f9dbb58e201e21a45f18018df08bc
375 e0c861c06d688dd7  28 25e672542288fa8fa7eb0fe77949aa1f
376 1dec3d88fe61af28  23 9653ed73a70f1273f227e434d677f83c
377 33773ae3b8cf5a9c  17 d757cc74fb52557c56e4e882e872d58d
378 f7a8cff145dd3fe5  46 2730d3325f83a2fa4c7fcaf435f30230
379 febf2484a4389025  21 920dc6ba6de224ed886b1af7686b1f12
380 e766a87a777dffcb  41 e0728a9ce5354a23a462103955fcbad5
381 1f0278222faf1716  50 0bbdc596fad6e53c236857ee9011e72f
382 e07db15871ba8e71  51 68bb09832417414aaf9a4e0ab48f3d86
383 0cff0090feb0837d  42 572336c5a3e695919c1eb4381345cfc1
384 0debf79e6b7a53a8  14 6fca2ad3319eeb621d225966527ffb8e
385 f65010858481ca64  44 18c2ec7410052057c8465366e4644481
386 181feca674d04692  25 19f31ed367a7efe0e7e9f5aefd9fea0c
387 cc56a65ebe10c338  34 9f9fee943858f7001785f0fb85b9a114
388 e392fe3f356ab534  18 eefdf51ef8e04338f2daffc402fbfa40
389 f007ca3533b4b329  56 73bb9a016c47973b956b2a24a7ad2ef9
390 3c5360d08a9599e1   8 c55085859c8e0b664933b96a42bbf5ee
391 1d0e70ac31f9c85a  19 6aa29f2e8948f639923a78c1e896c283
392 2282942dfe0e88bd  15 20670476779062bd5b6bc95ef6e21546
393 caa3309d75151ca3  51 0de61e14afc44b96f1f0b72fa37983aa
394 e5735b492b075223  15 23b866416991be21785253e77efc7ca6
395 13e6ee73c29bb025  50 19e4b0545bd79666fe71fe0a8351738a
396 df8b0a3c847a5ba3  17 e8f1f26513c68ebdc4b535012685606f
397 c92b67ad2bb58325  45 b0ae634c8dbe6680945ff824f79aa184
398 c86403746f7f93eb  31 ac9cc2c8244933cfad50a00cf82843b7
399 18eba78a4d2afcce  12 e6a2fba46a2fb8322ea6a18927d3f18f
|}

let sync_golden_tests =
  [
    Alcotest.test_case "random Sync programs" `Quick (fun () ->
        check Alcotest.string "rows unchanged" golden_sync_programs
          (String.concat "" (List.init 200 run_sync_program)));
    Alcotest.test_case "jittered and windowed Sync programs" `Quick (fun () ->
        check Alcotest.string "rows unchanged" golden_sync_windows
          (String.concat "" (List.init 200 (fun k -> run_sync_program (200 + k)))));
  ]

(* ---- Sleep order ---------------------------------------------------- *)

(* Where a sleep's wake falls against the queue, the window limit and a
   stop: the clock, the queue length, the state of fiber [name] and the
   events hash. *)
let snapshot e name =
  let v = Engine.view e in
  let state =
    match List.find_opt (fun fi -> fi.Engine.fi_name = name) v.Engine.v_fibers with
    | Some fi -> fi.Engine.fi_state
    | None -> "finished"
  in
  Printf.sprintf "now %d pending %d %s %s hash %016Lx" (Time.to_ns v.Engine.v_now)
    v.Engine.v_pending name state v.Engine.v_events_hash

let events_md5 e =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Event.For_tests.describe (Array.to_list (Engine.events e)))))

(* Two fibers sleeping 0 to 3 ms, with same-time and nearby wakes, on
   an observed engine under [policy]. *)
let two_sleepers policy =
  let e = Engine.create ~seed:9 ~policy () in
  let sleeper name naps =
    ignore
      (Engine.spawn e ~name (fun () ->
           List.iteri
             (fun j us ->
               Engine.sleep e (Time.us us);
               Engine.record e (Printf.sprintf "%s.%d" name j))
             naps))
  in
  sleeper "a" [ 1_000; 0; 500; 1_000; 2_000; 0; 3_000 ];
  sleeper "b" [ 500; 500; 1_000; 0; 1_500; 1_000; 1_000; 2_000 ];
  Engine.run e;
  Printf.sprintf "%s %s" (snapshot e "b") (events_md5 e)

let sleep_order_tests =
  let string = check Alcotest.string in
  [
    Alcotest.test_case "a sleep past the run_until limit stays queued" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"f" (fun () ->
               Engine.sleep e (Time.ms 1);
               Engine.sleep e (Time.ms 10);
               Engine.record e "woke"));
        Engine.run_until e (Time.ms 5);
        string "at the limit" "now 5000000 pending 1 f blocked:sleep hash f54829405ccd2ec6"
          (snapshot e "f");
        Engine.run e;
        string "after the run" "now 11000000 pending 0 f finished hash 28d15a0bf2f6469c"
          (snapshot e "f"));
    Alcotest.test_case "a sleep after stop stays queued" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"f" (fun () ->
               Engine.sleep e (Time.ms 1);
               Engine.stop e;
               Engine.sleep e (Time.ms 1);
               Engine.record e "woke"));
        Engine.run e;
        string "stopped" "now 1000000 pending 1 f blocked:sleep hash f54829405ccd2ec6"
          (snapshot e "f");
        Engine.run e;
        string "resumed" "now 2000000 pending 0 f finished hash f5ae1bbfc17e2d5c" (snapshot e "f"));
    Alcotest.test_case "a sleep waking at a queued task's time runs after it" `Quick
      (fun () ->
        let e = Engine.create () in
        let seen = ref "" in
        Engine.schedule_at e (Time.ms 2) (fun () ->
            Engine.record e "task";
            seen := snapshot e "f");
        ignore
          (Engine.spawn e ~name:"f" (fun () ->
               Engine.sleep e (Time.ms 1);
               Engine.sleep e (Time.ms 1);
               Engine.record e "woke"));
        Engine.run e;
        string "the task sees the sleeper queued"
          "now 2000000 pending 1 f blocked:sleep hash 0a4e7a403e7ee8af" !seen;
        string "after" "now 2000000 pending 0 f finished hash c7aac47fb027e1ff" (snapshot e "f"));
    Alcotest.test_case "a zero-length sleep beside a task due now stays queued" `Quick
      (fun () ->
        let e = Engine.create () in
        let seen = ref "" in
        ignore
          (Engine.spawn e ~name:"a" (fun () ->
               Engine.sleep e Time.zero;
               Engine.record e "a woke"));
        ignore (Engine.spawn e ~name:"b" (fun () -> seen := snapshot e "a"));
        Engine.run e;
        string "b runs first" "now 0 pending 1 a blocked:sleep hash 38506318b2300464" !seen;
        string "after" "now 0 pending 0 a finished hash c63649b030aa2a32" (snapshot e "a"));
    Alcotest.test_case "random and jittered sleepers beside a second fiber" `Quick
      (fun () ->
        string "random" "now 7500000 pending 0 b finished hash 3733708d673c26ac 5d3778842db75639ff7de87d16a68339" (two_sleepers (Engine.Random_order 5));
        string "jitter" "now 8967965 pending 0 b finished hash 3b02740d68e832bb 2a8b9db5d0482d3af244d220e15b6b6b"
          (two_sleepers (Engine.Delay_jitter { jitter_seed = 5; bound = Time.us 300 })));
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
      ("rng", rng_tests @ rng_golden_tests @ [ QCheck_alcotest.to_alcotest rng_property ]);
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
      ("sleep-order", sleep_order_tests);
    ]
