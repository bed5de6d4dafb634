(* Tests for lib/analysis: the static protocol linter, the
   happens-before race detector, and the structured event log they
   build on. *)

open Sim
module L = Analysis.Lint
module Pr = Analysis.Protocol
module C = Analysis.Catalog
module R = Analysis.Races
module S = Harness.Scenarios

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let codes fs = List.sort_uniq compare (List.map (fun f -> f.L.f_code) fs)
let rules fs = List.map (fun f -> f.R.r_rule) fs

(* The detector takes the engine's array log; the synthetic streams
   below are written as lists for readability. *)
let analyze evs = R.analyze (Array.of_list evs)

let proto ?(links = [ ("c.x", "s.x") ]) items =
  { Pr.p_name = "mini"; p_links = links; p_items = items }

let handler ?sg op =
  Pr.Entry
    { thread = "s"; endpoint = "s.x"; op = Some op; sg; mode = Pr.Handler }

let call ?(results = []) op args =
  Pr.Call { thread = "c"; endpoint = "c.x"; op; args; results }

(* ---- Linter ----------------------------------------------------------- *)

let lint_tests =
  let open Lynx.Ty in
  [
    Alcotest.test_case "every shipped protocol is clean" `Quick (fun () ->
        List.iter
          (fun (name, p) ->
            checki (name ^ " findings") 0 (List.length (L.check p)))
          C.all);
    Alcotest.test_case "catalog covers the explore registry" `Quick (fun () ->
        List.iter
          (fun name ->
            match C.find name with
            | None -> Alcotest.failf "scenario %s has no catalog protocol" name
            | Some p ->
              checks (name ^ " protocol name matches") name p.Pr.p_name;
              Pr.validate p)
          S.names);
    Alcotest.test_case "broken fixture reports all three defects" `Quick
      (fun () ->
        let fs = L.check C.broken in
        Alcotest.(check (list string))
          "distinct codes"
          [ "DLK01"; "LNK01"; "SIG02" ]
          (codes fs);
        (* Both ends of the untouched link leak. *)
        checki "finding count" 4 (List.length fs));
    Alcotest.test_case "SIG01: argument arity" `Quick (fun () ->
        let p =
          proto
            [ handler "op" ~sg:(signature [ Int; Int ]); call "op" [ Int ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG01" ] (codes (L.check p)));
    Alcotest.test_case "SIG02: argument type" `Quick (fun () ->
        let p =
          proto [ handler "op" ~sg:(signature [ Int ]); call "op" [ Str ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG02" ] (codes (L.check p)));
    Alcotest.test_case "SIG03: result type" `Quick (fun () ->
        let p =
          proto
            [
              handler "op" ~sg:(signature [] ~results:[ Str ]);
              call "op" [] ~results:[ Int ];
            ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG03" ] (codes (L.check p)));
    Alcotest.test_case "SIG04: link where non-link expected" `Quick (fun () ->
        let p =
          proto [ handler "op" ~sg:(signature [ Str ]); call "op" [ Link ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG04" ] (codes (L.check p)));
    Alcotest.test_case "SIG04: non-link where enclosure expected" `Quick
      (fun () ->
        let p =
          proto [ handler "op" ~sg:(signature [ Link ]); call "op" [ Int ] ]
        in
        Alcotest.(check (list string)) "codes" [ "SIG04" ] (codes (L.check p)));
    Alcotest.test_case "matching signature is clean" `Quick (fun () ->
        let p =
          proto
            [
              handler "op" ~sg:(signature [ Int; Link ] ~results:[ Str ]);
              call "op" [ Int; Link ] ~results:[ Str ];
            ]
        in
        checki "findings" 0 (List.length (L.check p)));
    Alcotest.test_case "ENT01: unreachable handler entry" `Quick (fun () ->
        let p = proto [ handler "never"; call "other" [] ] in
        Alcotest.(check (list string)) "codes" [ "ENT01" ] (codes (L.check p)));
    Alcotest.test_case "ENT01 exempts await entries" `Quick (fun () ->
        let p =
          proto
            [
              Pr.Entry
                {
                  thread = "s";
                  endpoint = "s.x";
                  op = None;
                  sg = None;
                  mode = Pr.Await;
                };
            ]
        in
        (* The call-less await is not unreachable; only LNK01 on the
           untouched client end remains out of the question because the
           await touches s.x and nothing touches c.x. *)
        Alcotest.(check (list string)) "codes" [ "LNK01" ] (codes (L.check p)));
    Alcotest.test_case "LNK01 suppressed by Retain" `Quick (fun () ->
        let p =
          proto
            ~links:[ ("c.x", "s.x"); ("k.a", "k.b") ]
            [
              handler "op";
              call "op" [];
              Pr.Retain { endpoint = "k.a"; why = "kept" };
              Pr.Retain { endpoint = "k.b"; why = "kept" };
            ]
        in
        checki "findings" 0 (List.length (L.check p)));
    Alcotest.test_case "DLK01: two-thread call-before-serve cycle" `Quick
      (fun () ->
        let p =
          proto
            ~links:[ ("t1.w1", "t2.w1"); ("t1.w2", "t2.w2") ]
            [
              Pr.Call
                { thread = "t1"; endpoint = "t1.w1"; op = "a"; args = [];
                  results = [] };
              Pr.Entry
                { thread = "t1"; endpoint = "t1.w2"; op = Some "b"; sg = None;
                  mode = Pr.Handler };
              Pr.Call
                { thread = "t2"; endpoint = "t2.w2"; op = "b"; args = [];
                  results = [] };
              Pr.Entry
                { thread = "t2"; endpoint = "t2.w1"; op = Some "a"; sg = None;
                  mode = Pr.Handler };
            ]
        in
        Alcotest.(check (list string)) "codes" [ "DLK01" ] (codes (L.check p)));
    Alcotest.test_case "DLK01: serve-before-call is clean" `Quick (fun () ->
        let p =
          proto
            ~links:[ ("t1.w1", "t2.w1"); ("t1.w2", "t2.w2") ]
            [
              Pr.Call
                { thread = "t1"; endpoint = "t1.w1"; op = "a"; args = [];
                  results = [] };
              Pr.Entry
                { thread = "t1"; endpoint = "t1.w2"; op = Some "b"; sg = None;
                  mode = Pr.Handler };
              Pr.Entry
                { thread = "t2"; endpoint = "t2.w1"; op = Some "a"; sg = None;
                  mode = Pr.Handler };
              Pr.Call
                { thread = "t2"; endpoint = "t2.w2"; op = "b"; args = [];
                  results = [] };
            ]
        in
        checki "findings" 0 (List.length (L.check p)));
  ]

(* ---- Protocol structural validation ----------------------------------- *)

let protocol_tests =
  [
    Alcotest.test_case "validate: endpoint on two links rejected" `Quick
      (fun () ->
        let p = proto ~links:[ ("c.x", "s.x"); ("c.x", "s.y") ] [] in
        Alcotest.check_raises "duplicate declaration"
          (Invalid_argument "Protocol mini: endpoint c.x declared twice")
          (fun () -> Pr.validate p));
    Alcotest.test_case "validate: undeclared endpoint in an item rejected"
      `Quick (fun () ->
        let p =
          proto
            [
              Pr.Call
                { thread = "c"; endpoint = "q.z"; op = "op"; args = [];
                  results = [] };
            ]
        in
        Alcotest.check_raises "undeclared use"
          (Invalid_argument "Protocol mini: item uses undeclared endpoint q.z")
          (fun () -> Pr.validate p));
    Alcotest.test_case "validate: undeclared move via rejected" `Quick
      (fun () ->
        let p = proto [ Pr.Move { endpoint = "c.x"; via = "ghost" } ] in
        Alcotest.check_raises "undeclared via"
          (Invalid_argument
             "Protocol mini: item uses undeclared endpoint ghost")
          (fun () -> Pr.validate p));
    Alcotest.test_case "peer: endpoint in zero links rejected" `Quick
      (fun () ->
        Alcotest.check_raises "unknown endpoint"
          (Invalid_argument "Protocol.peer: unknown endpoint nope") (fun () ->
            ignore (Pr.peer (proto []) "nope")));
    Alcotest.test_case "peer: endpoint in two links rejected" `Quick
      (fun () ->
        let p = proto ~links:[ ("c.x", "s.x"); ("c.x", "s.y") ] [] in
        Alcotest.check_raises "ambiguous endpoint"
          (Invalid_argument "Protocol.peer: endpoint c.x on several links")
          (fun () -> ignore (Pr.peer p "c.x")));
    Alcotest.test_case "validate: clean protocol accepted" `Quick (fun () ->
        Pr.validate (proto [ handler "op"; call "op" [] ]));
  ]

(* ---- Race detector: synthetic event streams --------------------------- *)

(* Hand-built streams with hand-built clocks: fiber [i]'s initial clock
   is {i -> 1}, so two events from different fibers that never merged
   are incomparable by construction. *)
let clock_of fid = Vclock.tick Vclock.empty fid

let ev ?(fid = 1) ?(clock = None) kind =
  {
    Event.ev_time = Time.zero;
    ev_fiber = fid;
    ev_clock = (match clock with Some c -> c | None -> clock_of fid);
    ev_kind = kind;
  }

let race_synth_tests =
  [
    Alcotest.test_case "R-MSG: concurrent sends into one queue" `Quick
      (fun () ->
        let events =
          [
            ev ~fid:1 (Event.Send { obj = "q"; op = "a"; mode = Event.Ordered });
            ev ~fid:2 (Event.Send { obj = "q"; op = "b"; mode = Event.Ordered });
          ]
        in
        (* Sanity: the clocks really are incomparable. *)
        checkb "concurrent" true (Vclock.concurrent (clock_of 1) (clock_of 2));
        Alcotest.(check (list string))
          "rules" [ "R-MSG" ]
          (rules (analyze events)));
    Alcotest.test_case "R-MSG: causally ordered sends are clean" `Quick
      (fun () ->
        let c1 = clock_of 1 in
        let c2 = Vclock.tick c1 2 in
        let events =
          [
            ev ~fid:1 ~clock:(Some c1) (Event.Send { obj = "q"; op = "a"; mode = Event.Ordered });
            ev ~fid:2 ~clock:(Some c2) (Event.Send { obj = "q"; op = "b"; mode = Event.Ordered });
          ]
        in
        checki "findings" 0 (List.length (analyze events)));
    Alcotest.test_case "R-SIG: queued signal vs unserved concurrent wait"
      `Quick (fun () ->
        let events =
          [
            ev ~fid:3 (Event.Wait { obj = "chry.dq1" });
            ev ~fid:1 (Event.Signal { obj = "chry.dq1"; woke = false });
          ]
        in
        Alcotest.(check (list string))
          "rules" [ "R-SIG" ]
          (rules (analyze events)));
    Alcotest.test_case "R-SIG: served wait is not a lost signal" `Quick
      (fun () ->
        (* The wait was handed a datum by a woke=true enqueue; the later
           queued signal is shutdown residue, concurrent or not. *)
        let events =
          [
            ev ~fid:3 (Event.Wait { obj = "chry.dq1" });
            ev ~fid:1 (Event.Signal { obj = "chry.dq1"; woke = true });
            ev ~fid:1
              ~clock:(Some (Vclock.tick (clock_of 1) 1))
              (Event.Signal { obj = "chry.dq1"; woke = false });
          ]
        in
        checki "findings" 0 (List.length (analyze events)));
    Alcotest.test_case "R-SIG: latched interrupt skipped by drain" `Quick
      (fun () ->
        let c1 = clock_of 1 in
        let events =
          [
            ev ~fid:1 ~clock:(Some c1)
              (Event.Signal { obj = "soda.int7"; woke = false });
            ev ~fid:2 (Event.Signal { obj = "soda.int7"; woke = false });
            ev ~fid:1
              ~clock:(Some (Vclock.tick c1 1))
              (Event.Signal_seen { obj = "soda.int7" });
          ]
        in
        (* FIFO: the one seen consumes fiber 1's latch; fiber 2's is
           unmatched and concurrent with the drain. *)
        Alcotest.(check (list string))
          "rules" [ "R-SIG" ]
          (rules (analyze events)));
    Alcotest.test_case "R-MOVE: transfer races an unreceived message" `Quick
      (fun () ->
        let events =
          [
            ev ~fid:1 (Event.Send { obj = "cha.L9.s0.req"; op = "ping"; mode = Event.Ordered });
            ev ~fid:2 (Event.Link_move { obj = "cha.L9.s0" });
          ]
        in
        Alcotest.(check (list string))
          "rules" [ "R-MOVE" ]
          (rules (analyze events)));
    Alcotest.test_case "R-MOVE: a received message is no race" `Quick
      (fun () ->
        let events =
          [
            ev ~fid:1 (Event.Send { obj = "cha.L9.s0.req"; op = "ping"; mode = Event.Ordered });
            ev ~fid:2 (Event.Link_move { obj = "cha.L9.s0" });
            ev ~fid:3 (Event.Receive { obj = "cha.L9.s0.req"; op = "ping" });
          ]
        in
        checki "findings" 0 (List.length (analyze events)));
    Alcotest.test_case "a send after a final one in flight raises one line"
      `Quick (fun () ->
        let send mode = Event.Send { obj = "q"; op = "a"; mode } in
        match
          analyze
            [
              ev ~fid:1 (send Event.Ordered);
              ev ~fid:1 ~clock:(Some (Vclock.tick (clock_of 1) 1))
                (send Event.Final);
              ev ~fid:2 (Event.Receive { obj = "q"; op = "a" });
              ev ~fid:1 ~clock:(Some (Vclock.tick (clock_of 1) 1))
                (send Event.Ordered);
            ]
        with
        | _ -> Alcotest.fail "no exception"
        | exception Invalid_argument msg ->
          Alcotest.(check string)
            "one line naming the send and the object"
            "Races.feed: send \"a\" to q after its final send" msg);
  ]

(* ---- Race detector: shipped scenarios stay clean ----------------------- *)

let races_clean_tests =
  List.map
    (fun (backend : Harness.Backend_world.backend) ->
      Alcotest.test_case
        (Printf.sprintf "shipped scenarios race-clean [%s]" backend.name)
        `Quick
        (fun () ->
          List.iter
            (fun sc ->
              List.iter
                (fun seed ->
                  match
                    Run.execute
                      (Run.Spec.v ~scenario:sc ~backend:backend.name seed)
                  with
                  | None -> ()
                  | Some a ->
                    checki
                      (Printf.sprintf "%s/%s/%d races" sc backend.name seed)
                      0
                      (List.length a.Run.Artifact.races))
                [ 1; 2; 3; 4; 5 ])
            S.names))
    Harness.Backend_world.all

(* ---- Race detector: the conclusion against a reference ------------- *)

(* The detector as it was before [findings] learned to skip objects with
   no sync state and before objects had lifetimes: the same incremental
   feed, keeping every object to the end of the stream (a [Final] send
   reads as an [Ordered] one), and a conclusion that sorts every object
   name and runs every rule over every object.  Kept as the reference
   the current conclusion must equal, list and order. *)
module Reference = struct
  type finding = R.finding = {
    r_rule : string;
    r_obj : string;
    r_detail : string;
  }

  type sends =
    | No_sends
    | Send of {
        s_idx : int;
        s_fid : int;
        s_op : string;
        s_clk : Vclock.t;
        s_unordered : bool;
        s_older : sends;
      }

  type sync = {
    mutable y_pairs : int;
    mutable y_first : (int * int * string * int * string) option;
    mutable y_sigs : (int * int * int * Vclock.t) Queue.t;
    mutable y_n_sigs : int;
    mutable y_n_seens : int;
    mutable y_seens : (int * Vclock.t) Queue.t;
    mutable y_waits : (int * int * Vclock.t) Queue.t;
    mutable y_n_waits : int;
    mutable y_n_wakes : int;
    mutable y_moves : (int * Vclock.t) list;
  }

  type obj_state = {
    mutable os_sends : sends;
    mutable os_n_sends : int;
    mutable os_n_recvs : int;
    mutable os_sync : sync;
  }

  type state = {
    mutable st_pos : int;
    st_tbl : (string, obj_state) Hashtbl.t;
  }

  let init () = { st_pos = 0; st_tbl = Hashtbl.create 64 }

  let no_sigs = Queue.create ()
  let no_seens = Queue.create ()
  let no_waits = Queue.create ()

  let fresh_sync () =
    {
      y_pairs = 0;
      y_first = None;
      y_sigs = no_sigs;
      y_n_sigs = 0;
      y_n_seens = 0;
      y_seens = no_seens;
      y_waits = no_waits;
      y_n_waits = 0;
      y_n_wakes = 0;
      y_moves = [];
    }

  let no_sync = fresh_sync ()

  let sync_of s =
    if s.os_sync == no_sync then s.os_sync <- fresh_sync ();
    s.os_sync

  let slot st obj =
    match Hashtbl.find_opt st.st_tbl obj with
    | Some s -> s
    | None ->
      let s =
        { os_sends = No_sends; os_n_sends = 0; os_n_recvs = 0; os_sync = no_sync }
      in
      Hashtbl.add st.st_tbl obj s;
      s

  let feed st (ev : Event.t) =
    let pos = st.st_pos in
    st.st_pos <- pos + 1;
    let fid = ev.Event.ev_fiber and clk = ev.Event.ev_clock in
    match ev.Event.ev_kind with
    | Event.Send { obj; op; mode } ->
      let s = slot st obj in
      let unordered = mode = Event.Unordered in
      let idx = s.os_n_sends in
      s.os_n_sends <- idx + 1;
      if (not unordered) && s.os_sends != No_sends then begin
        let pairs = ref 0 and min_i = ref (-1) and min_f = ref 0
        and min_op = ref "" in
        let rec scan = function
          | No_sends -> ()
          | Send { s_idx; s_fid; s_op; s_clk; s_unordered; s_older } ->
            if (not s_unordered) && Vclock.concurrent s_clk clk then begin
              incr pairs;
              if !min_i < 0 || s_idx < !min_i then begin
                min_i := s_idx;
                min_f := s_fid;
                min_op := s_op
              end
            end;
            scan s_older
        in
        scan s.os_sends;
        if !pairs > 0 then begin
          let y = sync_of s in
          y.y_pairs <- y.y_pairs + !pairs;
          match y.y_first with
          | Some (i0, _, _, _, _) when i0 <= !min_i -> ()
          | _ -> y.y_first <- Some (!min_i, !min_f, !min_op, fid, op)
        end
      end;
      s.os_sends <-
        Send
          {
            s_idx = idx;
            s_fid = fid;
            s_op = op;
            s_clk = clk;
            s_unordered = unordered;
            s_older = s.os_sends;
          }
    | Event.Receive { obj; _ } ->
      let s = slot st obj in
      s.os_n_recvs <- s.os_n_recvs + 1
    | Event.Signal { obj; woke = false } ->
      let y = sync_of (slot st obj) in
      let idx = y.y_n_sigs in
      y.y_n_sigs <- idx + 1;
      if idx >= y.y_n_seens then begin
        if y.y_sigs == no_sigs then y.y_sigs <- Queue.create ();
        Queue.add (idx, pos, fid, clk) y.y_sigs
      end
    | Event.Signal { obj; woke = true } ->
      let y = sync_of (slot st obj) in
      y.y_n_wakes <- y.y_n_wakes + 1;
      while
        (not (Queue.is_empty y.y_waits))
        &&
        let i, _, _ = Queue.peek y.y_waits in
        i < y.y_n_wakes
      do
        ignore (Queue.pop y.y_waits)
      done
    | Event.Signal_seen { obj } ->
      let y = sync_of (slot st obj) in
      y.y_n_seens <- y.y_n_seens + 1;
      while
        (not (Queue.is_empty y.y_sigs))
        &&
        let i, _, _, _ = Queue.peek y.y_sigs in
        i < y.y_n_seens
      do
        ignore (Queue.pop y.y_sigs)
      done;
      if not (Queue.is_empty y.y_sigs) then begin
        if y.y_seens == no_seens then y.y_seens <- Queue.create ();
        Queue.add (pos, clk) y.y_seens
      end
    | Event.Wait { obj } ->
      let y = sync_of (slot st obj) in
      let idx = y.y_n_waits in
      y.y_n_waits <- idx + 1;
      if idx >= y.y_n_wakes then begin
        if y.y_waits == no_waits then y.y_waits <- Queue.create ();
        Queue.add (idx, fid, clk) y.y_waits
      end
    | Event.Link_move { obj } ->
      let y = sync_of (slot st obj) in
      y.y_moves <- (fid, clk) :: y.y_moves
    | Event.Spawn _ | Event.Crash _ | Event.Note _ | Event.Block _
    | Event.Drop _ | Event.Fault _ ->
      ()

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

  let queue_to_list q = List.rev (Queue.fold (fun acc x -> x :: acc) [] q)

  let message_races tbl objs =
    List.filter_map
      (fun obj ->
        let y = (Hashtbl.find tbl obj).os_sync in
        match y.y_first with
        | None -> None
        | Some (_, fi, opi, fj, opj) ->
          Some
            {
              r_rule = "R-MSG";
              r_obj = obj;
              r_detail =
                Printf.sprintf
                  "sends %S (fiber #%d) and %S (fiber #%d) are concurrent: \
                   arrival order is a scheduler accident (%d pair%s)"
                  opi fi opj fj y.y_pairs
                  (if y.y_pairs = 1 then "" else "s");
            })
      (Array.to_list objs)

  let signal_races tbl objs =
    List.filter_map
      (fun obj ->
        let y = (Hashtbl.find tbl obj).os_sync in
        let sigs = queue_to_list y.y_sigs in
        let blocked_miss =
          let waits = queue_to_list y.y_waits in
          List.find_map
            (fun (_, _, sfid, sclk) ->
              List.find_map
                (fun (_, wfid, wclk) ->
                  if Vclock.concurrent sclk wclk then Some (sfid, wfid)
                  else None)
                waits)
            sigs
        in
        let latched_miss =
          if y.y_n_waits > 0 then None
          else
            let seens = queue_to_list y.y_seens in
            List.find_map
              (fun (_, spos, sfid, sclk) ->
                List.find_map
                  (fun (npos, nclk) ->
                    if npos > spos && Vclock.concurrent sclk nclk then Some sfid
                    else None)
                  seens)
              sigs
        in
        match (blocked_miss, latched_miss) with
        | Some (sfid, wfid), _ ->
          Some
            {
              r_rule = "R-SIG";
              r_obj = obj;
              r_detail =
                Printf.sprintf
                  "signal queued by fiber #%d was never consumed while fiber \
                   #%d blocked concurrently and was never woken: lost-signal \
                   window"
                  sfid wfid;
            }
        | None, Some sfid ->
          Some
            {
              r_rule = "R-SIG";
              r_obj = obj;
              r_detail =
                Printf.sprintf
                  "signal latched by fiber #%d was skipped by a concurrent \
                   drain and never seen: lost interrupt"
                  sfid;
            }
        | None, None -> None)
      (Array.to_list objs)

  let oldest_first sends =
    let rec go acc = function
      | No_sends -> acc
      | Send { s_idx; s_fid; s_op; s_clk; s_older; _ } ->
        go ((s_idx, s_fid, s_op, s_clk) :: acc) s_older
    in
    go [] sends

  let move_races tbl objs =
    List.filter_map
      (fun mobj ->
        let ms = Hashtbl.find tbl mobj in
        match ms.os_sync.y_moves with
        | [] -> None
        | rev_moves -> (
          let moves = List.rev rev_moves in
          let prefix = mobj ^ "." in
          let start = lower_bound objs prefix in
          let n = Array.length objs in
          let rec scan_queues i =
            if i >= n || not (starts_with ~prefix objs.(i)) then None
            else
              let qobj = objs.(i) in
              let qs = Hashtbl.find tbl qobj in
              let rec scan_sends = function
                | [] -> None
                | (si, sfid, op, sclk) :: rest ->
                  if si < qs.os_n_recvs then scan_sends rest
                  else (
                    match
                      List.find_map
                        (fun (mfid, mclk) ->
                          if Vclock.concurrent sclk mclk then Some mfid
                          else None)
                        moves
                    with
                    | Some mfid -> Some (qobj, op, sfid, mfid)
                    | None -> scan_sends rest)
              in
              (match scan_sends (oldest_first qs.os_sends) with
              | Some _ as hit -> hit
              | None -> scan_queues (i + 1))
          in
          match scan_queues start with
          | None -> None
          | Some (qobj, op, sfid, mfid) ->
            Some
              {
                r_rule = "R-MOVE";
                r_obj = mobj;
                r_detail =
                  Printf.sprintf
                    "link-end transfer (fiber #%d) races in-flight %S from \
                     fiber #%d on %s: the message was never received"
                    mfid op sfid qobj;
              }))
      (Array.to_list objs)

  let findings st =
    let objs = sorted_objs st.st_tbl in
    message_races st.st_tbl objs
    @ signal_races st.st_tbl objs
    @ move_races st.st_tbl objs

  let analyze events =
    let st = init () in
    Array.iter (feed st) events;
    findings st
end

(* Random streams over prefix-related names: ["e1"] is a moved end whose
   queues are ["e1.req"] and ["e1.rep"], and ["e10"] shares its first two
   characters without being one of them.  Several fibers whose clocks
   occasionally merge give every rule both ordered and concurrent
   pairs, and most queues see only sends and receives, so they never
   get sync state of their own.  Some sends are [Final], and the
   streams keep that promise: a send drawn for an object whose [Final]
   send is in becomes a receive, so retired objects drain, are dropped,
   and may then see receives, signals, waits and moves. *)
let oracle_objs = [| "e1"; "e1.req"; "e1.rep"; "e10"; "e10.req"; "e2"; "e2.req" |]

let oracle_events (nfibers, steps) =
  let clocks = Array.init nfibers clock_of in
  let finalized = Hashtbl.create 8 in
  Array.of_list
    (List.map
       (fun (f, o, k) ->
         if k mod 5 = 0 then
           clocks.(f) <- Vclock.merge clocks.(f) clocks.((f + 1) mod nfibers);
         clocks.(f) <- Vclock.tick clocks.(f) f;
         let obj = oracle_objs.(o) in
         let kind =
           match k mod 9 with
           | (0 | 1) when Hashtbl.mem finalized obj ->
             Event.Receive { obj; op = "op" }
           | 0 | 1 ->
             let mode =
               if k mod 7 = 0 then Event.Unordered
               else if k mod 4 = 3 then Event.Final
               else Event.Ordered
             in
             if mode = Event.Final then Hashtbl.replace finalized obj ();
             Event.Send { obj; op = "op" ^ string_of_int (k mod 2); mode }
           | 2 -> Event.Receive { obj; op = "op" }
           | 3 -> Event.Signal { obj; woke = false }
           | 4 -> Event.Signal { obj; woke = true }
           | 5 -> Event.Signal_seen { obj }
           | 6 -> Event.Wait { obj }
           | _ -> Event.Link_move { obj }
         in
         ev ~fid:f ~clock:(Some clocks.(f)) kind)
       steps)

let oracle_arb =
  let open QCheck in
  let gen =
    Gen.(
      int_range 2 4 >>= fun nfibers ->
      int_range 1 80 >>= fun n ->
      list_repeat n
        (triple (int_bound (nfibers - 1))
           (int_bound (Array.length oracle_objs - 1))
           (int_bound 62))
      >|= fun steps -> (nfibers, steps))
  in
  make
    ~print:(fun s ->
      String.concat "\n"
        (Array.to_list (Array.map Event.For_tests.describe (oracle_events s))))
    gen

let render (f : R.finding) =
  Printf.sprintf "%s %s: %s" f.R.r_rule f.R.r_obj f.R.r_detail

let prop_conclusion_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"findings equal the every-object reference, list and order"
    oracle_arb
    (fun s ->
      let events = oracle_events s in
      List.map render (R.analyze events)
      = List.map render (Reference.analyze events))

(* ---- Structured trace: spawn records and hashing ---------------------- *)

let event_log_tests =
  List.map
    (fun (backend : Harness.Backend_world.backend) ->
      Alcotest.test_case
        (Printf.sprintf "spawn events match the fiber table [%s]" backend.name)
        `Quick
        (fun () ->
          let o = S.simultaneous_move { S.default with seed = 7 } backend in
          let v = o.S.o_view in
          checki "no dropped events" 0 v.Engine.v_events_dropped;
          let spawns =
            Array.to_list v.Engine.v_events
            |> List.filter_map (fun e ->
                   match e.Event.ev_kind with
                   | Event.Spawn { fid; name } -> Some (fid, name)
                   | _ -> None)
          in
          checki "one spawn per fiber"
            (List.length v.Engine.v_fibers + v.Engine.v_finished)
            (List.length spawns);
          checkb "unfinished fibers in spawn order" true
            (List.filter
               (fun s ->
                 List.exists
                   (fun f -> (f.Engine.fi_id, f.Engine.fi_name) = s)
                   v.Engine.v_fibers)
               spawns
            = List.map
                (fun f -> (f.Engine.fi_id, f.Engine.fi_name))
                v.Engine.v_fibers)))
    Harness.Backend_world.all
  @ [
      Alcotest.test_case "same seed, same events hash" `Quick (fun () ->
          let run () =
            (S.simultaneous_move { S.default with seed = 11 }
               Harness.Backend_world.charlotte)
              .S.o_view
              .Engine.v_events_hash
          in
          checkb "deterministic" true (run () = run ()));
    ]

let () =
  Alcotest.run "analysis"
    [
      ("lint", lint_tests);
      ("protocol", protocol_tests);
      ("races-synthetic", race_synth_tests);
      ( "races-conclusion",
        [ QCheck_alcotest.to_alcotest prop_conclusion_matches_reference ] );
      ("races-clean", races_clean_tests);
      ("event-log", event_log_tests);
    ]
