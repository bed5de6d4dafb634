(** Majority-quorum replicated counter written in LYNX.  See the .mli
    for the protocol story. *)

open Sim
module P = Lynx.Process

let n_replicas = 5
let majority = 3

(* Budget after the last fault window closes.  A single write round is
   five sequential screened calls — ~700 virtual ms on Charlotte when
   they all time out — so the budget must fit two such rounds. *)
let deadline = Time.ms 1200

(* Between write rounds. *)
let tick = Time.ms 8

let ivalue v = Lynx.Value.Int v

module Key = struct
  let commits = Stats.key "recovery.commits"
  let degraded_commits = Stats.key "recovery.degraded_commits"
  let quorum_failures = Stats.key "recovery.quorum_failures"
  let reads_unavailable = Stats.key "recovery.reads_unavailable"
  let recovered_at_us = Stats.key "recovery.recovered_at_us"
  let unsafe = Stats.key "recovery.unsafe"
end

let run ctx backend =
  (* Writer on node 0, replicas on nodes 1..5: the high4 partition cut
     then isolates a 2-of-5 minority (r4, r5) and the high3 cut a
     3-of-5 majority (r3, r4, r5). *)
  Stage.stage ctx backend ~nodes:6 @@ fun eng w ->
  let sts = Lynx.World.stats w in
  let wc =
    match ctx.Stage.plan with
    | Some plan -> Faults.Plan.window_close (Faults.Plan.validate plan)
    | None -> Time.zero
  in
  let give_up = Time.add wc deadline in
  let repl_end = Array.init n_replicas (fun _ -> Sync.Ivar.create eng) in
  let writer_end = Array.init n_replicas (fun _ -> Sync.Ivar.create eng) in
  let ok = ref false in
  let detail = ref "writer did not finish" in
  let replicas =
    Array.init n_replicas (fun k ->
        Lynx.World.spawn w ~daemon:true ~node:(k + 1)
          ~name:(Printf.sprintf "r%d" (k + 1))
          (fun p ->
            let l = Sync.Ivar.read repl_end.(k) in
            (* Last-writer-wins by sequence number: replays and
               duplicates of old writes are harmless. *)
            let seq = ref 0 and value = ref 0 in
            P.serve p l ~op:"write" (function
              | [ Lynx.Value.Int s; Lynx.Value.Int v ] ->
                if s > !seq then begin
                  seq := s;
                  value := v
                end;
                [ ivalue 1 ]
              | _ -> [ ivalue 0 ]);
            P.serve p l ~op:"read" (fun _ -> [ ivalue !seq; ivalue !value ]);
            P.park p))
  in
  let writer =
    Lynx.World.spawn w ~node:0 ~name:"writer" (fun p ->
        let ends =
          Array.to_list (Array.map Sync.Ivar.read writer_end)
        in
        let committed = ref 0 in
        let round = ref 0 in
        let recovered = ref false in
        let unsafe = ref 0 in
        (* One write round: offer seq to every replica; commit iff a
           majority acks.  Screening timeouts on cut or crashed
           replicas just cost acks — degraded, never blocked. *)
        let write_round () =
          incr round;
          let s = !round in
          let acks =
            List.fold_left
              (fun n l ->
                match P.call p l ~op:"write" [ ivalue s; ivalue (100 + s) ] with
                | [ Lynx.Value.Int 1 ] -> n + 1
                | _ -> n
                | exception e when Lynx.Excn.is_lynx e -> n)
              0 ends
          in
          if acks >= majority then begin
            committed := s;
            Stats.incr sts Key.commits;
            if acks < n_replicas then
              Stats.incr sts Key.degraded_commits
          end
          else Stats.incr sts Key.quorum_failures;
          acks
        in
        (* Majority read: any quorum must see a sequence number at
           least as new as the last commit (quorum intersection); a
           minority is "unavailable", never silently stale. *)
        let read_check () =
          let got = ref 0 and best = ref 0 in
          List.iter
            (fun l ->
              if !got < majority then
                match P.call p l ~op:"read" [] with
                | [ Lynx.Value.Int s; Lynx.Value.Int _ ] ->
                  incr got;
                  if s > !best then best := s
                | _ -> ()
                | exception e when Lynx.Excn.is_lynx e -> ())
            ends;
          if !got >= majority then begin
            if !best < !committed then begin
              incr unsafe;
              Stats.incr sts Key.unsafe
            end
          end
          else Stats.incr sts Key.reads_unavailable
        in
        let rec loop () =
          let acks = write_round () in
          (* Reconverged: every replica acked a write after the fault
             window closed — and the run never went unsafe.  A stale
             majority read is a safety breach, so it forfeits the
             recovery stamp: the liveness judge then reports the case
             as Missed instead of crediting a recovery that lied. *)
          let now = Engine.now eng in
          if acks = n_replicas && !unsafe = 0 && Time.(now >= wc)
             && not !recovered
          then begin
            recovered := true;
            Stats.incr sts ~by:(Time.to_ns now / 1000)
              Key.recovered_at_us
          end;
          read_check ();
          if (not !recovered) && Time.(Engine.now eng <= give_up) then begin
            P.sleep p tick;
            loop ()
          end
        in
        loop ();
        ok := !recovered && !unsafe = 0;
        detail :=
          Printf.sprintf "rounds=%d committed=%d unsafe=%d recovered=%b wc=%s"
            !round !committed !unsafe !recovered (Time.to_string wc))
  in
  {
    Stage.links =
      (fun () ->
        for k = 0 to n_replicas - 1 do
          let we, re = Lynx.World.link_between w writer replicas.(k) in
          Sync.Ivar.fill writer_end.(k) we;
          Sync.Ivar.fill repl_end.(k) re
        done);
    verdict = (fun () -> (!ok, !detail));
  }
