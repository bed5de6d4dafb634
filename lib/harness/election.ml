(** Ring leader election written in LYNX — Chang–Roberts over a ring of
    four candidates with chord shortcuts, plus a monitor that detects
    leader failure through screening timeouts and kicks re-election.
    See the .mli for the protocol story. *)

open Sim
module P = Lynx.Process

let n_cand = 4

(* Budget after the last fault window closes.  Charlotte kernel messages
   cost 26 ms of virtual time each and the ring serialises them, so the
   worst case — the held kick replaying at heal and starting a stale
   wave that the live wave must out-run, lattice-style — is two
   interleaved four-hop waves plus coordination plus the monitor's
   confirming ping, comfortably over a virtual second. *)
let deadline = Time.ms 1500

(* Between monitor probes; also the granularity of failure detection. *)
let poll_period = Time.ms 5

(* Polling rounds without any known leader before the monitor kicks a
   fresh election (covers waves that died to message loss). *)
let patience_rounds = 12

let ivalue v = Lynx.Value.Int v

(* Relay-mailbox jobs, chained through ivars (the wrapper breaks the
   recursive ivar type). *)
type job = Elect of int * int | Coord of int * int
type cell = Cell of job * cell Sync.Ivar.t

module Key = struct
  let elections_started = Stats.key "recovery.elections_started"
  let elections_won = Stats.key "recovery.elections_won"
  let failovers = Stats.key "recovery.failovers"
  let kicks = Stats.key "recovery.kicks"
  let recovered_at_us = Stats.key "recovery.recovered_at_us"
  let suspicions = Stats.key "recovery.suspicions"
end

let run ctx backend =
  (* Candidates on nodes 0..3, monitor on node 4: the high3 partition
     cut then splits the candidates 3-vs-1 and the high4 cut isolates
     the monitor from the whole ring. *)
  Stage.stage ctx backend ~nodes:6 @@ fun eng w ->
  let sts = Lynx.World.stats w in
  let wc =
    match ctx.Stage.plan with
    | Some plan -> Faults.Plan.window_close (Faults.Plan.validate plan)
    | None -> Time.zero
  in
  let give_up = Time.add wc deadline in
  (* cend.(i).(j): candidate i's end of its link to candidate j. *)
  let cend =
    Array.init n_cand (fun _ ->
        Array.init n_cand (fun _ -> Sync.Ivar.create eng))
  in
  (* mon_end.(i): monitor's end of its link to candidate i; cmon.(i) the
     candidate's end of the same link. *)
  let mon_end = Array.init n_cand (fun _ -> Sync.Ivar.create eng) in
  let cmon = Array.init n_cand (fun _ -> Sync.Ivar.create eng) in
  let go = Array.init (n_cand + 1) (fun _ -> Sync.Ivar.create eng) in
  let ok = ref false in
  let detail = ref "monitor did not finish" in
  let cands =
    Array.init n_cand (fun i ->
        (* The highest-id candidate is registered as "leader": the
           leader-crash plan targets it by name, and Chang–Roberts
           elects it first, so the crash hits the incumbent. *)
        let pname = if i = n_cand - 1 then "leader" else Printf.sprintf "n%d" i in
        Lynx.World.spawn w ~daemon:true ~node:i ~name:pname (fun p ->
            Sync.Ivar.read go.(i);
            let succ1 = Sync.Ivar.read cend.(i).((i + 1) mod n_cand) in
            let succ2 = Sync.Ivar.read cend.(i).((i + 2) mod n_cand) in
            let pred = Sync.Ivar.read cend.(i).((i + 3) mod n_cand) in
            let mend = Sync.Ivar.read cmon.(i) in
            (* Lattice state: the highest (epoch, candidate) candidacy
               seen and the highest (epoch, leader) coordination.
               Accepting only lattice-increasing messages makes held
               (crash/partition) replays harmless: stale waves die on
               arrival, and coordination converges ring-wide to the
               maximum even when two waves race. *)
            let ep = ref 0 and cand = ref (-1) in
            let ldr_ep = ref 0 and ldr = ref (-1) in
            (* All forwarding happens in one relay thread consuming an
               ivar-chained mailbox, so every outbound send of this
               process is program-ordered — two concurrent sends on one
               end are structurally impossible (the static S-MSG model
               of the protocol relies on exactly this). *)
            let tail = ref (Sync.Ivar.create eng) in
            let head = !tail in
            let push job =
              let next = Sync.Ivar.create eng in
              Sync.Ivar.fill !tail (Cell (job, next));
              tail := next
            in
            let try_forward op a b =
              (* Successor first, chord on failure: one dead node never
                 stops a wave. *)
              let rec attempt = function
                | [] -> ()
                | l :: rest -> (
                  match P.call p l ~op [ ivalue a; ivalue b ] with
                  | _ -> ()
                  | exception e when Lynx.Excn.is_lynx e -> attempt rest)
              in
              attempt [ succ1; succ2 ]
            in
            P.spawn_thread p ~tname:"relay" (fun () ->
                let rec loop cell =
                  let (Cell (job, next)) = Sync.Ivar.read cell in
                  (match job with
                  | Elect (e, c) ->
                    (* Skip if superseded or already coordinated. *)
                    if e = !ep && c = !cand && !ldr_ep < e then
                      try_forward "elect" e c
                  | Coord (e, l) ->
                    if e = !ldr_ep && l = !ldr then try_forward "coord" e l);
                  loop next
                in
                loop head);
            let adopt_leader e l =
              ldr_ep := e;
              ldr := l;
              if e > !ep then begin
                ep := e;
                cand := l
              end
              else cand := max !cand l
            in
            let on_elect e c =
              if e < !ep || (e = !ep && c < !cand) then "stale"
              else begin
                if e > !ep then begin
                  ep := e;
                  cand := -1
                end;
                if c = i then begin
                  (* Our own candidacy came home: we lead epoch e. *)
                  cand := max !cand c;
                  if e > !ldr_ep || (e = !ldr_ep && i > !ldr) then begin
                    adopt_leader e i;
                    Stats.incr sts Key.elections_won;
                    push (Coord (e, i))
                  end;
                  "won"
                end
                else begin
                  let c' = max c i in
                  if c' > !cand then begin
                    cand := c';
                    push (Elect (e, c'))
                  end;
                  "ok"
                end
              end
            in
            let on_coord e l =
              if e < !ldr_ep || (e = !ldr_ep && l < !ldr) then "stale"
              else if e > !ldr_ep || l > !ldr then begin
                adopt_leader e l;
                if l <> i then push (Coord (e, l));
                "ok"
              end
              else "ok" (* duplicate of the current coordination *)
            in
            let on_start e =
              if e <= !ep then "stale"
              else begin
                ep := e;
                cand := i;
                Stats.incr sts Key.elections_started;
                push (Elect (e, i));
                "ok"
              end
            in
            let two f = function
              | [ Lynx.Value.Int a; Lynx.Value.Int b ] ->
                [ Lynx.Value.Str (f a b) ]
              | _ -> [ Lynx.Value.Str "bad" ]
            in
            List.iter
              (fun l ->
                P.serve p l ~op:"elect" (two on_elect);
                P.serve p l ~op:"coord" (two on_coord))
              [ succ1; succ2; pred ];
            P.serve p mend ~op:"start" (function
              | [ Lynx.Value.Int e ] -> [ Lynx.Value.Str (on_start e) ]
              | _ -> [ Lynx.Value.Str "bad" ]);
            P.serve p mend ~op:"ping" (fun _ -> [ ivalue !ldr ]);
            P.park p))
  in
  let monitor =
    Lynx.World.spawn w ~node:n_cand ~name:"monitor" (fun p ->
        Sync.Ivar.read go.(n_cand);
        let ends = Array.init n_cand (fun j -> Sync.Ivar.read mon_end.(j)) in
        let epoch = ref 0 in
        let believed = ref (-1) in
        let healthy = ref (-1) in
        let recovered = ref false in
        let patience = ref patience_rounds in
        (* Kick the highest-numbered candidate that answers; each
           attempt is a fresh epoch so stale-wave arithmetic never
           revives a dead one. *)
        let kick () =
          Stats.incr sts Key.kicks;
          let rec attempt k =
            if k >= 0 then begin
              incr epoch;
              match P.call p ends.(k) ~op:"start" [ ivalue !epoch ] with
              | _ -> ()
              | exception e when Lynx.Excn.is_lynx e -> attempt (k - 1)
            end
          in
          attempt (n_cand - 1);
          patience := patience_rounds
        in
        kick ();
        let rec loop () =
          (if !believed >= 0 then begin
             let t = !believed in
             match P.call p ends.(t) ~op:"ping" [] with
             | [ Lynx.Value.Int l ] when l = t ->
               (* t believes it leads itself: the ring is healthy. *)
               if !healthy <> t then begin
                 if !healthy >= 0 then Stats.incr sts Key.failovers;
                 healthy := t
               end;
               let now = Engine.now eng in
               if Time.(now >= wc) then begin
                 recovered := true;
                 Stats.incr sts ~by:(Time.to_ns now / 1000)
                   Key.recovered_at_us
               end
             | [ Lynx.Value.Int l ] when l >= 0 && l < n_cand && l <> t ->
               believed := l (* referral: follow t's belief *)
             | _ -> believed := -1
             | exception e when Lynx.Excn.is_lynx e ->
               (* Screening timed out on the believed leader: suspect a
                  crash and force a re-election. *)
               Stats.incr sts Key.suspicions;
               believed := -1;
               kick ()
           end
           else begin
             (* No belief: poll the ring for anyone who knows a leader. *)
             let rec poll k =
               if k < n_cand && !believed < 0 then begin
                 (match P.call p ends.(k) ~op:"ping" [] with
                 | [ Lynx.Value.Int l ] when l >= 0 && l < n_cand ->
                   believed := l
                 | _ -> ()
                 | exception e when Lynx.Excn.is_lynx e -> ());
                 poll (k + 1)
               end
             in
             poll 0;
             if !believed < 0 then begin
               decr patience;
               if !patience <= 0 then kick ()
             end
           end);
          if (not !recovered) && Time.(Engine.now eng <= give_up) then begin
            P.sleep p poll_period;
            loop ()
          end
        in
        loop ();
        ok := !recovered;
        detail :=
          Printf.sprintf "leader=%d epoch=%d recovered=%b wc=%s" !healthy
            !epoch !recovered (Time.to_string wc))
  in
  {
    Stage.links =
      (fun () ->
        for i = 0 to n_cand - 1 do
          for j = i + 1 to n_cand - 1 do
            let ei, ej = Lynx.World.link_between w cands.(i) cands.(j) in
            Sync.Ivar.fill cend.(i).(j) ei;
            Sync.Ivar.fill cend.(j).(i) ej
          done
        done;
        for i = 0 to n_cand - 1 do
          let em, ec = Lynx.World.link_between w monitor cands.(i) in
          Sync.Ivar.fill mon_end.(i) em;
          Sync.Ivar.fill cmon.(i) ec
        done;
        Array.iter (fun g -> Sync.Ivar.fill g ()) go);
    verdict = (fun () -> (!ok, !detail));
  }
