(* Static may-race and may-deadlock prediction over a protocol graph.

   Each rule mirrors one detector the repo already runs dynamically —
   R-MSG/R-SIG/R-MOVE over executed traces, DLK01 over the must
   wait-for graph — but fires on {!Mhp} pairs instead of observed
   events, so its prediction set over-approximates anything a schedule,
   seed, backend or fault plan can make the dynamic side report.  That
   containment (dynamic ⊆ static) is checked continuously by
   {!Run.Soundness} across the sweeps.

   Every rule produces *predictions*; a prediction is additionally an
   *alarm* when the static view alone already shows a defect (the
   lint-like reading).  The distinction matters because clean protocols
   legitimately have concurrency — a serve racing an unrelated send is
   the paper's normal operating mode, not a bug — so alarms gate exit
   codes and CI while the full prediction set feeds the soundness and
   coverage reports. *)

type rule = S_msg | S_sig | S_move | S_dlk

let rule_name = function
  | S_msg -> "S-MSG"
  | S_sig -> "S-SIG"
  | S_move -> "S-MOVE"
  | S_dlk -> "S-DLK"

let rule_of_race = function
  | "R-MSG" -> Some S_msg
  | "R-SIG" -> Some S_sig
  | "R-MOVE" -> Some S_move
  | _ -> None

type prediction = {
  p_rule : rule;
  p_protocol : string;
  p_subject : string;
  p_pair : string * string;
  p_alarm : bool;
  p_detail : string;
}

let pp_prediction ppf p =
  Fmt.pf ppf "%s%s %s: %s ~ %s — %s (%s)" (rule_name p.p_rule)
    (if p.p_alarm then "!" else "")
    p.p_subject (fst p.p_pair) (snd p.p_pair) p.p_detail p.p_protocol

let call_label (c : Mhp.call) =
  Printf.sprintf "%s.%s#%d" c.Mhp.c_thread c.Mhp.c_op c.Mhp.c_pos

let entry_label (e : Mhp.entry) =
  Printf.sprintf "%s.%s#%d" e.Mhp.e_thread
    (Option.value ~default:"*" e.Mhp.e_op)
    e.Mhp.e_pos

let move_label (m : Mhp.move) =
  Printf.sprintf "move(%s via %s)" m.Mhp.m_endpoint m.Mhp.m_via

let predict p =
  let m = Mhp.of_protocol p in
  let name = p.Protocol.p_name in
  let calls = Mhp.calls m in
  let entries = Mhp.entries m in
  let moves = Mhp.moves m in
  let out = ref [] in
  let add r subject pair alarm detail =
    out :=
      {
        p_rule = r;
        p_protocol = name;
        p_subject = subject;
        p_pair = pair;
        p_alarm = alarm;
        p_detail = detail;
      }
      :: !out
  in
  (* S-MSG: two sends on one link end neither of which must precede the
     other.  Always an alarm: whichever arrives second sees state the
     first left behind, the situation R-MSG reports dynamically. *)
  Array.iteri
    (fun i (ci : Mhp.call) ->
      Array.iteri
        (fun j (cj : Mhp.call) ->
          if i < j && ci.c_endpoint = cj.c_endpoint
             && Mhp.concurrent_sends m ci cj
          then
            add S_msg ci.c_endpoint
              (call_label ci, call_label cj)
              true "concurrent sends on one link end: arrival order is a race")
        calls)
    calls;
  (* S-SIG: receive contexts that may race on a link.  An alarm only
     when two entries on the *same* end disagree about operation,
     signature or mode — then which context wins the race decides
     whether the dynamic type check passes, R-SIG's situation.  Entry
     pairs across the two ends and entry-vs-send pairs are predictions
     only: racing contexts are how the paper's servers normally run. *)
  let same_link a b = a = b || Protocol.peer p a = b in
  Array.iteri
    (fun k (ek : Mhp.entry) ->
      Array.iteri
        (fun l (el : Mhp.entry) ->
          if k < l && same_link ek.e_endpoint el.e_endpoint
             && Mhp.concurrent_serves m ek el
          then
            let differs =
              ek.e_endpoint = el.e_endpoint
              && (ek.e_op <> el.e_op || ek.e_sg <> el.e_sg
                || ek.e_mode <> el.e_mode)
            in
            add S_sig ek.e_endpoint
              (entry_label ek, entry_label el)
              differs
              (if differs then
                 "racing receive contexts on one end disagree on \
                  operation/signature/mode: dynamic check outcome depends on \
                  the winner"
               else "receive contexts on the link may race"))
        entries)
    entries;
  Array.iter
    (fun (e : Mhp.entry) ->
      Array.iter
        (fun (c : Mhp.call) ->
          if same_link e.e_endpoint c.c_endpoint
             && Mhp.concurrent_serve_send m e c
          then
            add S_sig e.e_endpoint
              (entry_label e, call_label c)
              false "a receive context may race a send on the link")
        calls)
    entries;
  (* S-MOVE: a use of a link concurrent with a move of one of its ends.
     An alarm when the use is a send *toward* the moving end and no
     entry there could ever serve it — the message chases an end that
     may already be in flight, R-MOVE's situation; other concurrent
     uses are predictions (the paper's hint machinery exists precisely
     to make them safe). *)
  Array.iter
    (fun (mv : Mhp.move) ->
      let peer_ep = Protocol.peer p mv.m_endpoint in
      Array.iter
        (fun (c : Mhp.call) ->
          if (c.c_endpoint = mv.m_endpoint || c.c_endpoint = peer_ep)
             && Mhp.concurrent_move_send m mv c
          then
            let toward = c.c_endpoint = peer_ep in
            let served =
              Array.exists
                (fun (e : Mhp.entry) ->
                  e.e_endpoint = mv.m_endpoint
                  && (e.e_op = None || e.e_op = Some c.c_op))
                entries
            in
            let alarm = toward && not served in
            add S_move mv.m_endpoint
              (move_label mv, call_label c)
              alarm
              (if alarm then
                 "send toward an end that may be mid-move, with no entry ever \
                  posted there: the message chases a moved end"
               else "link use may race the enclosure move"))
        calls)
    moves;
  (* S-DLK: cycles in the May wait-for graph — DLK01 widened to
     schedules where the alternative servers a Must analysis counts on
     are crashed, busy with someone else, or starved by a fault plan.
     Every Must cycle is also a May cycle, so DLK01 ⊆ S-DLK. *)
  let must_cycles = Mhp.cycles (Mhp.wait_edges m Mhp.Must) in
  let norm scc = List.sort compare scc in
  List.iter
    (fun scc ->
      let names =
        List.map
          (fun v ->
            let c = calls.(v) in
            Printf.sprintf "%s.%s" c.Mhp.c_thread c.Mhp.c_op)
          (norm scc)
      in
      let subject = String.concat " <-> " names in
      let pair =
        match names with
        | a :: b :: _ -> (a, b)
        | [ a ] -> (a, a)
        | [] -> ("", "")
      in
      let also_must =
        List.exists (fun mc -> norm mc = norm scc) must_cycles
      in
      add S_dlk subject pair true
        (if also_must then
           "wait-for cycle under every interleaving (also a must-cycle, \
            DLK01)"
         else
           "wait-for cycle reachable when alternate servers are crashed, \
            busy or starved"))
    (Mhp.cycles (Mhp.wait_edges m Mhp.May));
  List.rev !out

let alarms preds = List.filter (fun p -> p.p_alarm) preds
