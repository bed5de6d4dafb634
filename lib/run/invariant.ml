open Sim
module S = Harness.Scenarios

type violation = { v_invariant : string; v_detail : string }

let names =
  [
    "no-deadlock";
    "no-leaked-fibers";
    "time-monotone";
    "link-conservation";
    "at-most-once";
  ]

let to_string v = Printf.sprintf "%s: %s" v.v_invariant v.v_detail

let violation name fmt = Printf.ksprintf (fun d -> { v_invariant = name; v_detail = d }) fmt

let no_deadlock (o : S.outcome) =
  match o.S.o_view.Engine.v_blocked with
  | [] -> []
  | stuck ->
    [
      violation "no-deadlock" "blocked non-daemon fibers at quiescence: %s"
        (String.concat ", " stuck);
    ]

let no_leaked_fibers (o : S.outcome) =
  let v = o.S.o_view in
  let runnable =
    List.filter
      (fun f -> f.Engine.fi_state = "runnable")
      v.Engine.v_fibers
  in
  let leak =
    match runnable with
    | [] -> []
    | fs ->
      [
        violation "no-leaked-fibers"
          "fibers left runnable after the queue drained: %s"
          (String.concat ", " (List.map (fun f -> f.Engine.fi_name) fs));
      ]
  in
  let crashed =
    match v.Engine.v_crashes with
    | [] -> []
    | cs ->
      [
        violation "no-leaked-fibers" "crashed fibers: %s"
          (String.concat ", "
             (List.map (fun (n, e) -> Printf.sprintf "%s (%s)" n e) cs));
      ]
  in
  leak @ crashed

(* Both monotonicity checks report through here: [backwards] is the
   first regression (time, label, previous time), [last] the final
   event (time, label). *)
let monotone_violations ~now ~backwards ~last =
  (match backwards with
  | Some (t, label, prev) ->
    [
      violation "time-monotone"
        "trace went backwards at %s (event %S, previous %s)"
        (Time.to_string t) label (Time.to_string prev);
    ]
  | None -> [])
  @
  match last with
  | Some (t, label) when Time.(t > now) ->
    [
      violation "time-monotone" "trace event %S at %s is after the clock %s"
        label (Time.to_string t) (Time.to_string now);
    ]
  | _ -> []

(* Post-hoc: scan the retained structured log directly, independent of
   the streaming analyzer it is the reference for. *)
let time_monotone (o : S.outcome) =
  let v = o.S.o_view in
  let evs = v.Engine.v_events in
  let n = Array.length evs in
  let at i = evs.(i).Event.ev_time in
  let label i = Event.kind_to_string evs.(i).Event.ev_kind in
  let rec first_back i =
    if i >= n then None
    else if Time.(at i < at (i - 1)) then Some (at i, label i, at (i - 1))
    else first_back (i + 1)
  in
  monotone_violations ~now:v.Engine.v_now ~backwards:(first_back 1)
    ~last:(if n = 0 then None else Some (at (n - 1), label (n - 1)))

let link_conservation (o : S.outcome) =
  let adopted = S.counter o "lynx.ends_adopted" in
  let moved = S.counter o "lynx.ends_moved_out" in
  if adopted > moved then
    [
      violation "link-conservation"
        "%d link ends adopted but only %d moved out — an end was duplicated"
        adopted moved;
    ]
  else []

let at_most_once (o : S.outcome) =
  let sent = S.counter o "lynx.messages_sent" in
  let delivered = S.counter o "lynx.messages_delivered" in
  if delivered > sent then
    [
      violation "at-most-once"
        "%d messages delivered but only %d sent — a message was duplicated"
        delivered sent;
    ]
  else []

let check (o : S.outcome) =
  no_deadlock o @ no_leaked_fibers o @ time_monotone o @ link_conservation o
  @ at_most_once o

(* Streamed monotonicity: the analyzer recorded the first regression
   and the final timestamp while the run was still emitting, so the
   check holds over the {e whole} structured stream — the post-hoc
   variant above only sees the events the log retained. *)
let time_monotone_streamed (sum : Analysis.Stream.summary) (o : S.outcome) =
  monotone_violations ~now:o.S.o_view.Engine.v_now
    ~backwards:sum.Analysis.Stream.s_backwards ~last:sum.Analysis.Stream.s_last

let check_streamed (sum : Analysis.Stream.summary) (o : S.outcome) =
  no_deadlock o @ no_leaked_fibers o @ time_monotone_streamed sum o
  @ link_conservation o @ at_most_once o
