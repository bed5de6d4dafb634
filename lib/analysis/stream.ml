open Sim

(* Online analyzer over the engine's event stream: everything the
   post-hoc passes derive from a fully retained log, maintained
   incrementally so runs can be judged with the log bounded (or absent).
   The race detector state is [Races.state] — the post-hoc
   [Races.analyze] is literally a fold of the same [feed], so the two
   paths cannot disagree.  On top of it this module keeps the running
   counters the invariant suite needs (event/send/receive/drop counts,
   last timestamp, first monotonicity regression) and the causal
   frontier of the stream.

   [feed] is an engine consumer: it runs synchronously inside
   [Engine.emit] with the event's parts, and allocates nothing on the
   per-event path beyond what [Races.feed] retains: the last-event
   fields are plain mutable slots (the kind is the emitter's own value)
   and labels are rendered only at [finish] or when the first
   regression is recorded.

   Nothing here may cost O(fibers) per event: a population run streams
   millions of events from hundreds of thousands of fibers, and any
   per-event walk over global state (a stream-wide vector clock, say)
   turns the whole pipeline quadratic. *)

type t = {
  races : Races.state;
  mutable n_events : int;
  mutable n_sends : int;
  mutable n_receives : int;
  mutable n_drops : int;
  mutable last_time : Time.t;  (* meaningful when [n_events > 0] *)
  mutable last_kind : Event.kind;
  mutable backwards : (Time.t * string * Time.t) option;
      (* first regression: time, label, previous time *)
}

type summary = {
  s_events : int;
  s_sends : int;
  s_receives : int;
  s_drops : int;
  s_last : (Time.t * string) option;  (* last event: time, label *)
  s_backwards : (Time.t * string * Time.t) option;
  s_races : Races.finding list;
}

let init () =
  {
    races = Races.init ();
    n_events = 0;
    n_sends = 0;
    n_receives = 0;
    n_drops = 0;
    last_time = Time.zero;
    last_kind = Event.Note "";
    backwards = None;
  }

let feed t time fid clock kind =
  Races.feed t.races time fid clock kind;
  (match kind with
  | Event.Send _ -> t.n_sends <- t.n_sends + 1
  | Event.Receive _ -> t.n_receives <- t.n_receives + 1
  | Event.Drop _ -> t.n_drops <- t.n_drops + 1
  | _ -> ());
  if t.n_events > 0 && t.backwards = None && Time.(time < t.last_time) then
    t.backwards <- Some (time, Event.kind_to_string kind, t.last_time);
  t.n_events <- t.n_events + 1;
  t.last_time <- time;
  t.last_kind <- kind

let finish t =
  {
    s_events = t.n_events;
    s_sends = t.n_sends;
    s_receives = t.n_receives;
    s_drops = t.n_drops;
    s_last =
      (if t.n_events = 0 then None
       else Some (t.last_time, Event.kind_to_string t.last_kind));
    s_backwards = t.backwards;
    s_races = Races.findings t.races;
  }

let of_events events =
  let t = init () in
  Array.iter (Event.apply (feed t)) events;
  finish t
