open Sim

type t = {
  engine : Engine.t;
  stats : Stats.t;
  n_stations : int;
  mutable busy_until : Time.t;
}

(* The average token rotation a sender waits before it holds the wire. *)
let token_latency = Time.us 60

let create engine ?stats ~stations () =
  if stations <= 0 then invalid_arg "Token_ring.create: stations";
  {
    engine;
    stats = (match stats with Some s -> s | None -> Stats.create ());
    n_stations = stations;
    busy_until = Time.zero;
  }

let stations t = t.n_stations

module Key = struct
  let busy_ns = Stats.key "ring.busy_ns"
  let frames = Stats.key "ring.frames"
  let loopback_frames = Stats.key "ring.loopback_frames"
  let queued_frames = Stats.key "ring.queued_frames"
end

let transmit t ~src ~dst ~duration ~on_delivered =
  if src < 0 || src >= t.n_stations || dst < 0 || dst >= t.n_stations then
    invalid_arg "Token_ring.transmit: bad station";
  let now = Engine.now t.engine in
  Stats.incr t.stats Key.frames;
  if src = dst then begin
    (* Loopback: no token, no ring occupation. *)
    Stats.incr t.stats Key.loopback_frames;
    Engine.schedule_after t.engine duration on_delivered
  end
  else begin
    let start = Time.add (Time.max now t.busy_until) token_latency in
    let finish = Time.add start duration in
    let queued = Time.sub start now in
    if not (Time.is_zero (Time.sub queued token_latency)) then
      Stats.incr t.stats Key.queued_frames;
    Stats.incr t.stats Key.busy_ns ~by:(Time.to_ns duration);
    t.busy_until <- finish;
    Engine.schedule_at t.engine finish on_delivered
  end

let stats t = t.stats
