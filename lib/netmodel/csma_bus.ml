open Sim

type t = {
  engine : Engine.t;
  stats : Stats.t;
  broadcast_loss : float;
  rng : Rng.t;
  n_stations : int;
  faults : Faults.Injector.t option;
  mutable busy_until : Time.t;
}

(* Contention slot, and the cap on the backoff window's doubling. *)
let slot = Time.us 100
let max_backoff_exp = 6

let create engine ?stats ?(broadcast_loss = 0.05) ?faults ~rng ~stations () =
  if stations <= 0 then invalid_arg "Csma_bus.create: stations";
  {
    engine;
    stats = (match stats with Some s -> s | None -> Stats.create ());
    broadcast_loss;
    rng;
    n_stations = stations;
    faults;
    busy_until = Time.zero;
  }

let stations t = t.n_stations

module Key = struct
  let backoffs = Stats.key "csma.backoffs"
  let broadcast_losses = Stats.key "csma.broadcast_losses"
  let broadcasts = Stats.key "csma.broadcasts"
  let busy_ns = Stats.key "csma.busy_ns"
  let frames = Stats.key "csma.frames"
end

(* Acquire the bus: if busy, back off a random number of slots drawn from
   a window that doubles with each failed attempt. Returns the start time
   and reserves the bus through [start + duration]. *)
let acquire t ~duration =
  let now = Engine.now t.engine in
  let rec attempt tries candidate =
    if Time.(candidate >= t.busy_until) then candidate
    else begin
      Stats.incr t.stats Key.backoffs;
      let exp = min tries max_backoff_exp in
      let window = 1 lsl exp in
      let slots = 1 + Rng.int t.rng window in
      attempt (tries + 1) (Time.add t.busy_until (Time.scale slot slots))
    end
  in
  let start = attempt 1 now in
  t.busy_until <- Time.add start duration;
  start

let transmit t ~src ~dst ~duration ~on_delivered =
  if src < 0 || src >= t.n_stations || dst < 0 || dst >= t.n_stations then
    invalid_arg "Csma_bus.transmit: bad station";
  Stats.incr t.stats Key.frames;
  let on_delivered =
    (* The frame's name is only read by the injector: build it only
       when one is armed. *)
    match t.faults with
    | None -> on_delivered
    | Some _ ->
      Faults.Injector.wrap_delivery t.faults ~src ~dst
        ~obj:(Printf.sprintf "bus:%d->%d" src dst)
        ~op:"frame" on_delivered
  in
  if src = dst then Engine.schedule_after t.engine duration on_delivered
  else begin
    let start = acquire t ~duration in
    Stats.incr t.stats Key.busy_ns ~by:(Time.to_ns duration);
    Engine.schedule_at t.engine (Time.add start duration) on_delivered
  end

let broadcast t ~src ~duration ~on_delivered =
  if src < 0 || src >= t.n_stations then invalid_arg "Csma_bus.broadcast: bad station";
  Stats.incr t.stats Key.broadcasts;
  let start = acquire t ~duration in
  let finish = Time.add start duration in
  for station = 0 to t.n_stations - 1 do
    if station <> src then
      if Rng.bool t.rng t.broadcast_loss then
        (* Medium loss is part of the model ("unreliable broadcast"),
           not an injected fault, but it flows through the same typed
           event so traces and analyses see the drop. *)
        Faults.transport_loss t.engine t.stats ~counter:Key.broadcast_losses
          ~obj:(Printf.sprintf "bus:%d->%d" src station)
          ~op:"broadcast"
      else
        Engine.schedule_at t.engine finish
          (Faults.Injector.wrap_delivery t.faults ~src ~dst:station
             ~obj:(Printf.sprintf "bus:%d->%d" src station)
             ~op:"broadcast"
             (fun () -> on_delivered station))
  done

let stats t = t.stats
