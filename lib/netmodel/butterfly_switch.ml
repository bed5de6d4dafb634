open Sim

type t = {
  engine : Engine.t;
  stats : Stats.t;
  n_processors : int;
  n_stages : int;
}

let log4_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 4) in
  go 0 1

let stage_latency = Time.us 2

(* Remote reference through the switch ~0.85 us/byte; local ~0.25
   (calibrated so a LYNX byte costs ~1.1 us end to end, §5.3). *)
let remote_byte_time = Time.ns 850
let local_byte_time = Time.ns 250

let create engine ?stats ~processors () =
  if processors <= 0 then invalid_arg "Butterfly_switch.create: processors";
  {
    engine;
    stats = (match stats with Some s -> s | None -> Stats.create ());
    n_processors = processors;
    n_stages = max 1 (log4_ceil processors);
  }

let processors t = t.n_processors
let stages t = t.n_stages

let access_time t ~src ~dst ~bytes =
  if src = dst then Time.scale local_byte_time bytes
  else
    Time.add
      (Time.scale stage_latency t.n_stages)
      (Time.scale remote_byte_time bytes)

module Key = struct
  let bytes = Stats.key "switch.bytes"
  let remote_transfers = Stats.key "switch.remote_transfers"
  let transfers = Stats.key "switch.transfers"
end

let transfer t ~src ~dst ~bytes ~on_done =
  if src < 0 || src >= t.n_processors || dst < 0 || dst >= t.n_processors then
    invalid_arg "Butterfly_switch.transfer: bad processor";
  Stats.incr t.stats Key.transfers;
  Stats.incr t.stats Key.bytes ~by:bytes;
  if src <> dst then Stats.incr t.stats Key.remote_transfers;
  Engine.schedule_after t.engine (access_time t ~src ~dst ~bytes) on_done

let stats t = t.stats
