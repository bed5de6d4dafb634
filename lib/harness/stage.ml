(* The one shape of a scenario, [ctx -> backend -> outcome], and the
   skeleton every single-engine scenario runs under.  See the .mli. *)

open Sim

type ctx = {
  seed : int;
  policy : Engine.policy;
  shards : int;
  population : int option;
  plan : Faults.Plan.t option;
}

let default =
  { seed = 42; policy = Engine.Fifo; shards = 1; population = None; plan = None }

type outcome = {
  o_ok : bool;
  o_duration : Time.t;
  o_counters : (string * int) list;  (** increments during the scenario *)
  o_detail : string;
  o_seed : int;
  o_policy : string;  (** scheduling policy name, e.g. "fifo" *)
  o_latency : Stats.Histogram.summary option;
      (** reply-latency summary (workload scenarios; [None] elsewhere) *)
  o_view : Engine.view;  (** engine state at the end, for invariant checks *)
}

let counter o name_ = try List.assoc name_ o.o_counters with Not_found -> 0

let report ctx ~ok ~detail ~duration ~counters view =
  {
    o_ok = ok;
    o_duration = duration;
    o_counters = counters;
    o_detail = detail;
    o_seed = ctx.seed;
    o_policy = Engine.policy_name ctx.policy;
    o_latency = None;
    o_view = view;
  }

type scene = { links : unit -> unit; verdict : unit -> bool * string }

(* Processes first, then the driver: fiber ids, and so every events
   hash, follow that spawn order.  [until] is {!stage_until}'s limit. *)
let run_scene until ctx (backend : Backend_world.backend) ~nodes scene =
  let eng = Engine.create ~seed:ctx.seed ~policy:ctx.policy () in
  let w = backend.create ?plan:ctx.plan eng ~nodes in
  let sts = Lynx.World.stats w in
  let { links; verdict } = scene eng w in
  let before = ref [] and t0 = ref Time.zero in
  ignore
    (Engine.spawn eng ~name:"driver" (fun () ->
         match until with
         | None ->
           links ();
           before := Stats.snapshot sts;
           t0 := Engine.now eng
         | Some _ ->
           before := Stats.snapshot sts;
           links ()));
  (match until with
  | None -> Engine.run eng
  | Some limit -> Engine.run_until eng limit);
  let ok, detail = verdict () in
  report ctx ~ok ~detail
    ~duration:(Time.sub (Engine.now eng) !t0)
    ~counters:(Stats.diff ~before:!before ~after:(Stats.snapshot sts))
    (Engine.view eng)

let stage ctx backend ~nodes scene = run_scene None ctx backend ~nodes scene

let stage_until limit ctx backend ~nodes scene =
  run_scene (Some limit) ctx backend ~nodes scene
