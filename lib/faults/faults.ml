open Sim

module Plan = struct
  type screening = {
    s_timeout : Time.t;
    s_backoff : int;
    s_timeout_cap : Time.t;
    s_budget : int;
  }

  let default_screening =
    {
      s_timeout = Time.ms 10;
      s_backoff = 2;
      s_timeout_cap = Time.ms 80;
      s_budget = 8;
    }

  (* Which side of the partition a node falls on.  [Parity] is the
     historical odd/even split; [High k] cuts nodes [>= k] away from
     nodes [< k], which lets a plan isolate a chosen minority or
     majority of a replica group. *)
  type cut = Parity | High of int

  type t = {
    label : string;
    drop : float;
    dup : float;
    delay : float;
    delay_bound : Time.t;
    retransmit : Time.t;
    crash_at : Time.t option;
    restart_after : Time.t option;
    crash_victim : string option;
    partition_at : (Time.t * Time.t) option;
    partition_cut : cut;
    screening : screening option;
  }

  let none =
    {
      label = "none";
      drop = 0.;
      dup = 0.;
      delay = 0.;
      delay_bound = Time.ms 2;
      retransmit = Time.us 200;
      crash_at = None;
      restart_after = None;
      crash_victim = None;
      partition_at = None;
      partition_cut = Parity;
      screening = Some default_screening;
    }

  let drops = { none with label = "drop"; drop = 0.25 }
  let dups = { none with label = "duplicate"; dup = 0.3 }
  let delays = { none with label = "delay"; delay = 0.3 }

  let crash_restart =
    {
      none with
      label = "crash-restart";
      crash_at = Some (Time.ms 2);
      restart_after = Some (Time.ms 3);
    }

  let partition =
    { none with label = "partition"; partition_at = Some (Time.ms 1, Time.ms 4) }

  let mix =
    {
      none with
      label = "mix";
      drop = 0.1;
      dup = 0.1;
      delay = 0.15;
      crash_at = Some (Time.ms 3);
      restart_after = Some (Time.ms 2);
    }

  (* Screening for the targeted plans: a tight retry budget so failure
     detection concludes (with [Excn.Timeout]) inside the fault window
     instead of waiting it out.  The values are for the fast backends —
     each LYNX runtime floors them at its transport's round trip
     ({!floor_screening}), so Charlotte detects in 2 x 110 ms while
     SODA and Chrysalis keep the 70 ms horizon. *)
  let targeted_screening =
    {
      s_timeout = Time.ms 30;
      s_backoff = 2;
      s_timeout_cap = Time.ms 40;
      s_budget = 2;
    }

  (* A reply timeout below the transport's own round trip can only
     misfire: every healthy call would be retransmitted, the dedup
     cache would re-answer every retransmission, and the extra traffic
     can congest a serialised transport (Charlotte's ring) into a
     retry storm.  Each backend world floors its plan's
     screening at twice its kernel's nominal RPC round trip — the
     margin covers queueing — before arming the runtime. *)
  let floor_screening ~rtt sp =
    let fl = Time.scale rtt 2 in
    {
      sp with
      s_timeout = Time.max sp.s_timeout fl;
      s_timeout_cap = Time.max sp.s_timeout_cap fl;
    }

  let leader_crash =
    {
      none with
      label = "leader-crash";
      crash_at = Some (Time.ms 10);
      restart_after = Some (Time.ms 300);
      crash_victim = Some "leader";
      screening = Some targeted_screening;
    }

  let partition_minority =
    {
      none with
      label = "partition-minority";
      partition_at = Some (Time.ms 10, Time.ms 300);
      partition_cut = High 4;
      screening = Some targeted_screening;
    }

  let partition_majority =
    {
      none with
      label = "partition-majority";
      partition_at = Some (Time.ms 10, Time.ms 300);
      partition_cut = High 3;
      screening = Some targeted_screening;
    }

  (* A probability of 1 would retransmit forever; 0.95 keeps every
     retransmission loop geometric. *)
  let clamp p = if p < 0. then 0. else if p > 0.95 then 0.95 else p

  let validate t =
    {
      t with
      drop = clamp t.drop;
      dup = clamp t.dup;
      delay = clamp t.delay;
      restart_after =
        (match (t.crash_at, t.restart_after) with
        | Some _, None -> Some (Time.ms 3)
        | _, r -> r);
    }

  (* Virtual time at which the last fault window closes: crash healed,
     partition lifted.  Zero for plans with no windowed fault — the
     liveness clock then starts at t0. *)
  let window_close t =
    let heal =
      match (t.crash_at, t.restart_after) with
      | Some at, Some r -> Time.add at r
      | Some at, None -> Time.add at (Time.ms 3) (* validate's default *)
      | None, _ -> Time.zero
    in
    let lift = match t.partition_at with Some (_, z) -> z | None -> Time.zero in
    Time.max heal lift

  let to_string t =
    let b = Buffer.create 64 in
    Buffer.add_string b t.label;
    let f name v = if v > 0. then Buffer.add_string b (Printf.sprintf " %s=%.2f" name v) in
    f "drop" t.drop;
    f "dup" t.dup;
    f "delay" t.delay;
    (match t.crash_at with
    | Some at -> Buffer.add_string b (Printf.sprintf " crash@%s" (Time.to_string at))
    | None -> ());
    (match t.crash_victim with
    | Some v -> Buffer.add_string b (Printf.sprintf " victim=%s" v)
    | None -> ());
    (match t.partition_at with
    | Some (a, z) ->
      Buffer.add_string b
        (Printf.sprintf " partition@[%s,%s)" (Time.to_string a) (Time.to_string z))
    | None -> ());
    (match t.partition_cut with
    | Parity -> ()
    | High k -> Buffer.add_string b (Printf.sprintf " cut=high%d" k));
    Buffer.contents b
end

let transport_loss eng sts ~counter ~obj ~op =
  Stats.incr sts counter;
  Engine.emit eng (Event.Drop { obj; op })

module Key = struct
  let crashes = Stats.key "faults.crashes"
  let delays = Stats.key "faults.delays"
  let drops = Stats.key "faults.drops"
  let dups = Stats.key "faults.dups"
  let partition_stalls = Stats.key "faults.partition_stalls"
  let restarts = Stats.key "faults.restarts"
  let rx_delays = Stats.key "faults.rx_delays"
  let rx_drops = Stats.key "faults.rx_drops"
  let rx_dups = Stats.key "faults.rx_dups"
end

module Injector = struct
  type t = {
    plan : Plan.t;
    eng : Engine.t;
    sts : Stats.t;
    rng : Rng.t;
    mutable victims : string list;  (** reversed registration order *)
    mutable down : int option;  (** victim id while crashed *)
    mutable heal_at : Time.t;
  }

  type verdict = Pass | Hold of Time.t | Dup of Time.t

  (* Picking the victim is deferred to crash time so every process
     spawned before the crash is a candidate; the draw is deterministic
     because registration order and the injector stream are.  A plan
     with [crash_victim] names its target instead — if no registered
     process matches, fall back to the seeded draw so mis-targeted
     plans still inject something. *)
  let crash t ~restart_after =
    let n = List.length t.victims in
    if n > 0 then begin
      let targeted =
        match t.plan.Plan.crash_victim with
        | None -> None
        | Some wanted ->
          let rec find i = function
            | [] -> None
            | v :: _ when String.equal v wanted -> Some i
            | _ :: tl -> find (i + 1) tl
          in
          find 0 (List.rev t.victims)
      in
      let idx = match targeted with Some i -> i | None -> Rng.int t.rng n in
      let name = List.nth t.victims (n - 1 - idx) in
      t.down <- Some idx;
      t.heal_at <- Time.add (Engine.now t.eng) restart_after;
      Stats.incr t.sts Key.crashes;
      Engine.emit t.eng (Event.Fault { what = "crash"; obj = name });
      Engine.schedule_after t.eng restart_after (fun () ->
          t.down <- None;
          Stats.incr t.sts Key.restarts;
          Engine.emit t.eng (Event.Fault { what = "restart"; obj = name }))
    end

  let create eng ~stats plan =
    let plan = Plan.validate plan in
    let t =
      {
        plan;
        eng;
        sts = stats;
        rng = Rng.split (Engine.rng eng);
        victims = [];
        down = None;
        heal_at = Time.zero;
      }
    in
    (match (plan.Plan.crash_at, plan.Plan.restart_after) with
    | Some at, Some restart_after ->
      let at = Time.max at (Engine.now eng) in
      Engine.schedule_at eng at (fun () -> crash t ~restart_after)
    | _ -> ());
    t

  let screening t = t.plan.Plan.screening

  let register_victim t ~name =
    let id = List.length t.victims in
    t.victims <- name :: t.victims;
    id

  let outage t vid =
    match t.down with
    | Some v when v = vid ->
      (* Hold until just past restart, so healed deliveries interleave
         with the retries the outage provoked. *)
      Some (Time.add (Time.diff t.heal_at (Engine.now t.eng)) (Time.us 1))
    | _ -> None

  let partitioned t ~src ~dst =
    match (t.plan.Plan.partition_at, src, dst) with
    | Some (a, z), Some s, Some d ->
      let now = Engine.now t.eng in
      Time.(now >= a)
      && Time.(now < z)
      &&
      (match t.plan.Plan.partition_cut with
      | Plan.Parity -> s land 1 <> d land 1
      | Plan.High k -> s >= k <> (d >= k))
    | _ -> false

  let spike t = Time.mul_float t.plan.Plan.delay_bound (Rng.float t.rng)

  (* A frame that no partition can stall shares this kind; never
     emitted. *)
  let no_stall = Event.Note ""

  (* One delivery decision.  Runs in scheduler context (transport
     completion callbacks), where [Engine.emit] stamps fiber -1.
     [retry] is the frame's own wrapped delivery, rescheduled as it is
     on a stall or a drop, and [stall] the frame's partition kind, so a
     stall allocates only its queue entry. *)
  let deliver t src dst obj op stall k retry =
    if partitioned t ~src ~dst then begin
      Stats.incr t.sts Key.partition_stalls;
      Engine.emit t.eng stall;
      Engine.schedule_after t.eng t.plan.Plan.retransmit retry
    end
    else if Rng.bool t.rng t.plan.Plan.drop then begin
      Stats.incr t.sts Key.drops;
      Engine.emit t.eng (Event.Drop { obj; op });
      Engine.schedule_after t.eng t.plan.Plan.retransmit retry
    end
    else if Rng.bool t.rng t.plan.Plan.dup then begin
      Stats.incr t.sts Key.dups;
      Engine.emit t.eng (Event.Fault { what = "dup"; obj });
      Engine.schedule_after t.eng t.plan.Plan.retransmit k;
      k ()
    end
    else if Rng.bool t.rng t.plan.Plan.delay then begin
      Stats.incr t.sts Key.delays;
      Engine.emit t.eng (Event.Fault { what = "delay"; obj });
      Engine.schedule_after t.eng (spike t) k
    end
    else k ()

  (* One closure per frame, which is also its retry.  Only a frame
     between two nodes, under a plan with a partition window, can
     stall: it builds its stall kind here, once.  Any other frame's
     closure keeps neither the kind nor the nodes. *)
  let wrap_delivery inj ?src ?dst ~obj ~op k =
    match inj with
    | None -> k
    | Some t -> (
      match (t.plan.Plan.partition_at, src, dst) with
      | Some _, Some _, Some _ ->
        let stall = Event.Fault { what = "partition"; obj } in
        let rec retry () = deliver t src dst obj op stall k retry in
        retry
      | _ ->
        let rec retry () = deliver t None None obj op no_stall k retry in
        retry)

  let rx_verdict t ~obj ~op =
    if Rng.bool t.rng t.plan.Plan.drop then begin
      Stats.incr t.sts Key.rx_drops;
      Engine.emit t.eng (Event.Drop { obj; op });
      (* lost, then retransmitted below us — redelivered one interval
         later, by which time the caller has usually retried *)
      Hold t.plan.Plan.retransmit
    end
    else if Rng.bool t.rng t.plan.Plan.dup then begin
      Stats.incr t.sts Key.rx_dups;
      Engine.emit t.eng (Event.Fault { what = "dup"; obj });
      Dup t.plan.Plan.retransmit
    end
    else if Rng.bool t.rng t.plan.Plan.delay then begin
      Stats.incr t.sts Key.rx_delays;
      Engine.emit t.eng (Event.Fault { what = "delay"; obj });
      Hold (spike t)
    end
    else Pass
end
