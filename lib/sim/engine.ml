(* A fiber is [Blocked] in a sleep until its timer resumes it, and
   [Parked] by {!park} or {!await_prepared} until a wake, which leaves
   it [Woken] until the queued resumption runs.  The reason a blocked
   fiber waits rides in [reason], so blocking allocates no state. *)
type fiber_state = Runnable | Blocked | Parked | Woken | Finished | Crashed

type fiber = {
  fid : int;
  name : string;
  daemon : bool;
  (* Set once, by {!spawn}, before the fiber first runs. *)
  mutable kind : kind;
  mutable state : fiber_state;
  mutable reason : string;
  mutable clock : Vclock.t;
  (* [Some] of this very record, built once: making the fiber current
     on every resume would otherwise allocate the option each time. *)
  self : fiber option;
  (* Links of the engine's list of unfinished fibers (see [t.live]).  A
     fiber that finishes unlinks itself and points both at itself. *)
  mutable next : fiber;
  mutable prev : fiber;
}

and kind = Stackless | Direct of direct

(* What an effect fiber keeps for blocking, built once at spawn: the
   continuation of its pending block, the task that resumes it, and the
   task that wakes it from a {!yield}.  Every block of an effect fiber —
   a sleep, an {!await_prepared}, a yield — leaves its continuation in
   [d_k] and queues [d_wakeup] or [d_yield], so none allocates a closure
   of its own. *)
and direct = {
  d_fiber : fiber;
  mutable d_k : (unit, unit) Effect.Deep.continuation;
  d_wakeup : unit -> unit;
  d_yield : unit -> unit;
}

(* What the wake of a {!prepare}d handle delivers: [Prepared] until its
   fiber awaits it or a wake stores an outcome, whichever comes first;
   [Waiting] while the fiber is parked on it; then the value or the
   exception {!await_prepared} returns or raises. *)
type 'a outcome = Prepared | Waiting | Value of 'a | Raised of exn
type 'a handle = { h_direct : direct; mutable h_out : 'a outcome }

type policy =
  | Fifo
  | Random_order of int
  | Delay_jitter of { jitter_seed : int; bound : Time.t }

let policy_name = function
  | Fifo -> "fifo"
  | Random_order seed -> Printf.sprintf "random:%d" seed
  | Delay_jitter { jitter_seed; bound } ->
    Printf.sprintf "jitter:%d:%dus" jitter_seed (Time.to_ns bound / 1_000)

type t = {
  mutable now : Time.t;
  mutable seq : int;
  mutable next_fid : int;
  tasks : Taskq.t;
  (* Unfinished fibers — running, blocked or crashed — in spawn order: a
     circular doubly linked list through [next]/[prev], with [live] as
     its sentinel.  A finished fiber unlinks itself, so nothing keeps it
     once no task or handle can reach it; a population run's finished
     clients would otherwise stay resident until the engine dies.
     [finished] counts them. *)
  live : fiber;
  mutable finished : int;
  (* Fiber ids ever assigned, one bit each, for the explicit-[?fid]
     duplicate check: population runs spawn hundreds of thousands of
     pinned-id fibers, and a list scan per spawn would make setup
     quadratic. *)
  mutable fids : Bytes.t;
  mutable current : fiber option;
  mutable stopped : bool;
  mutable crashes : (string * exn) list;
  on_crash : [ `Raise | `Record ];
  root_rng : Rng.t;
  policy : policy;
  sched_rng : Rng.t;
  (* Causality state.  [amb_clock] is the clock of the task currently
     running in scheduler context; every queued task carries the clock
     of whoever enqueued it (inline in its [Taskq.entry]) and the drain
     loop restores it here before the task runs, so causality flows
     through timed hops and wakes without the sync primitives knowing
     about clocks at all. *)
  mutable amb_clock : Vclock.t;
  (* Structured event log: a ring holding the last [log_cap] events,
     grown on demand up to that capacity ([ev_start] is the read offset
     of the oldest).  No per-event list cell, and O(1) drop accounting;
     retention never affects [events_hash], [events_total] or the
     consumers, which see every emitted event. *)
  mutable ev_arr : Event.t array;
  mutable ev_len : int;
  mutable ev_start : int;
  log_cap : int;
  mutable events_total : int;
  mutable events_hash : int;
  mutable consumers : (Event.t -> unit) list;
  stamps : (int, Vclock.t) Hashtbl.t;
  (* Causality on demand: an engine is observed iff something can read
     an [Event.t] — a consumer, or a log that retains.  An unobserved
     engine still counts and fingerprints every event (both fold only
     time, fiber and tag), but builds no event record, ticks and merges
     no clock and keeps no stamps: nothing could read them.  Set at
     [create] and by [add_consumer], which is refused once the engine
     has emitted, so no reader ever sees clocks that were skipped. *)
  mutable observed : bool;
  (* The effect handler every effect fiber of this engine runs under,
     built by the first {!spawn}. *)
  mutable handler : (unit, unit) Effect.Deep.handler option;
}

exception Deadlock of string
exception Fiber_crash of string * exn

(* The one effect: an effect fiber blocks by performing it once its
   wake-up is arranged, and the handler keeps the continuation. *)
type _ Effect.t += Park : unit Effect.t

(* The [d_k] of an effect fiber with no pending block: a continuation
   captured once and never resumed, so the slot needs no option. *)
let no_k =
  let got : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Park
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) :
             ((b, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Park -> Some (fun k -> got := Some k) | _ -> None);
    };
  Option.get !got

(* Ambient observer, delivered through domain-local storage exactly like
   [Faults.with_plan]: sweep drivers want to bound retention and attach a
   streaming consumer to engines that scenarios create internally, without
   threading parameters through every scenario signature. *)
type observer = { ob_log_capacity : int option; ob_attach : t -> unit }

let ambient_observer : observer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let sentinel () =
  let rec s =
    {
      fid = -1;
      name = "";
      daemon = true;
      kind = Stackless;
      state = Finished;
      reason = "";
      clock = Vclock.empty;
      self = None;
      next = s;
      prev = s;
    }
  in
  s

let create ?(seed = 42) ?(policy = Fifo) ?log_capacity ?(on_crash = `Raise)
    () =
  let sched_seed =
    match policy with
    | Fifo -> 0
    | Random_order s -> s
    | Delay_jitter { jitter_seed; _ } -> jitter_seed
  in
  let observer = Domain.DLS.get ambient_observer in
  let log_cap =
    match (log_capacity, observer) with
    | Some _, _ -> log_capacity
    | None, Some ob -> ob.ob_log_capacity
    | None, None -> None
  in
  let log_cap = Option.value log_cap ~default:200_000 in
  let t =
    {
      now = Time.zero;
      seq = 0;
      next_fid = 0;
      tasks = Taskq.create ();
      live = sentinel ();
      finished = 0;
      fids = Bytes.empty;
      current = None;
      stopped = false;
      crashes = [];
      on_crash;
      root_rng = Rng.create seed;
      policy;
      sched_rng = Rng.create sched_seed;
      amb_clock = Vclock.empty;
      ev_arr = [||];
      ev_len = 0;
      ev_start = 0;
      log_cap;
      events_total = 0;
      events_hash = 0x0bf29ce484222325;
      consumers = [];
      stamps = Hashtbl.create 64;
      observed = log_cap <> 0;
      handler = None;
    }
  in
  (match observer with Some ob -> ob.ob_attach t | None -> ());
  t

let add_consumer t f =
  if t.events_total > 0 then
    invalid_arg "Engine.add_consumer: the engine has already emitted events";
  t.consumers <- t.consumers @ [ f ];
  t.observed <- true

let with_observer ?log_capacity ~attach f =
  let saved = Domain.DLS.get ambient_observer in
  Domain.DLS.set ambient_observer
    (Some { ob_log_capacity = log_capacity; ob_attach = attach });
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_observer saved) f

(* The shard coordinator attaches the ambient observer to its merge
   sink only: per-shard engines run on worker domains, where an
   attached consumer would race with the observer's single-threaded
   state.  Their events reach the observer through the sink at the
   window barriers instead. *)
let without_observer f =
  let saved = Domain.DLS.get ambient_observer in
  Domain.DLS.set ambient_observer None;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_observer saved) f

let now t = t.now
let rng t = t.root_rng
let policy t = t.policy

(* The clock of "whoever is acting right now": the running fiber's, or
   the ambient clock restored by the drain loop in scheduler context. *)
let current_clock t =
  match t.current with Some f -> f.clock | None -> t.amb_clock

let clock = current_clock

let grow_events t ~cap_limit =
  let cap = Array.length t.ev_arr in
  let ncap = min cap_limit (if cap = 0 then 256 else cap * 2) in
  let narr = Array.make ncap Event.placeholder in
  Array.blit t.ev_arr 0 narr 0 t.ev_len;
  t.ev_arr <- narr

(* Retention only: which slot (if any) keeps [ev].  The fingerprint,
   total count and consumers have already seen the event regardless. *)
let retain t ev =
  let k = t.log_cap in
  if t.ev_len < k then begin
    (* Growth phase: short runs pay nothing for the bound. *)
    if t.ev_len = Array.length t.ev_arr then grow_events t ~cap_limit:k;
    t.ev_arr.(t.ev_len) <- ev;
    t.ev_len <- t.ev_len + 1
  end
  else if k > 0 then begin
    (* Full: overwrite the oldest slot and advance the read offset.  The
       backing array has length exactly [k] here (growth is capped at
       [k]). *)
    t.ev_arr.(t.ev_start) <- ev;
    t.ev_start <- (t.ev_start + 1) mod k
  end

(* FNV-style word fold in native ints: a byte-wise int64 fold would
   cost 24 boxed multiplications per event, which would dominate the
   emit path.  It folds every emitted event, retained or not, so it is
   exact at any [log_capacity]. *)
let fold h i = (h lxor i) * 0x100000001B3

let[@inline] count_event t time fid kind =
  t.events_total <- t.events_total + 1;
  t.events_hash <-
    fold (fold (fold t.events_hash (Time.to_ns time)) fid) (Event.kind_tag kind)

(* A direct walk: [List.iter (fun f -> f ev)] would allocate its closure
   once per observed event. *)
let rec feed consumers ev =
  match consumers with
  | [] -> ()
  | f :: rest ->
    f ev;
    feed rest ev

(* Events emitted by a fiber tick its component so successive events are
   strictly ordered.  Scheduler-context events only snapshot the ambient
   clock: ticking a shared pseudo-component would fabricate causality
   between unrelated kernel tasks. *)
let emit t kind =
  let fid = match t.current with Some f -> f.fid | None -> -1 in
  count_event t t.now fid kind;
  if t.observed then begin
    let clock =
      match t.current with
      | Some f ->
        f.clock <- Vclock.tick f.clock fid;
        f.clock
      | None -> t.amb_clock
    in
    let ev =
      { Event.ev_time = t.now; ev_fiber = fid; ev_clock = clock; ev_kind = kind }
    in
    retain t ev;
    feed t.consumers ev
  end

let record t msg = emit t (Event.Note msg)

(* Re-admit an event that another engine already emitted: fold the
   fingerprint with the event's own (time, fiber, tag) — the same fold
   [emit] applies — feed the consumers, retain per the capacity policy
   and advance the clock to its timestamp.  This is how the shard
   coordinator materialises the canonical merged stream: the sink
   engine never schedules anything, it only absorbs, so its
   [events]/[events_hash]/consumer surface is exactly that of a
   single-engine run emitting the same sequence. *)
let absorb t (ev : Event.t) =
  if Time.(ev.Event.ev_time > t.now) then t.now <- ev.Event.ev_time;
  count_event t ev.Event.ev_time ev.Event.ev_fiber ev.Event.ev_kind;
  retain t ev;
  feed t.consumers ev

(* Until the ring is full, [events] trims to fit, then shares: the
   first call after a run replaces the backing array with a fresh copy
   of the live prefix ([Array.sub]) and every later call returns that
   same array without copying.  Appending after a snapshot is safe — a
   later [emit] sees a full array, takes the grow path, and copies into
   a new backing array, so the snapshot the caller holds is never
   mutated; the next [events] call then trims again and returns a
   different array.  Callers must treat the result as read-only but
   never see it change underneath them.  A full ring copies: the next
   emit overwrites its oldest slot in place. *)
let events t =
  if t.ev_len < t.log_cap then begin
    if Array.length t.ev_arr <> t.ev_len then
      t.ev_arr <- Array.sub t.ev_arr 0 t.ev_len;
    t.ev_arr
  end
  else
    let n = Array.length t.ev_arr in
    Array.init t.ev_len (fun i -> t.ev_arr.((t.ev_start + i) mod n))

let iter_events t f =
  let arr = t.ev_arr in
  let n = Array.length arr in
  for i = 0 to t.ev_len - 1 do
    f arr.((t.ev_start + i) mod n)
  done

let events_total t = t.events_total
let events_dropped t = t.events_total - t.ev_len
let events_hash t = Int64.of_int t.events_hash

(* Packs a layer tag (2 bits), an object id and a per-object sequence
   number into one int.  The sequence wraps at 2^30, so two keys can
   only meet when one stamp is still unadopted 2^30 messages later on
   the same object. *)
let stamp_key ~layer ~obj ~seq =
  (((obj lsl 30) lor (seq land 0x3FFF_FFFF)) lsl 2) lor (layer land 3)

let stamp t key =
  if t.observed then Hashtbl.replace t.stamps key (current_clock t)

let adopt t key =
  if t.observed then
    match Hashtbl.find t.stamps key with
    | exception Not_found -> ()
    | c -> (
      Hashtbl.remove t.stamps key;
      match t.current with
      | Some f -> f.clock <- Vclock.merge f.clock c
      | None -> t.amb_clock <- Vclock.merge t.amb_clock c)

(* Under [Fifo] same-time tasks run in schedule order.  [Random_order]
   replaces the tie-breaking sequence number with a seeded random draw, so
   same-time tasks — the ones that are causally concurrent — run in an
   arbitrary but reproducible order.  [Delay_jitter] perturbs each task's
   execution time by a bounded random amount instead, exploring timing
   races across nearby (not just equal) timestamps. *)
let enqueue t time task =
  (* The enqueuer's clock rides inline in the queue entry; the drain
     loop restores it as the ambient clock when the task runs, carrying
     causality across the timed hop without a per-enqueue closure. *)
  let clk = current_clock t in
  let seq = t.seq in
  t.seq <- seq + 1;
  match t.policy with
  | Fifo -> Taskq.add t.tasks ~time:(Time.to_ns time) ~seq ~clk task
  | Random_order _ ->
    Taskq.add t.tasks ~time:(Time.to_ns time)
      ~seq:(Rng.int t.sched_rng 0x3FFFFFFF)
      ~clk task
  | Delay_jitter { bound; _ } ->
    let j = Rng.int t.sched_rng (Time.to_ns bound + 1) in
    Taskq.add t.tasks ~time:(Time.to_ns time + j) ~seq ~clk task

let schedule_at t time task =
  if Time.(time < t.now) then
    invalid_arg "Engine.schedule_at: time is in the past";
  enqueue t time task

let schedule_after t delay task = enqueue t (Time.add t.now delay) task

(* Cross-engine hand-off: the task carries the sender's clock (captured
   on another shard) instead of this engine's ambient one, and bypasses
   the scheduling policy — shard sub-engines always run Fifo; schedule
   exploration is applied by the coordinator at the window barriers,
   where cross-shard nondeterminism actually lives. *)
let inject t ~time ~clk task =
  if Time.(time < t.now) then invalid_arg "Engine.inject: time is in the past";
  let seq = t.seq in
  t.seq <- seq + 1;
  Taskq.add t.tasks ~time:(Time.to_ns time) ~seq ~clk task

let next_task_ns t =
  if Taskq.length t.tasks = 0 then max_int else Taskq.min_time t.tasks

let fiber_name f = f.name
let fiber_id f = f.fid
let fiber_alive f = match f.state with Finished | Crashed -> false | _ -> true

let current_fiber_name t =
  match t.current with None -> "<scheduler>" | Some f -> f.name

(* The one way a fiber ends without crashing.  Unlinking drops the
   engine's last reference: what the fiber's closures hold is collected
   once its tasks and handles are gone too. *)
let finish t fiber =
  fiber.state <- Finished;
  fiber.prev.next <- fiber.next;
  fiber.next.prev <- fiber.prev;
  fiber.next <- fiber;
  fiber.prev <- fiber;
  t.finished <- t.finished + 1

let handle_crash t fiber exn =
  fiber.state <- Crashed;
  t.crashes <- (fiber.name, exn) :: t.crashes;
  emit t
    (Event.Crash
       { fid = fiber.fid; name = fiber.name; error = Printexc.to_string exn })

let unread_block = Event.Block { reason = "" }
let sleep_block = Event.Block { reason = "sleep" }

(* The one block/resume path, shared by both kinds of fiber.  [fiber]
   is running and blocks here; once woken, [run_as] runs [go t fiber x
   v] as that fiber.  Effect fibers pass {!continue_direct} with their
   [direct] record as [x]; stackless fibers pass their step runner with
   the step's callback.  [go] and [x] travel separately so that no
   resumption closure is built per block.  A crashed fiber is never
   resumed: a stackless step that raises after blocking leaves its
   wakeup behind. *)
let run_as t fiber go x v =
  match fiber.state with
  | Crashed -> ()
  | _ ->
    let prev = t.current in
    t.current <- fiber.self;
    fiber.state <- Runnable;
    (* The waking context happens before everything the fiber does from
       here on. *)
    if t.observed then fiber.clock <- Vclock.merge fiber.clock t.amb_clock;
    go t fiber x v;
    t.current <- prev

(* A running fiber is [Runnable] until it blocks; blocking again before
   it resumes raises [Invalid_argument twice], which for a stackless
   step is its crash. *)
let start_block fiber state reason twice =
  match fiber.state with
  | Runnable ->
    fiber.state <- state;
    fiber.reason <- reason
  | _ -> invalid_arg twice

let stackless_twice = "Engine: a stackless step may block only once"
let direct_twice = "Engine: the effect fiber is already blocked"

(* [Parked] until a wake, with the same [Block] event every wait
   emits. *)
let park_as t fiber reason twice =
  start_block fiber Parked reason twice;
  (* Unobserved, only the tag is read: skip building the record. *)
  emit t (if t.observed then Event.Block { reason } else unread_block)

(* ---- Effect fibers ---------------------------------------------------- *)

let continue_direct _ _ d () =
  let k = d.d_k in
  d.d_k <- no_k;
  Effect.Deep.continue k ()

let fid_used t fid =
  fid lsr 3 < Bytes.length t.fids
  && Bytes.get_uint8 t.fids (fid lsr 3) land (1 lsl (fid land 7)) <> 0

let mark_fid t fid =
  let i = fid lsr 3 in
  let n = Bytes.length t.fids in
  if i >= n then begin
    let b = Bytes.make (max (i + 1) (max 64 (2 * n))) '\000' in
    Bytes.blit t.fids 0 b 0 n;
    t.fids <- b
  end;
  Bytes.set_uint8 t.fids i (Bytes.get_uint8 t.fids i lor (1 lsl (fid land 7)))

(* [?fid] pins the fiber id explicitly.  Sharded runs need ids that are
   stable across partitionings — fiber N is node N on every shard
   count — so the per-engine [next_fid] counter cannot assign them.
   The fiber starts [Stackless]; {!spawn} makes it [Direct]. *)
let new_fiber t ?fid ?(name = "fiber") ?(daemon = false) () =
  let fid =
    match fid with
    | Some fid ->
      if fid < 0 then invalid_arg "Engine.spawn: negative fid";
      if fid_used t fid then
        invalid_arg (Printf.sprintf "Engine.spawn: fid %d already used" fid);
      t.next_fid <- max t.next_fid (fid + 1);
      fid
    | None ->
      let fid = t.next_fid in
      t.next_fid <- fid + 1;
      fid
  in
  mark_fid t fid;
  emit t (Event.Spawn { fid; name });
  (* The child starts causally after the spawn event in its parent. *)
  let clock =
    if t.observed then Vclock.tick (current_clock t) fid else current_clock t
  in
  let last = t.live.prev in
  let rec fiber =
    {
      fid;
      name;
      daemon;
      kind = Stackless;
      state = Runnable;
      reason = "";
      clock;
      self = Some fiber;
      next = t.live;
      prev = last;
    }
  in
  last.next <- fiber;
  t.live.prev <- fiber;
  fiber

let direct_current t who =
  match t.current with
  | Some { kind = Direct d; _ } -> d
  | Some _ -> invalid_arg (who ^ ": inside a stackless fiber")
  | None -> invalid_arg (who ^ ": not inside a fiber")

let running t =
  match t.current with
  | Some fiber -> fiber
  | None -> invalid_arg "Engine: no fiber is running"

(* One handler serves every effect fiber of an engine.  Its cases run
   while the fiber is current, so they find it through [t.current]
   instead of each fiber building its own; the one effect case returns
   the same [Some] on every block, so a block allocates no handler
   closure either. *)
let direct_handler t =
  match t.handler with
  | Some h -> h
  | None ->
    let keep = Some (fun k -> (direct_current t "Engine").d_k <- k) in
    let h =
      {
        Effect.Deep.retc =
          (fun () ->
            let fiber = running t in
            if fiber.state <> Crashed then finish t fiber);
        exnc = (fun exn -> handle_crash t (running t) exn);
        effc =
          (fun (type b) (eff : b Effect.t) :
               ((b, unit) Effect.Deep.continuation -> unit) option ->
            match eff with Park -> keep | _ -> None);
      }
    in
    t.handler <- Some h;
    h

let spawn t ?fid ?name ?daemon f =
  let fiber = new_fiber t ?fid ?name ?daemon () in
  let rec d =
    {
      d_fiber = fiber;
      d_k = no_k;
      d_wakeup = (fun () -> run_as t fiber continue_direct d ());
      d_yield =
        (fun () ->
          fiber.state <- Woken;
          enqueue t t.now d.d_wakeup);
    }
  in
  fiber.kind <- Direct d;
  enqueue t t.now (fun () ->
      let prev = t.current in
      t.current <- fiber.self;
      Effect.Deep.match_with f () (direct_handler t);
      t.current <- prev);
  fiber

(* A sleep's timer task resumes the fiber directly: no wake, no handle. *)
let sleep t dur =
  let d = direct_current t "Engine.sleep" in
  start_block d.d_fiber Blocked "sleep" direct_twice;
  emit t sleep_block;
  schedule_after t dur d.d_wakeup;
  Effect.perform Park

(* A handle for a wait that may end before it begins: the fiber keeps
   running, and {!await_prepared} blocks only if no wake came first. *)
let prepare t = { h_direct = direct_current t "Engine.prepare"; h_out = Prepared }

let await_prepared t ~reason h =
  (match t.current with
  | Some f when f == h.h_direct.d_fiber -> ()
  | _ -> invalid_arg "Engine.await_prepared: not the fiber that prepared");
  (match h.h_out with
  | Prepared ->
    park_as t h.h_direct.d_fiber reason direct_twice;
    h.h_out <- Waiting;
    Effect.perform Park
  | Waiting -> invalid_arg "Engine.await_prepared: already awaited"
  | Value _ | Raised _ -> ());
  match h.h_out with
  | Value v -> v
  | Raised e -> raise e
  | Prepared | Waiting ->
    invalid_arg "Engine.await_prepared: resumed without a wake"

let woken h = match h.h_out with Value _ | Raised _ -> true | _ -> false

(* The wake of an effect fiber: what [await_prepared] will return or
   raise goes into the handle.  A fiber waiting on the handle gets its
   resumption task queued; a prepared handle not yet awaited only keeps
   the outcome, whatever its fiber is doing meanwhile. *)
let wake_handle t h out =
  let d = h.h_direct in
  match (d.d_fiber.state, h.h_out) with
  | Crashed, _ -> ()
  | _, Prepared -> h.h_out <- out
  | Parked, Waiting ->
    h.h_out <- out;
    d.d_fiber.state <- Woken;
    enqueue t t.now d.d_wakeup
  | _ -> invalid_arg "Engine.resume: the fiber is not parked"

let resume t h v = wake_handle t h (Value v)
let resume_error t h exn = wake_handle t h (Raised exn)

(* Two tasks at [now], as a wait woken from a task takes: [d_yield]
   wakes the fiber and queues its resumption.  Nothing else can wake a
   yielding fiber, so it needs no handle. *)
let yield t =
  let d = direct_current t "Engine.yield" in
  enqueue t t.now d.d_yield;
  park_as t d.d_fiber "yield" direct_twice;
  Effect.perform Park

(* ---- Stackless fibers ------------------------------------------------- *)

(* One step: an exception is the fiber's crash, and a step that returns
   without having blocked ends the fiber. *)
let end_step t fiber =
  match fiber.state with Runnable -> finish t fiber | _ -> ()

let run_step t fiber k v =
  (try k v with e -> handle_crash t fiber e);
  end_step t fiber

let spawn_stackless t ?fid ?name ?daemon step =
  let fiber = new_fiber t ?fid ?name ?daemon () in
  enqueue t t.now (fun () ->
      let prev = t.current in
      t.current <- fiber.self;
      run_step t fiber step ();
      t.current <- prev);
  fiber

let stackless_current t who =
  match t.current with
  | Some ({ kind = Stackless; _ } as f) -> f
  | _ -> invalid_arg (who ^ ": not inside a stackless fiber")

(* The timer task resumes the fiber directly, with the same [Block]
   event and causality a wake would give it (the entry carries the
   fiber's own clock back). *)
let sleep_then t d k =
  let fiber = stackless_current t "Engine.sleep_then" in
  start_block fiber Blocked "sleep" stackless_twice;
  emit t sleep_block;
  schedule_after t d (fun () -> run_as t fiber run_step k ())

(* Park and wake: whoever parks the fiber keeps it and the step to
   resume it with, so a park/wake pair allocates only the resumption
   task. *)
let park t ~reason =
  let fiber = stackless_current t "Engine.park" in
  park_as t fiber reason stackless_twice;
  fiber

let wake t fiber k v =
  match (fiber.state, fiber.kind) with
  | Parked, Stackless ->
    fiber.state <- Woken;
    enqueue t t.now (fun () -> run_as t fiber run_step k v)
  | Crashed, _ -> ()
  | _ -> invalid_arg "Engine.wake: the fiber is not parked"

(* Newest first, as the names have always been listed: a walk from the
   oldest that conses onto the front. *)
let blocked_fibers t =
  let rec go f acc =
    if f == t.live then acc
    else
      go f.next
        (match (f.daemon, f.state) with
        | false, (Blocked | Parked | Woken) ->
          Printf.sprintf "%s (%s)" f.name f.reason :: acc
        | _ -> acc)
  in
  go t.live.next []

let crashed t = List.rev t.crashes

let fiber_state_name f =
  match f.state with
  | Runnable -> "runnable"
  | Blocked | Parked | Woken -> "blocked:" ^ f.reason
  | Finished -> "finished"
  | Crashed -> "crashed"

type fiber_info = {
  fi_id : int;
  fi_name : string;
  fi_daemon : bool;
  fi_state : string;
}

type view = {
  v_now : Time.t;
  v_pending : int;  (** tasks still queued *)
  v_blocked : string list;  (** non-daemon fibers stuck at a block *)
  v_fibers : fiber_info list;  (** unfinished fibers, in spawn order *)
  v_finished : int;  (** fibers that returned, and so left [v_fibers] *)
  v_crashes : (string * string) list;
  v_events : Event.t array;  (** structured event log, oldest first *)
  v_events_hash : int64;  (** incremental fingerprint of the full stream *)
  v_events_dropped : int;  (** events lost to the capacity cap *)
}

let live_infos t =
  let rec go f acc =
    if f == t.live then acc
    else
      go f.prev
        ({
           fi_id = f.fid;
           fi_name = f.name;
           fi_daemon = f.daemon;
           fi_state = fiber_state_name f;
         }
        :: acc)
  in
  go t.live.prev []

let view t =
  {
    v_now = t.now;
    v_pending = Taskq.length t.tasks;
    v_blocked = blocked_fibers t;
    v_fibers = live_infos t;
    v_finished = t.finished;
    v_crashes =
      List.rev_map (fun (n, e) -> (n, Printexc.to_string e)) t.crashes;
    v_events = events t;
    v_events_hash = Int64.of_int t.events_hash;
    v_events_dropped = t.events_total - t.ev_len;
  }

(* Allocates nothing per task: the queue's head is read in place and
   taken without an option. *)
let drain t ~limit =
  let limit_ns = match limit with Some l -> Time.to_ns l | None -> max_int in
  while
    (not t.stopped)
    && Taskq.length t.tasks > 0
    && Taskq.min_time t.tasks <= limit_ns
  do
    let e = Taskq.take t.tasks in
    t.now <- Time.ns e.Taskq.time;
    t.amb_clock <- e.Taskq.clk;
    e.Taskq.fn ()
  done

let check_crashes t =
  match (t.on_crash, t.crashes) with
  | `Raise, (name, exn) :: _ -> raise (Fiber_crash (name, exn))
  | _ -> ()

let run ?(expect_quiescent = false) t =
  t.stopped <- false;
  drain t ~limit:None;
  check_crashes t;
  if expect_quiescent then
    match blocked_fibers t with
    | [] -> ()
    | names -> raise (Deadlock (String.concat ", " names))

let run_until t limit =
  t.stopped <- false;
  drain t ~limit:(Some limit);
  if Time.(t.now < limit) then t.now <- limit;
  check_crashes t

let stop t = t.stopped <- true
