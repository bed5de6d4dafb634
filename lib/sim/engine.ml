type fiber_state = Runnable | Blocked of string | Finished | Crashed

type fiber = {
  fid : int;
  name : string;
  daemon : bool;
  mutable state : fiber_state;
  mutable clock : Vclock.t;
}

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
  mutable fibers : fiber list;
  (* Fiber ids ever assigned, for the explicit-[?fid] duplicate check:
     population runs spawn hundreds of thousands of pinned-id fibers,
     and a list scan per spawn would make setup quadratic. *)
  fids : (int, unit) Hashtbl.t;
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
     through timed hops and wakers without the sync primitives knowing
     about clocks at all. *)
  mutable amb_clock : Vclock.t;
  (* Structured event log: a growable array, oldest first.  No per-event
     list cell, and O(1) drop accounting once [event_cap] is reached.
     With [log_cap = Some k] the array is a ring holding the last [k]
     events instead ([ev_start] is the read offset of the oldest);
     retention never affects [events_hash], [events_total] or the
     consumers, which see every emitted event. *)
  mutable ev_arr : Event.t array;
  mutable ev_len : int;
  mutable ev_start : int;
  event_cap : int;
  log_cap : int option;
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
}

exception Deadlock of string
exception Fiber_crash of string * exn
type 'a waker = ('a, exn) result -> unit

type _ Effect.t += Suspend_with : string * ((('a, exn) result -> unit) -> unit) -> 'a Effect.t

(* Sleeping is by far the most common suspension, and the generic waker
   path costs it a second queue round-trip (the timer task enqueues the
   continuation).  [Sleep_for] resumes the fiber directly in the timer
   task: same timestamp, same Block event, same causality (the entry
   carries the fiber's own clock back), half the queue traffic. *)
type _ Effect.t += Sleep_for : Time.t -> unit Effect.t

(* Ambient observer, delivered through domain-local storage exactly like
   [Faults.with_plan]: sweep drivers want to bound retention and attach a
   streaming consumer to engines that scenarios create internally, without
   threading parameters through every scenario signature. *)
type observer = { ob_log_capacity : int option; ob_attach : t -> unit }

let ambient_observer : observer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let create ?(seed = 42) ?(policy = Fifo) ?(event_capacity = 200_000)
    ?log_capacity ?(on_crash = `Raise) () =
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
  let t =
    {
      now = Time.zero;
      seq = 0;
      next_fid = 0;
      tasks = Taskq.create ();
      fibers = [];
      fids = Hashtbl.create 64;
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
      event_cap = event_capacity;
      log_cap;
      events_total = 0;
      events_hash = 0x0bf29ce484222325;
      consumers = [];
      stamps = Hashtbl.create 64;
      observed = log_cap <> Some 0;
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
  match t.log_cap with
  | None ->
    if t.ev_len < t.event_cap then begin
      if t.ev_len = Array.length t.ev_arr then
        grow_events t ~cap_limit:t.event_cap;
      t.ev_arr.(t.ev_len) <- ev;
      t.ev_len <- t.ev_len + 1
    end
  | Some k ->
    if k > 0 then
      if t.ev_len < k then begin
        (* Growth phase: behaves like the plain append mode until the
           ring is full, so short runs pay nothing for the bound. *)
        if t.ev_len = Array.length t.ev_arr then grow_events t ~cap_limit:k;
        t.ev_arr.(t.ev_len) <- ev;
        t.ev_len <- t.ev_len + 1
      end
      else begin
        (* Full: overwrite the oldest slot and advance the read offset.
           The backing array has length exactly [k] here (growth is
           capped at [k]). *)
        t.ev_arr.(t.ev_start) <- ev;
        t.ev_start <- (t.ev_start + 1) mod k
      end

(* FNV-style word fold in native ints: a byte-wise int64 fold would
   cost 24 boxed multiplications per event, which would dominate the
   emit path.  It folds every emitted event, retained or not, so it is
   exact at any [log_capacity] and in either mode. *)
let fold h i = (h lxor i) * 0x100000001B3

let[@inline] count_event t time fid kind =
  t.events_total <- t.events_total + 1;
  t.events_hash <-
    fold (fold (fold t.events_hash (Time.to_ns time)) fid) (Event.kind_tag kind)

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
    match t.consumers with [] -> () | cs -> List.iter (fun f -> f ev) cs
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
  match t.consumers with [] -> () | cs -> List.iter (fun f -> f ev) cs

(* Append mode trims to fit, then shares: the first call after a run
   replaces the backing array with a fresh copy of the live prefix
   ([Array.sub]) and every later call returns that same array without
   copying.  Appending after a snapshot is safe — a later [emit] sees a
   full array, takes the grow path, and copies into a new backing array,
   so the snapshot the caller holds is never mutated; the next [events]
   call then trims again and returns a different array.  Callers must
   treat the result as read-only but never see it change underneath
   them.  Ring mode copies unconditionally: the ring keeps rotating, so
   sharing its storage would let later emits overwrite a returned
   snapshot in place. *)
let events t =
  match t.log_cap with
  | None ->
    if Array.length t.ev_arr <> t.ev_len then
      t.ev_arr <- Array.sub t.ev_arr 0 t.ev_len;
    t.ev_arr
  | Some _ ->
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
    match Hashtbl.find_opt t.stamps key with
    | None -> ()
    | Some c -> (
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

let next_task_time t = Option.map Time.ns (Taskq.peek_time t.tasks)

let fiber_name f = f.name
let fiber_id f = f.fid
let fiber_alive f = match f.state with Finished | Crashed -> false | _ -> true

let current_fiber_name t =
  match t.current with None -> "<scheduler>" | Some f -> f.name

let handle_crash t fiber exn =
  fiber.state <- Crashed;
  t.crashes <- (fiber.name, exn) :: t.crashes;
  emit t
    (Event.Crash
       { fid = fiber.fid; name = fiber.name; error = Printexc.to_string exn })

let unread_block = Event.Block { reason = "" }

let effc : type b. t -> fiber -> b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option =
 fun t fiber eff ->
  match eff with
  | Suspend_with (reason, register) ->
    Some
      (fun (k : (b, unit) Effect.Deep.continuation) ->
        fiber.state <- Blocked reason;
        (* Unobserved, only the tag is read: skip building the record. *)
        emit t (if t.observed then Event.Block { reason } else unread_block);
        let fired = ref false in
        let waker (r : (b, exn) result) =
          if not !fired then begin
            fired := true;
            enqueue t t.now (fun () ->
                let prev = t.current in
                t.current <- Some fiber;
                fiber.state <- Runnable;
                (* The waker's cause happens before everything the fiber
                   does from here on. *)
                if t.observed then
                  fiber.clock <- Vclock.merge fiber.clock t.amb_clock;
                (match r with
                | Ok v -> Effect.Deep.continue k v
                | Error e -> Effect.Deep.discontinue k e);
                t.current <- prev)
          end
        in
        register waker)
  | Sleep_for d ->
    Some
      (fun (k : (b, unit) Effect.Deep.continuation) ->
        fiber.state <- Blocked "sleep";
        emit t (Event.Block { reason = "sleep" });
        schedule_after t d (fun () ->
            let prev = t.current in
            t.current <- Some fiber;
            fiber.state <- Runnable;
            if t.observed then
              fiber.clock <- Vclock.merge fiber.clock t.amb_clock;
            Effect.Deep.continue k ();
            t.current <- prev))
  | _ -> None

(* [?fid] pins the fiber id explicitly.  Sharded runs need ids that are
   stable across partitionings — fiber N is node N on every shard
   count — so the per-engine [next_fid] counter cannot assign them. *)
let spawn t ?fid ?(name = "fiber") ?(daemon = false) f =
  let fid =
    match fid with
    | Some fid ->
      if fid < 0 then invalid_arg "Engine.spawn: negative fid";
      if Hashtbl.mem t.fids fid then
        invalid_arg (Printf.sprintf "Engine.spawn: fid %d already used" fid);
      t.next_fid <- max t.next_fid (fid + 1);
      fid
    | None ->
      let fid = t.next_fid in
      t.next_fid <- fid + 1;
      fid
  in
  Hashtbl.replace t.fids fid ();
  emit t (Event.Spawn { fid; name });
  (* The child starts causally after the spawn event in its parent. *)
  let clock =
    if t.observed then Vclock.tick (current_clock t) fid else current_clock t
  in
  let fiber = { fid; name; daemon; state = Runnable; clock } in
  t.fibers <- fiber :: t.fibers;
  enqueue t t.now (fun () ->
      let prev = t.current in
      t.current <- Some fiber;
      let handler =
        {
          Effect.Deep.retc =
            (fun () -> if fiber.state <> Crashed then fiber.state <- Finished);
          exnc = (fun exn -> handle_crash t fiber exn);
          effc = (fun eff -> effc t fiber eff);
        }
      in
      Effect.Deep.match_with f () handler;
      t.current <- prev);
  fiber

let suspend t ?(reason = "wait") register =
  match t.current with
  | None -> invalid_arg "Engine.suspend: not inside a fiber"
  | Some _ -> Effect.perform (Suspend_with (reason, register))

let sleep t d =
  match t.current with
  | None -> invalid_arg "Engine.sleep: not inside a fiber"
  | Some _ -> Effect.perform (Sleep_for d)

let yield t =
  suspend t ~reason:"yield" (fun waker ->
      enqueue t t.now (fun () -> waker (Ok ())))

let blocked_fibers t =
  List.filter_map
    (fun f ->
      match (f.daemon, f.state) with
      | false, Blocked reason -> Some (Printf.sprintf "%s (%s)" f.name reason)
      | _ -> None)
    t.fibers

let crashed t = List.rev t.crashes

let fiber_state_name f =
  match f.state with
  | Runnable -> "runnable"
  | Blocked reason -> "blocked:" ^ reason
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
  v_blocked : string list;  (** non-daemon fibers stuck at a suspension *)
  v_fibers : fiber_info list;  (** every fiber ever spawned, by id *)
  v_crashes : (string * string) list;
  v_events : Event.t array;  (** structured event log, oldest first *)
  v_events_hash : int64;  (** incremental fingerprint of the full stream *)
  v_events_dropped : int;  (** events lost to the capacity cap *)
}

let view t =
  {
    v_now = t.now;
    v_pending = Taskq.length t.tasks;
    v_blocked = blocked_fibers t;
    v_fibers =
      List.rev_map
        (fun f ->
          {
            fi_id = f.fid;
            fi_name = f.name;
            fi_daemon = f.daemon;
            fi_state = fiber_state_name f;
          })
        t.fibers;
    v_crashes =
      List.rev_map (fun (n, e) -> (n, Printexc.to_string e)) t.crashes;
    v_events = events t;
    v_events_hash = Int64.of_int t.events_hash;
    v_events_dropped = t.events_total - t.ev_len;
  }

let drain t ~limit =
  let continue = ref true in
  while !continue && not t.stopped do
    match Taskq.peek_time t.tasks with
    | None -> continue := false
    | Some time_ns ->
      (match limit with
      | Some l when time_ns > Time.to_ns l -> continue := false
      | _ -> (
        match Taskq.pop t.tasks with
        | None -> continue := false
        | Some e ->
          t.now <- Time.ns e.Taskq.time;
          t.amb_clock <- e.Taskq.clk;
          e.Taskq.fn ()))
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
