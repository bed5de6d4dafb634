open Sim

type finding = { r_rule : string; r_obj : string; r_detail : string }

let pp_finding ppf f = Fmt.pf ppf "%s %s: %s" f.r_rule f.r_obj f.r_detail

(* Streaming per-object state.  The detector used to index a fully
   retained event array and run the rules over frozen arrival-order
   arrays; this is the incremental port: each event updates per-object
   state at arrival, and [findings] replays only the rule conclusions.

   What must be carried forward, and why it stays small:

   - An object's sends are retained (index, fiber, op, clock) for as
     long as it lives.  R-MSG is pairwise over sends, so every send's
     clock can still race a future send; the pair count and the
     earliest racing pair are folded at arrival, so concluding the rule
     is O(1).  R-MOVE reads the same list, but only the sends never
     received.  Unordered sends — retransmissions under an already-used
     correlation id (a screened caller's retry, the dedup cache
     re-answering a duplicate) and reply sends, whose delivery is
     routed by correlation id rather than arrival order — are retained
     for R-MOVE's positional bookkeeping but excluded from R-MSG pairs
     on both sides.  A retransmission duplicates a send that was
     already folded, so any genuine application race is witnessed by
     the original; reply arrival order cannot change behaviour at all.
     This mirrors the static side exactly: S-MSG predicts over the
     protocol's Call items (request sends), so a reply-queue pair could
     never sit inside the prediction set the soundness gate checks.
   - Queued signals, waits and seens are FIFO-matched by position
     against final consumption counts, which lets consumed prefixes be
     pruned the moment the matching seen/wake arrives: a signal whose
     index is below the running seen count can never reappear in the
     surviving suffix the rules inspect, and symmetrically for waits
     against wake handoffs.  A seen is retained only while an unserved
     signal precedes it — otherwise no surviving signal can ever pair
     with it under the [npos > spos] clause.
   - Receives, wakes and seens otherwise contribute only running
     counters.  The high-volume kinds (Block/Note/Spawn/...) are never
     retained at all.
   - An object lives until nothing about it can change a finding.  A
     [Final] send promises that the object takes no further send, so
     once its receives have caught up with its sends, no later send can
     pair with the retained ones and R-MOVE would skip every one of
     them as consumed.  An object in that state that never needed a
     sync record (no pairs, signals, waits or moves) is dropped from
     the table whole: a population run's one-message queues live only
     while their message is in flight.  An object with sync state is
     kept, since its sync state can still yield a finding.  A send to
     a retired object still in flight is a broken promise and raises. *)

(* An object's sends, newest first: one block per send, with no list
   cell and tuple around it. *)
type sends =
  | No_sends
  | Send of {
      s_idx : int;
      s_fid : int;
      s_op : string;
      s_clk : Vclock.t;
      s_unordered : bool;
      s_older : sends;
    }

(* Per-object state that only a racing, signalling, waiting or moved
   object ever writes.  Every object starts on the shared [no_sync]
   record and gets its own on the first write ([sync_of]): a population
   run's objects are hundreds of thousands of one-message queues that
   never need it. *)
type sync = {
  (* R-MSG aggregation, folded at send arrival. *)
  mutable y_pairs : int;
  mutable y_first : (int * int * string * int * string) option;
      (* earlier send index, its fiber and op, later fiber and op *)
  (* R-SIG live suffixes. *)
  mutable y_sigs : (int * int * int * Vclock.t) Queue.t;
      (* signal index, stream position, fiber, clock *)
  mutable y_n_sigs : int;
  mutable y_n_seens : int;
  mutable y_seens : (int * Vclock.t) Queue.t;  (* stream position, clock *)
  mutable y_waits : (int * int * Vclock.t) Queue.t;
      (* wait index, fiber, clock *)
  mutable y_n_waits : int;
  mutable y_n_wakes : int;  (* woke=true signals *)
  (* R-MOVE. *)
  mutable y_moves : (int * Vclock.t) list;  (* fiber, clock — newest first *)
}

type obj_state = {
  mutable os_sends : sends;
  mutable os_n_sends : int;
  mutable os_n_recvs : int;
  mutable os_sync : sync;
}

type state = {
  mutable st_pos : int;  (* stream position of the next event *)
  st_tbl : (string, obj_state) Hashtbl.t;
}

let init () = { st_pos = 0; st_tbl = Hashtbl.create 64 }

(* Shared empty queues, never added to: an object that signals but
   never waits, or the reverse, gets its own queue on first use. *)
let no_sigs = Queue.create ()
let no_seens = Queue.create ()
let no_waits = Queue.create ()

let fresh_sync () =
  {
    y_pairs = 0;
    y_first = None;
    y_sigs = no_sigs;
    y_n_sigs = 0;
    y_n_seens = 0;
    y_seens = no_seens;
    y_waits = no_waits;
    y_n_waits = 0;
    y_n_wakes = 0;
    y_moves = [];
  }

(* Read-only: every field keeps its initial value. *)
let no_sync = fresh_sync ()

(* Read-only as well: the record of an object whose [Final] send is in
   while it had no sync state of its own.  It marks the object for
   dropping once drained, and a send to it as a broken promise. *)
let retired = fresh_sync ()

let sync_of s =
  if s.os_sync == no_sync || s.os_sync == retired then
    s.os_sync <- fresh_sync ();
  s.os_sync

let slot st obj =
  match Hashtbl.find st.st_tbl obj with
  | s -> s
  | exception Not_found ->
    let s =
      { os_sends = No_sends; os_n_sends = 0; os_n_recvs = 0; os_sync = no_sync }
    in
    Hashtbl.add st.st_tbl obj s;
    s

let feed st _time fid clk kind =
  let pos = st.st_pos in
  st.st_pos <- pos + 1;
  match kind with
  | Event.Send { obj; op; mode } ->
    let s = slot st obj in
    if s.os_sync == retired then
      invalid_arg
        (Printf.sprintf "Races.feed: send %S to %s after its final send" op obj);
    let unordered =
      match mode with Event.Unordered -> true | Event.Ordered | Event.Final -> false
    in
    let idx = s.os_n_sends in
    s.os_n_sends <- idx + 1;
    (* Fold R-MSG at arrival: count concurrent predecessors, and track
       the pair with the lowest earlier-send index — replaying the old
       ascending (i, j) double loop, whose first hit is exactly the
       minimal (i, j) in lexicographic order.  Unordered sends take no
       part, as either side of a pair.  A plain loop over local refs,
       which no closure captures, so the scan allocates nothing. *)
    if (not unordered) && s.os_sends != No_sends then begin
      let pairs = ref 0 and min_i = ref (-1) and min_f = ref 0
      and min_op = ref "" and rest = ref s.os_sends in
      while !rest != No_sends do
        match !rest with
        | No_sends -> ()
        | Send { s_idx; s_fid; s_op; s_clk; s_unordered; s_older } ->
          if (not s_unordered) && Vclock.concurrent s_clk clk then begin
            incr pairs;
            if !min_i < 0 || s_idx < !min_i then begin
              min_i := s_idx;
              min_f := s_fid;
              min_op := s_op
            end
          end;
          rest := s_older
      done;
      if !pairs > 0 then begin
        let y = sync_of s in
        y.y_pairs <- y.y_pairs + !pairs;
        match y.y_first with
        | Some (i0, _, _, _, _) when i0 <= !min_i -> ()
        | _ -> y.y_first <- Some (!min_i, !min_f, !min_op, fid, op)
      end
    end;
    s.os_sends <-
      Send
        {
          s_idx = idx;
          s_fid = fid;
          s_op = op;
          s_clk = clk;
          s_unordered = unordered;
          s_older = s.os_sends;
        };
    if mode == Event.Final && s.os_sync == no_sync then s.os_sync <- retired
  | Event.Receive { obj; _ } ->
    let s = slot st obj in
    s.os_n_recvs <- s.os_n_recvs + 1;
    (* A drained retired object can change no finding: R-MSG folded its
       pairs as each send arrived, it has no signal or move state, and
       R-MOVE reads only sends never received. *)
    if s.os_sync == retired && s.os_n_recvs >= s.os_n_sends then
      Hashtbl.remove st.st_tbl obj
  | Event.Signal { obj; woke = false } ->
    let y = sync_of (slot st obj) in
    let idx = y.y_n_sigs in
    y.y_n_sigs <- idx + 1;
    (* Positionally consumed already?  Then it can never be part of the
       surviving suffix the rules look at. *)
    if idx >= y.y_n_seens then begin
      if y.y_sigs == no_sigs then y.y_sigs <- Queue.create ();
      Queue.add (idx, pos, fid, clk) y.y_sigs
    end
  | Event.Signal { obj; woke = true } ->
    let y = sync_of (slot st obj) in
    y.y_n_wakes <- y.y_n_wakes + 1;
    while
      (not (Queue.is_empty y.y_waits))
      &&
      let i, _, _ = Queue.peek y.y_waits in
      i < y.y_n_wakes
    do
      ignore (Queue.pop y.y_waits)
    done
  | Event.Signal_seen { obj } ->
    let y = sync_of (slot st obj) in
    y.y_n_seens <- y.y_n_seens + 1;
    while
      (not (Queue.is_empty y.y_sigs))
      &&
      let i, _, _, _ = Queue.peek y.y_sigs in
      i < y.y_n_seens
    do
      ignore (Queue.pop y.y_sigs)
    done;
    (* Retain the seen only while an unserved signal precedes it: any
       signal arriving later has a larger stream position, so the
       latched-interrupt clause [npos > spos] could never match it. *)
    if not (Queue.is_empty y.y_sigs) then begin
      if y.y_seens == no_seens then y.y_seens <- Queue.create ();
      Queue.add (pos, clk) y.y_seens
    end
  | Event.Wait { obj } ->
    let y = sync_of (slot st obj) in
    let idx = y.y_n_waits in
    y.y_n_waits <- idx + 1;
    if idx >= y.y_n_wakes then begin
      if y.y_waits == no_waits then y.y_waits <- Queue.create ();
      Queue.add (idx, fid, clk) y.y_waits
    end
  | Event.Link_move { obj } ->
    let y = sync_of (slot st obj) in
    y.y_moves <- (fid, clk) :: y.y_moves
  | Event.Spawn _ | Event.Crash _ | Event.Note _ | Event.Block _
  | Event.Drop _ | Event.Fault _ ->
    ()

(* Every object name, sorted: the substrate for the R-MOVE prefix range
   search, which must see the queues that never needed a sync record. *)
let sorted_objs tbl =
  let objs = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort String.compare objs;
  objs

let starts_with ~prefix s =
  String.length s > String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* First index whose entry is >= [key]; strings sharing a prefix sort
   contiguously, so the range scan that follows visits exactly the
   prefixed objects, in sorted order. *)
let lower_bound (objs : string array) key =
  let lo = ref 0 and hi = ref (Array.length objs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare objs.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let queue_to_list q = List.rev (Queue.fold (fun acc x -> x :: acc) [] q)

(* R-MSG: concurrent sends into the same queue — already folded, just
   read the conclusion. *)
let message_races synced =
  List.filter_map
    (fun (obj, s) ->
      let y = s.os_sync in
      match y.y_first with
      | None -> None
      | Some (_, fi, opi, fj, opj) ->
        Some
          {
            r_rule = "R-MSG";
            r_obj = obj;
            r_detail =
              Printf.sprintf
                "sends %S (fiber #%d) and %S (fiber #%d) are concurrent: \
                 arrival order is a scheduler accident (%d pair%s)"
                opi fi opj fj y.y_pairs
                (if y.y_pairs = 1 then "" else "s");
          })
    synced

(* R-SIG: a lost-signal window.  Two shapes:

   - Check-then-block miss (Chrysalis dual queues): a queued signal
     that no signal-seen consumed, while a waiter on the same object is
     itself unserved (never popped by a woke=true handoff) and has a
     clock concurrent with the signal.  Served waits are excluded: a
     wait that a later enqueue handed a datum to lost nothing, whatever
     its clock says.

   - Latched-interrupt loss (SODA software interrupts, where consumers
     never block): a queued signal that the FIFO drain skipped, with a
     later signal-seen on the same object whose clock is concurrent —
     the drain raced the latch and missed it.

   FIFO matching is positional against final counts; the feed pass
   pruned consumed prefixes as the counts grew, so the queues here hold
   exactly the surviving suffixes the old frozen-array version indexed
   into. *)
let signal_races synced =
  List.filter_map
    (fun (obj, s) ->
      let y = s.os_sync in
      let sigs = queue_to_list y.y_sigs in
      let blocked_miss =
        let waits = queue_to_list y.y_waits in
        List.find_map
          (fun (_, _, sfid, sclk) ->
            List.find_map
              (fun (_, wfid, wclk) ->
                if Vclock.concurrent sclk wclk then Some (sfid, wfid)
                else None)
              waits)
          sigs
      in
      let latched_miss =
        if y.y_n_waits > 0 then None
        else
          let seens = queue_to_list y.y_seens in
          List.find_map
            (fun (_, spos, sfid, sclk) ->
              List.find_map
                (fun (npos, nclk) ->
                  if npos > spos && Vclock.concurrent sclk nclk then Some sfid
                  else None)
                seens)
            sigs
      in
      match (blocked_miss, latched_miss) with
      | Some (sfid, wfid), _ ->
        Some
          {
            r_rule = "R-SIG";
            r_obj = obj;
            r_detail =
              Printf.sprintf
                "signal queued by fiber #%d was never consumed while fiber \
                 #%d blocked concurrently and was never woken: lost-signal \
                 window"
                sfid wfid;
          }
      | None, Some sfid ->
        Some
          {
            r_rule = "R-SIG";
            r_obj = obj;
            r_detail =
              Printf.sprintf
                "signal latched by fiber #%d was skipped by a concurrent \
                 drain and never seen: lost interrupt"
                sfid;
          }
      | None, None -> None)
    synced

let oldest_first sends =
  let rec go acc = function
    | No_sends -> acc
    | Send { s_idx; s_fid; s_op; s_clk; s_older; _ } ->
      go ((s_idx, s_fid, s_op, s_clk) :: acc) s_older
  in
  go [] sends

(* R-MOVE: a send into one of a moved end's queues, concurrent with the
   move and never consumed by a receive on that queue.  The moved end's
   queues all share the ["<end>."] name prefix, so they occupy a
   contiguous range of the sorted object array — a binary search plus a
   bounded scan replaces a full-table prefix test per moved object. *)
let move_races tbl objs synced =
  List.filter_map
    (fun (mobj, ms) ->
      match ms.os_sync.y_moves with
      | [] -> None
      | rev_moves -> (
        let moves = List.rev rev_moves in
        let prefix = mobj ^ "." in
        let start = lower_bound objs prefix in
        let n = Array.length objs in
        let rec scan_queues i =
          if i >= n || not (starts_with ~prefix objs.(i)) then None
          else
            let qobj = objs.(i) in
            let qs = Hashtbl.find tbl qobj in
            let rec scan_sends = function
              | [] -> None
              | (si, sfid, op, sclk) :: rest ->
                if si < qs.os_n_recvs then scan_sends rest
                  (* consumed: delivery won *)
                else (
                  match
                    List.find_map
                      (fun (mfid, mclk) ->
                        if Vclock.concurrent sclk mclk then Some mfid
                        else None)
                      moves
                  with
                  | Some mfid -> Some (qobj, op, sfid, mfid)
                  | None -> scan_sends rest)
            in
            (match scan_sends (oldest_first qs.os_sends) with
            | Some _ as hit -> hit
            | None -> scan_queues (i + 1))
        in
        match scan_queues start with
        | None -> None
        | Some (qobj, op, sfid, mfid) ->
          Some
            {
              r_rule = "R-MOVE";
              r_obj = mobj;
              r_detail =
                Printf.sprintf
                  "link-end transfer (fiber #%d) races in-flight %S from \
                   fiber #%d on %s: the message was never received"
                  mfid op sfid qobj;
            }))
    synced

(* Rule output is in object-name order.  An object still on a shared
   [no_sync] or [retired] record can yield no finding: R-MSG and R-SIG
   read only its (empty) sync state, and R-MOVE needs it to have moved.
   So only the objects with their own record are collected and sorted
   — none at all in a population run of one-message queues — and the
   full sorted name array is built only when some object moved, for
   R-MOVE's scan of the moved end's queues, which may have no sync
   record. *)
let findings st =
  let synced =
    Hashtbl.fold
      (fun obj s acc ->
        if s.os_sync == no_sync || s.os_sync == retired then acc
        else (obj, s) :: acc)
      st.st_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let moved = List.exists (fun (_, s) -> s.os_sync.y_moves <> []) synced in
  message_races synced
  @ signal_races synced
  @ (if moved then move_races st.st_tbl (sorted_objs st.st_tbl) synced else [])

let analyze events =
  let st = init () in
  Array.iter (Event.apply (feed st)) events;
  findings st
