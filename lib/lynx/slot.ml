(** Per-link dispatch state of one process.

    A process keeps one slot per link end it holds, in a {!Handle_table}
    keyed by link id: the {!Link.t}, the operations served on it, the
    callers waiting for a reply on it and, under screening, the requests
    it has seen.  The dispatcher reads nothing else on the message path:
    no hashing, no tuple keys, and nothing allocated to find the next
    queue to service (see {!pick}). *)

module Engine = Sim.Engine
module Sync = Sim.Sync

(* What we answered a screened request with, for at-most-once dedup: a
   duplicate of an already-served request is answered from this cache
   (the handler must not run twice).  Replies that moved link ends
   cannot be replayed — the ends are gone — so their duplicates are
   dropped; the first copy's delivery is the transport's problem. *)
type served =
  | Reply_vals of Value.t list
  | Reply_exn of string
  | Reply_opaque

type seen_state = In_progress | Served of served

type handler = {
  h_op : string;
  h_sg : Ty.signature option;
  h_fn : Value.t list -> Value.t list;
  h_tname : string;  (** "<pname>.<op>", the name of each handler thread *)
}

(** A thread blocked in [await_request]. *)
type 'a waiter = {
  w_filter : int list option;  (** lids; [None] = any live link *)
  w_ivar : 'a Sync.Ivar.t;
  mutable w_done : bool;
}

type t = {
  link : Link.t;
  mutable handlers : handler list;  (** one per op *)
  (* Callers waiting for a reply on this link, in registration order:
     [corrs.(i)] is answered by resuming [callers.(i)], each a caller's
     prepared handle, for [i < waiting]. *)
  mutable corrs : int array;
  mutable callers : Backend.rx Engine.handle array;
  mutable waiting : int;
  mutable peak : int;  (** most callers ever waiting at once *)
  mutable seen : (int, seen_state) Hashtbl.t option;
      (** corr ids of the screened requests seen on this link *)
}

let make link =
  {
    link;
    handlers = [];
    corrs = [||];
    callers = [||];
    waiting = 0;
    peak = 0;
    seen = None;
  }

(* ---- Handlers ---------------------------------------------------------- *)

let rec find_handler op = function
  | [] -> None
  | h :: rest ->
    if String.equal h.h_op op then Some h else find_handler op rest

let add_handler s h =
  let rec replace = function
    | [] -> [ h ]
    | h' :: rest ->
      if String.equal h'.h_op h.h_op then h :: rest else h' :: replace rest
  in
  s.handlers <- replace s.handlers

(* ---- Reply waiters ------------------------------------------------------ *)

let rec index_of_corr s corr i =
  if i >= s.waiting then -1
  else if Array.unsafe_get s.corrs i = corr then i
  else index_of_corr s corr (i + 1)

(** Registers the caller waiting for reply [corr]; a call withdraws
    its corr (see {!forget_reply}) before it is ever registered again. *)
let expect_reply s corr caller =
  let n = s.waiting in
  if n = Array.length s.corrs then begin
    let cap = max 2 (2 * n) in
    let corrs = Array.make cap 0 and callers = Array.make cap caller in
    Array.blit s.corrs 0 corrs 0 n;
    Array.blit s.callers 0 callers 0 n;
    s.corrs <- corrs;
    s.callers <- callers
  end;
  s.corrs.(n) <- corr;
  s.callers.(n) <- caller;
  s.waiting <- n + 1;
  if s.waiting > s.peak then s.peak <- s.waiting

let remove_at s i =
  let last = s.waiting - 1 in
  Array.blit s.corrs (i + 1) s.corrs i (last - i);
  Array.blit s.callers (i + 1) s.callers i (last - i);
  s.waiting <- last

let forget_reply s corr =
  match index_of_corr s corr 0 with -1 -> () | i -> remove_at s i

(** The caller waiting for reply [corr], now no longer waiting; raises
    [Not_found] if there is none. *)
let take_reply s corr =
  match index_of_corr s corr 0 with
  | -1 -> raise Not_found
  | i ->
    let caller = s.callers.(i) in
    remove_at s i;
    caller

let fail_caller eng exn caller =
  if not (Engine.woken caller) then Engine.resume_error eng caller exn

(** Error-fills every waiting caller with [exn].  They wake in the order
    a corr-keyed [Hashtbl] holding them would iterate, which the
    schedule (and so every fingerprint) depends on.  Inserting them in
    registration order into a table with the bucket count such a table
    would have grown to reproduces it: a bucket lists its keys newest
    first, and growth keeps that order. *)
let fail_replies eng s exn =
  (match s.waiting with
  | 0 -> ()
  | 1 -> fail_caller eng exn s.callers.(0)
  | n ->
    let rec buckets b = if s.peak > 2 * b then buckets (2 * b) else b in
    let tbl = Hashtbl.create (buckets 16) in
    for i = 0 to n - 1 do
      Hashtbl.replace tbl s.corrs.(i) s.callers.(i)
    done;
    Hashtbl.iter (fun _ caller -> fail_caller eng exn caller) tbl);
  s.waiting <- 0;
  s.peak <- 0

(* ---- Screened requests seen ------------------------------------------- *)

let seen_state s corr =
  match s.seen with
  | None -> raise Not_found
  | Some tbl -> Hashtbl.find tbl corr

let note_seen s corr st =
  match s.seen with
  | Some tbl -> Hashtbl.replace tbl corr st
  | None ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace tbl corr st;
    s.seen <- Some tbl

(* ---- The selection rule -------------------------------------------------- *)

let waiter_wants w lid =
  (not w.w_done)
  && match w.w_filter with None -> true | Some lids -> List.mem lid lids

let rec any_waiter_wants lid = function
  | [] -> false
  | w :: rest -> waiter_wants w lid || any_waiter_wants lid rest

(** The waiters from the oldest one that wants [lid] on ([[]] if none
    does): the list's own cell, so finding it allocates nothing. *)
let rec from_waiter_for lid = function
  | [] -> []
  | w :: rest as ws -> if waiter_wants w lid then ws else from_waiter_for lid rest

type ready = link:int -> kind:Backend.kind -> bool

(* A reply is always wanted while a caller waits for one. *)
let reply_candidate slots (ready : ready) lid =
  match Handle_table.find_opt slots lid with
  | None -> false
  | Some s -> s.waiting > 0 && ready ~link:lid ~kind:Backend.Reply

(* A buffered request is only consumed when somebody will actually handle
   it: a thread blocked in [await_request] or a registered handler.  An
   open queue with no consumer (open_queue before a block point) leaves
   messages queued at the link. *)
let request_candidate slots ~waiters (ready : ready) lid =
  match Handle_table.find_opt slots lid with
  | None -> false
  | Some s ->
    (* wanted and consumed: (open or waited for) and (waited for or
       handled), which is the same as handled while open, or waited for *)
    Link.is_usable s.link
    && ((s.link.Link.request_queue_open && s.handlers <> [])
       || any_waiter_wants lid waiters)
    && ready ~link:lid ~kind:Backend.Request

let rec scan slots ~waiters ready lid stop =
  if lid >= stop then -1
  else if
    reply_candidate slots ready lid
    || request_candidate slots ~waiters ready lid
  then lid
  else scan slots ~waiters ready (lid + 1) stop

(** The next link to service: the first candidate after [rr_last] in lid
    order, else the first from the start — round-robin on link id, so no
    open queue is ignored forever.  [-1] if no queue is ready and wanted.
    [ready] is the backend's probe. *)
let pick (slots : t Handle_table.t) ~waiters ready ~rr_last =
  let start = rr_last + 1 and stop = Handle_table.bound slots in
  match scan slots ~waiters ready start stop with
  | -1 -> scan slots ~waiters ready 0 (min start stop)
  | lid -> lid

(** The queue to service on the picked link: replies first (a reply is
    always wanted; fairness concerns request queues). *)
let pick_kind slots ready lid =
  if reply_candidate slots ready lid then Backend.Reply else Backend.Request
