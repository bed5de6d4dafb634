(** May-happen-in-parallel analysis over a {!Protocol.t} graph.

    Compiles a protocol into a small event graph — a send and a
    completion event per {!Protocol.item.Call}, a serve event per
    {!Protocol.item.Entry} — and closes a {e must}-happens-before
    relation over it from exactly two edge sources:

    - program order within each thread (a thread is sequential);
    - rendezvous edges where a call and an entry match each other
      uniquely (one possible server, serving one possible call): every
      execution routes that call through that entry, so the send
      precedes the serve and the serve precedes the completion.

    Anything not ordered by that closure {e may happen in parallel}.
    Because the edge set under-approximates the happens-before of every
    real execution (ambiguous pairings, faults, retries and backend
    scheduling can only remove order, never add it), the MHP relation
    over-approximates observable concurrency — the soundness direction
    {!Static}'s prediction rules need.

    The module also hosts the static wait-for graph shared by
    {!Lint}'s DLK01 (the [Must] quantifier) and {!Static}'s S-DLK
    ([May]). *)

type call = {
  c_idx : int;  (** index into {!calls}, in located order *)
  c_thread : string;
  c_pos : int;  (** position among the thread's [Entry]/[Call] items *)
  c_endpoint : string;
  c_op : string;
}

type entry = {
  e_idx : int;  (** index into {!entries}, in located order *)
  e_thread : string;
  e_pos : int;
  e_endpoint : string;
  e_op : string option;
  e_sg : Lynx.Ty.signature option;
  e_mode : Protocol.mode;
}

type move = {
  m_idx : int;
  m_endpoint : string;  (** the end being moved *)
  m_via : string;  (** the endpoint whose message encloses it *)
  m_call : int option;
      (** the enclosing call: the nearest preceding call on [m_via] in
          declaration order, [None] if the protocol declares none (the
          move is then concurrent with everything) *)
}

type t

val of_protocol : Protocol.t -> t
(** Builds the event graph and its happens-before closure.  Validates
    the protocol first ({!Protocol.validate}). *)

val protocol : t -> Protocol.t

val calls : t -> call array
(** All calls in located order: threads in order of first appearance,
    program order within each thread — the numbering Lint's DLK01
    findings have always used. *)

val entries : t -> entry array
val moves : t -> move array

val concurrent_sends : t -> call -> call -> bool
(** The two calls' sends may happen in parallel. *)

val concurrent_serves : t -> entry -> entry -> bool
(** The two entries' serve points may happen in parallel. *)

val concurrent_serve_send : t -> entry -> call -> bool
(** The entry's serve may happen in parallel with the call's send. *)

val concurrent_move_send : t -> move -> call -> bool
(** The move (located at its enclosing call's send) may happen in
    parallel with the call's send.  A move's own enclosing call is
    never reported against itself; an unanchored move is concurrent
    with every other call. *)

(** {1 The static wait-for graph} *)

type quantifier =
  | Must
      (** call [c1] waits on [c2] only when {e every} entry that could
          serve [c1] sits after [c2] in [c2]'s thread — a cycle
          deadlocks under every interleaving (Lint's DLK01) *)
  | May
      (** one such entry suffices: the alternatives may be crashed,
          serving someone else or starved under a fault plan — a cycle
          is reachable by some fault-widened schedule (S-DLK) *)

val wait_edges : t -> quantifier -> int list array
(** Adjacency lists over {!calls} indices.  Calls no entry serves
    contribute no edges. *)

val cycles : int list array -> int list list
(** The cyclic strongly-connected components (size > 1, or a
    self-loop), in Tarjan completion order. *)
