(** Shared types for the SODA kernel interface (Kepecs & Solomon;
    paper §4.1). *)

type pid = int
type node = int

(** Names are unique over space and time ([new_name]); a process
    {e advertises} the names it is willing to respond to. *)
type name = int

(** Out-of-band data carried by requests and accepts.  SODA bounds its
    size; the kernel enforces [oob_limit] (bytes). *)
type oob = bytes

type req_id = int

(** A request made of this process by some other process, as presented to
    the software-interrupt handler.  Its buffer sizes say what it asks
    for: both zero is a [signal], send-only a [put], receive-only a
    [get], both an [exchange]. *)
type incoming = {
  i_id : req_id;  (** identifies the request for a later [accept] *)
  i_from : pid;
  i_name : name;
  i_oob : oob;
  i_send_len : int;  (** bytes the requester wants to send *)
  i_recv_max : int;  (** bytes the requester is willing to receive *)
}

(** Completion of one of this process's own requests. *)
type completion = {
  c_id : req_id;
  c_oob : oob;  (** out-of-band data from the accepter *)
  c_data : bytes;  (** data the accepter sent us (<= our recv_max) *)
  c_taken : int;  (** how many of our bytes the accepter took *)
}

type abort_reason = Peer_crashed | Name_not_advertised | Request_withdrawn

(** Software interrupts delivered to a process's handler. *)
type interrupt =
  | Request of incoming
  | Completed of completion
  | Aborted of { a_id : req_id; a_reason : abort_reason }
      (** one of our own requests failed *)
  | Withdrawn of { w_id : req_id }
      (** a request previously presented to us was withdrawn by the
          requester before we accepted it *)
