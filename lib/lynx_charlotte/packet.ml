(** Wire format of the LYNX-over-Charlotte protocol (paper §3.2).

    A LYNX message becomes one or more Charlotte messages ("packets").
    Besides the two obvious packet types — a request and a reply — the
    implementation needs five more to cope with Charlotte's interface:

    - [Enc]: a Charlotte message can enclose at most one link end, so a
      LYNX message moving k >= 2 ends is split into a first packet plus
      k-1 empty [Enc] packets (figure 2);
    - [Goahead]: sent by the receiver of a multi-enclosure {e request}
      after the first packet, so the sender knows the request is wanted
      before committing the remaining ends;
    - [Retry]: negative acknowledgment returning an unwanted request
      (and its enclosure); the sender retransmits immediately — the
      retransmission is delayed by the kernel because the bouncing
      process no longer has a Receive posted;
    - [Forbid]/[Allow]: used instead of [Retry] when the bouncing
      process must keep a Receive posted (it expects a reply), so a bare
      retransmission would bounce forever. *)

type header =
  | Req_first of data_header
  | Rep_first of data_header
  | Enc of { e_seq : int; e_kind : Lynx.Backend.kind; e_index : int }
  | Goahead of { g_seq : int }
  | Retry of { r_seq : int }
  | Forbid of { f_seq : int }
  | Allow
  | Ack of { k_seq : int }
      (** top-level reply acknowledgment — only used by the optional
          reply-ack variant the paper deems too expensive (§3.2.2: it
          would increase message traffic by 50%%) *)

and data_header = {
  d_seq : int;
  d_corr : int;  (** runtime correlation id: replies echo their request's *)
  d_op : string;
  d_exn : string option;
  d_n_encl : int;  (** total ends moved by the LYNX message *)
  d_payload : bytes;
  d_off : int;
  d_len : int;
      (** the payload is the [d_len] bytes of [d_payload] from [d_off]:
          after {!decode}, a slice of the received packet *)
}

let kind_code = function Lynx.Backend.Request -> 0 | Lynx.Backend.Reply -> 1
let kind_of_code = function 0 -> Lynx.Backend.Request | _ -> Lynx.Backend.Reply

let labels = [| "request"; "reply"; "enc"; "goahead"; "retry"; "forbid"; "allow"; "ack" |]

(* Index in [labels] of a data packet of [kind], and of an [Enc]. *)
let data_label kind = kind_code kind
let enc_label = 2

(* Index of the packet's type in [labels]. *)
let label_index = function
  | Req_first _ -> 0
  | Rep_first _ -> 1
  | Enc _ -> 2
  | Goahead _ -> 3
  | Retry _ -> 4
  | Forbid _ -> 5
  | Allow -> 6
  | Ack _ -> 7

let label h = labels.(label_index h)

(** The writer of a data packet — the first packet of a LYNX message —
    at its exact size: its header written, and the cursor at the [len]
    payload bytes still to write ({!Lynx.Codec.write} on the sending
    side).  The packet is built once: a retransmission sends the same
    bytes again. *)
let data_writer ~kind ~seq ~corr ~op ~exn_msg ~n_encl ~len =
  let open Lynx.Frame in
  let w =
    writer
      (1 + 4 + 4 + str_size op
      + (match exn_msg with None -> 1 | Some e -> 1 + str_size e)
      + 1 + 4 + len)
  in
  u8 w (1 + kind_code kind);
  u32 w seq;
  u32 w corr;
  str w op;
  (match exn_msg with
  | None -> u8 w 0
  | Some e ->
    u8 w 1;
    str w e);
  u8 w n_encl;
  u32 w len;
  w

let put_data kind d =
  let w =
    data_writer ~kind ~seq:d.d_seq ~corr:d.d_corr ~op:d.d_op ~exn_msg:d.d_exn
      ~n_encl:d.d_n_encl ~len:d.d_len
  in
  Lynx.Frame.sub w d.d_payload ~off:d.d_off ~len:d.d_len;
  Lynx.Frame.finish w

(* A control packet of one 32-bit field. *)
let tagged code n =
  let open Lynx.Frame in
  let w = writer 5 in
  u8 w code;
  u32 w n;
  finish w

(** Encodes any packet: {!decode}'s inverse.  The channel sends only
    control packets through it; it writes each data packet once, with
    {!data_writer}. *)
let encode (h : header) : bytes =
  let open Lynx.Frame in
  match h with
  | Req_first d -> put_data Lynx.Backend.Request d
  | Rep_first d -> put_data Lynx.Backend.Reply d
  | Enc { e_seq; e_kind; e_index } ->
    let w = writer 7 in
    u8 w 3;
    u32 w e_seq;
    u8 w (kind_code e_kind);
    u8 w e_index;
    finish w
  | Goahead { g_seq } -> tagged 4 g_seq
  | Retry { r_seq } -> tagged 5 r_seq
  | Forbid { f_seq } -> tagged 6 f_seq
  | Allow ->
    let w = writer 1 in
    u8 w 7;
    finish w
  | Ack { k_seq } -> tagged 8 k_seq

exception Malformed = Lynx.Frame.Malformed

let get_data r =
  let open Lynx.Frame in
  let d_seq = get_u32 r in
  let d_corr = get_u32 r in
  let d_op = get_str r in
  let d_exn = if get_u8 r = 1 then Some (get_str r) else None in
  let d_n_encl = get_u8 r in
  let d_len = get_u32 r in
  let d_off = take r d_len in
  { d_seq; d_corr; d_op; d_exn; d_n_encl; d_payload = r.src; d_off; d_len }

(** Decodes a received packet in place: a data packet's payload is a
    slice of [b], which must therefore never be written again. *)
let decode (b : bytes) : header =
  let open Lynx.Frame in
  let r = reader b ~off:0 ~len:(Bytes.length b) in
  match get_u8 r with
  | 1 -> Req_first (get_data r)
  | 2 -> Rep_first (get_data r)
  | 3 ->
    let e_seq = get_u32 r in
    let e_kind = kind_of_code (get_u8 r) in
    let e_index = get_u8 r in
    Enc { e_seq; e_kind; e_index }
  | 4 -> Goahead { g_seq = get_u32 r }
  | 5 -> Retry { r_seq = get_u32 r }
  | 6 -> Forbid { f_seq = get_u32 r }
  | 7 -> Allow
  | 8 -> Ack { k_seq = get_u32 r }
  | _ -> raise Malformed
