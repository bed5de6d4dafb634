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
}

let kind_code = function Lynx.Backend.Request -> 0 | Lynx.Backend.Reply -> 1
let kind_of_code = function 0 -> Lynx.Backend.Request | _ -> Lynx.Backend.Reply

let labels = [| "request"; "reply"; "enc"; "goahead"; "retry"; "forbid"; "allow"; "ack" |]

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

let encode (h : header) : bytes =
  let buf = Buffer.create 64 in
  let u8 n = Buffer.add_char buf (Char.chr (n land 0xff)) in
  let u16 n =
    u8 n;
    u8 (n lsr 8)
  in
  let u32 n =
    u16 n;
    u16 (n lsr 16)
  in
  let str s =
    u16 (String.length s);
    Buffer.add_string buf s
  in
  let data code (d : data_header) =
    u8 code;
    u32 d.d_seq;
    u32 d.d_corr;
    str d.d_op;
    (match d.d_exn with
    | None -> u8 0
    | Some e ->
      u8 1;
      str e);
    u8 d.d_n_encl;
    u32 (Bytes.length d.d_payload);
    Buffer.add_bytes buf d.d_payload
  in
  (match h with
  | Req_first d -> data 1 d
  | Rep_first d -> data 2 d
  | Enc { e_seq; e_kind; e_index } ->
    u8 3;
    u32 e_seq;
    u8 (kind_code e_kind);
    u8 e_index
  | Goahead { g_seq } ->
    u8 4;
    u32 g_seq
  | Retry { r_seq } ->
    u8 5;
    u32 r_seq
  | Forbid { f_seq } ->
    u8 6;
    u32 f_seq
  | Allow -> u8 7
  | Ack { k_seq } ->
    u8 8;
    u32 k_seq);
  Buffer.to_bytes buf

exception Malformed

let decode (b : bytes) : header =
  let pos = ref 0 in
  let u8 () =
    if !pos >= Bytes.length b then raise Malformed;
    let v = Char.code (Bytes.get b !pos) in
    incr pos;
    v
  in
  let u16 () =
    let lo = u8 () in
    let hi = u8 () in
    lo lor (hi lsl 8)
  in
  let u32 () =
    let lo = u16 () in
    let hi = u16 () in
    lo lor (hi lsl 16)
  in
  let str () =
    let n = u16 () in
    if !pos + n > Bytes.length b then raise Malformed;
    let s = Bytes.sub_string b !pos n in
    pos := !pos + n;
    s
  in
  let data () =
    let d_seq = u32 () in
    let d_corr = u32 () in
    let d_op = str () in
    let d_exn = if u8 () = 1 then Some (str ()) else None in
    let d_n_encl = u8 () in
    let len = u32 () in
    if !pos + len > Bytes.length b then raise Malformed;
    let d_payload = Bytes.sub b !pos len in
    { d_seq; d_corr; d_op; d_exn; d_n_encl; d_payload }
  in
  match u8 () with
  | 1 -> Req_first (data ())
  | 2 -> Rep_first (data ())
  | 3 ->
    let e_seq = u32 () in
    let e_kind = kind_of_code (u8 ()) in
    let e_index = u8 () in
    Enc { e_seq; e_kind; e_index }
  | 4 -> Goahead { g_seq = u32 () }
  | 5 -> Retry { r_seq = u32 () }
  | 6 -> Forbid { f_seq = u32 () }
  | 7 -> Allow
  | 8 -> Ack { k_seq = u32 () }
  | _ -> raise Malformed
