(** Layout of a LYNX link object in Butterfly shared memory (paper §5.2).

    A link is one Chrysalis memory object mapped by the two connected
    processes.  It contains buffer space for a single request and a
    single reply in each direction, a set of flag bits, and the names of
    the dual queues of the processes at each end.

    Byte layout:
    {v
    0   flags (16-bit word, atomic ops only)
    4   dual-queue name of the side-0 process (32-bit, updated
        NON-atomically when the end moves; readers tolerate staleness)
    8   dual-queue name of the side-1 process
    12  slot 0: request travelling 0 -> 1
    12+S   slot 1: reply   travelling 0 -> 1
    12+2S  slot 2: request travelling 1 -> 0
    12+3S  slot 3: reply   travelling 1 -> 0
    v}
    where S = [slot_size].  Each slot starts with the total encoded
    length (4 bytes) — so the receiver copies only what was written —
    followed by: correlation id (4), payload length (4), op length (2),
    op bytes, exception length (2), exception bytes, has-exception (2),
    enclosure count (2), then [enclosure count] encoded end names (4
    each), then the payload. *)

let flags_off = 0
let dq_name_off side = 4 + (4 * side)
let slot_size = 2048
let header_off = 12

(** Flag bit for a message present in a slot. *)
let present_bit slot = 1 lsl slot

(** Flag bit: the link has been destroyed. *)
let destroyed_bit = 1 lsl 8

(** Slot index for a message of [kind] sent by the process on [side]. *)
let slot ~side ~(kind : Lynx.Backend.kind) =
  (2 * side) + match kind with Lynx.Backend.Request -> 0 | Lynx.Backend.Reply -> 1

let kind_of_slot s =
  if s land 1 = 0 then Lynx.Backend.Request else Lynx.Backend.Reply

let side_of_slot s = s / 2
let slot_off s = header_off + (s * slot_size)
let object_size = header_off + (4 * slot_size)

(** Dual-queue notice encoding: [(object_name lsl 4) lor tag].  Tags 0-3:
    "slot N of your link changed"; tag 15: "destroyed flag set".  All
    notices are hints (§5.2): the receiver validates against the flags. *)
let notice_msg ~obj ~slot = (obj lsl 4) lor slot

let notice_destroy ~obj = (obj lsl 4) lor 15
let notice_obj n = n lsr 4
let notice_tag n = n land 15

(** Bytes a slot occupies: the length prefix, then the encoded
    message (corr, payload length, op, exception, has-exception,
    enclosure count, enclosures, payload). *)
let encoded_size ~op ~exn_msg ~n_enclosures ~payload_len =
  4 + 4 + 4 + 2 + String.length op + 2
  + String.length (Option.value exn_msg ~default:"")
  + 2 + 2 + (4 * n_enclosures) + payload_len

(** The writer of the frame [transmit] writes at the slot offset,
    length prefix included, at its exact size: everything but the
    payload written, and the cursor at the [len] payload bytes still to
    write ({!Lynx.Codec.write} on the sending side).  Raises
    [Invalid_argument] if the frame does not fit the slot. *)
let slot_writer ~corr ~op ~exn_msg ~(enclosures : int list) ~len =
  let open Lynx.Frame in
  let n_enclosures = List.length enclosures in
  let size = encoded_size ~op ~exn_msg ~n_enclosures ~payload_len:len in
  if size > slot_size then
    invalid_arg "lynx_chrysalis: message exceeds link buffer";
  let w = writer size in
  u32 w (size - 4);
  u32 w corr;
  u32 w len;
  str w op;
  str w (Option.value exn_msg ~default:"");
  u16 w (if exn_msg = None then 0 else 1);
  u16 w n_enclosures;
  List.iter (u32 w) enclosures;
  w

module For_tests = struct
  (** The whole frame for a [payload] already encoded: {!decode_slot}'s
      inverse, behind the length prefix, which the frame tests round-trip
      through.  The channel writes its frames with {!slot_writer}. *)
  let encode_slot ~corr ~op ~exn_msg ~enclosures ~(payload : bytes) =
    let len = Bytes.length payload in
    let w = slot_writer ~corr ~op ~exn_msg ~enclosures ~len in
    Lynx.Frame.sub w payload ~off:0 ~len;
    Lynx.Frame.finish w
end

(** The message length a slot's 4-byte prefix declares. *)
let decode_length (prefix : bytes) =
  Bytes.get_uint16_le prefix 0 lor (Bytes.get_uint16_le prefix 2 lsl 16)

type decoded = {
  d_corr : int;
  d_op : string;
  d_exn : string option;
  d_enclosures : int list;  (** memory-object names of moved link ends *)
  d_payload : bytes;
  d_off : int;
  d_len : int;  (** the payload: [d_len] bytes of [d_payload] from [d_off] *)
}

exception Malformed = Lynx.Frame.Malformed

let rec get_encls r k =
  if k = 0 then []
  else
    let v = Lynx.Frame.get_u32 r in
    v :: get_encls r (k - 1)

(** Decodes the message read from a slot (what follows the length
    prefix) in place: the payload is a slice of [b], which must
    therefore never be written again.  Raises {!Malformed} if [b] is
    shorter than its fields declare. *)
let decode_slot (b : bytes) : decoded =
  let open Lynx.Frame in
  let r = reader b ~off:0 ~len:(Bytes.length b) in
  let d_corr = get_u32 r in
  let d_len = get_u32 r in
  let d_op = get_str r in
  let exn_s = get_str r in
  let has_exn = get_u16 r in
  let d_enclosures = get_encls r (get_u16 r) in
  let d_off = take r d_len in
  {
    d_corr;
    d_op;
    d_exn = (if has_exn = 1 then Some exn_s else None);
    d_enclosures;
    d_payload = b;
    d_off;
    d_len;
  }
