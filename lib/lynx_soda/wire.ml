(** Wire format of the LYNX-over-SODA protocol (paper §4.2).

    SODA's out-of-band data is tiny (~48 bits), so only the essentials
    travel out of band; everything else — operation name, enclosure
    descriptors, payload — goes in the message body, exactly the
    trade-off §4.2.1 discusses.

    Out-of-band tags:
    - requests: [Msg] (a LYNX request or reply put; carries the kind),
      [Sig] (a status signal watching for destruction/moves), [Freeze]
      (hint search, carries the sought end name), [Unfreeze].
    - accepts: [Ok_taken], [Destroyed], [Moved] (carries the new owner
      pid), [Hint] (freeze answer with a hint), [No_hint]. *)

type req_oob =
  | Msg of Lynx.Backend.kind
  | Sig
  | Freeze of int  (* sought end name *)
  | Unfreeze

type acc_oob =
  | Ok_taken
  | Destroyed
  | Moved of int  (* new owner pid *)
  | Hint of int  (* freeze answer: believed owner pid *)
  | No_hint

(* An oob is never written after it is built: the SODA kernel only
   stores it and hands it on (in [incoming.i_oob] and
   [completion.c_oob]), and the channel only decodes it.  So the
   one-byte values are shared constants, and only the ones that carry
   a name or pid are built per message. *)
let tag1 c = Bytes.make 1 (Char.chr c)

let tagged tag n =
  let open Lynx.Frame in
  let w = writer 5 in
  u8 w tag;
  u32 w n;
  finish w

let u32_of b off =
  Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)

let req_msg_request = tag1 1
let req_msg_reply = tag1 2
let req_sig = tag1 3
let req_unfreeze = tag1 5

let encode_req_oob = function
  | Msg Lynx.Backend.Request -> req_msg_request
  | Msg Lynx.Backend.Reply -> req_msg_reply
  | Sig -> req_sig
  | Freeze name -> tagged 4 name
  | Unfreeze -> req_unfreeze

let decode_req_oob b =
  if Bytes.length b = 0 then None
  else
    match Char.code (Bytes.get b 0) with
    | 1 -> Some (Msg Lynx.Backend.Request)
    | 2 -> Some (Msg Lynx.Backend.Reply)
    | 3 -> Some Sig
    | 4 when Bytes.length b >= 5 -> Some (Freeze (u32_of b 1))
    | 5 -> Some Unfreeze
    | _ -> None

let acc_ok_taken = tag1 1
let acc_destroyed = tag1 2
let acc_no_hint = tag1 5

let encode_acc_oob = function
  | Ok_taken -> acc_ok_taken
  | Destroyed -> acc_destroyed
  | Moved pid -> tagged 3 pid
  | Hint pid -> tagged 4 pid
  | No_hint -> acc_no_hint

let decode_acc_oob b =
  if Bytes.length b = 0 then None
  else
    match Char.code (Bytes.get b 0) with
    | 1 -> Some Ok_taken
    | 2 -> Some Destroyed
    | 3 when Bytes.length b >= 5 -> Some (Moved (u32_of b 1))
    | 4 when Bytes.length b >= 5 -> Some (Hint (u32_of b 1))
    | 5 -> Some No_hint
    | _ -> None

(** Message body: operation, optional exception, enclosure descriptors,
    payload.  An enclosure descriptor names the moved end, the far end,
    and a location hint for the far end's owner. *)
type encl = { e_my_name : int; e_far_name : int; e_hint : int }

type body = {
  b_corr : int;
  b_op : string;
  b_exn : string option;
  b_encl : encl list;
  b_payload : bytes;
  b_off : int;
  b_len : int;
      (** the payload is the [b_len] bytes of [b_payload] from [b_off]:
          after {!decode_body}, a slice of the accepted body *)
}

let rec put_encls w = function
  | [] -> ()
  | e :: rest ->
    Lynx.Frame.u32 w e.e_my_name;
    Lynx.Frame.u32 w e.e_far_name;
    Lynx.Frame.u32 w e.e_hint;
    put_encls w rest

(** The writer of a message body at its exact size: everything but the
    payload written, and the cursor at the [len] payload bytes still to
    write ({!Lynx.Codec.write} on the sending side). *)
let body_writer ~corr ~op ~exn_msg ~encl ~len =
  let open Lynx.Frame in
  let n_encl = List.length encl in
  let w =
    writer
      (4 + str_size op
      + (match exn_msg with None -> 2 | Some e -> str_size e)
      + 2 + (12 * n_encl) + 4 + len)
  in
  u32 w corr;
  str w op;
  (match exn_msg with
  | None -> u16 w 0xffff
  | Some e -> str w e);
  u16 w n_encl;
  put_encls w encl;
  u32 w len;
  w

module For_tests = struct
  (** Encodes any body: {!decode_body}'s inverse, which the frame tests
      round-trip through.  The channel writes its bodies with
      {!body_writer}. *)
  let encode_body (b : body) : bytes =
    let w =
      body_writer ~corr:b.b_corr ~op:b.b_op ~exn_msg:b.b_exn ~encl:b.b_encl
        ~len:b.b_len
    in
    Lynx.Frame.sub w b.b_payload ~off:b.b_off ~len:b.b_len;
    Lynx.Frame.finish w
end

exception Malformed = Lynx.Frame.Malformed

let rec get_encls r k =
  if k = 0 then []
  else
    let open Lynx.Frame in
    let e_my_name = get_u32 r in
    let e_far_name = get_u32 r in
    let e_hint = get_u32 r in
    { e_my_name; e_far_name; e_hint } :: get_encls r (k - 1)

(** Decodes an accepted body in place: the payload is a slice of [raw],
    which must therefore never be written again. *)
let decode_body (raw : bytes) : body =
  let open Lynx.Frame in
  let r = reader raw ~off:0 ~len:(Bytes.length raw) in
  let b_corr = get_u32 r in
  let b_op = get_str r in
  let b_exn =
    let n = get_u16 r in
    if n = 0xffff then None else Some (get_string r n)
  in
  let b_encl = get_encls r (get_u16 r) in
  let b_len = get_u32 r in
  let b_off = take r b_len in
  { b_corr; b_op; b_exn; b_encl; b_payload = raw; b_off; b_len }

(** Well-known freeze name for a process (paper §4.2: "every process
    advertises a freeze name").  SODA names are unique ints; we reserve
    a high range. *)
let freeze_name pid = 1_000_000 + pid
