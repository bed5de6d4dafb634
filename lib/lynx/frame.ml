(** Cursors over the channels' wire frames (Charlotte packets, SODA
    bodies, Chrysalis slots): little-endian 8/16/32-bit fields, strings
    and payload slices.

    A frame is written once, into a buffer of its exact size, and read
    in place from the received bytes.  A LYNX message's frame is built
    by two writers in turn on one cursor: the channel's frame codec
    writes the header and {!Codec.write} the values after it.  Each
    cursor is a record and the field functions are top-level, so a
    frame costs its bytes and one cursor: no closures, no [Buffer], no
    copy of the payload on either side.  Every read is bounds-checked against the cursor's end; a frame
    too short for what its fields declare raises {!Malformed}. *)

exception Malformed

type writer = { buf : bytes; mutable wpos : int }

let writer size = { buf = Bytes.create size; wpos = 0 }

let u8 w n =
  Bytes.set_uint8 w.buf w.wpos (n land 0xff);
  w.wpos <- w.wpos + 1

let u16 w n =
  Bytes.set_uint16_le w.buf w.wpos (n land 0xffff);
  w.wpos <- w.wpos + 2

(* The low 32 bits of [n]. *)
let u32 w n =
  u16 w n;
  u16 w (n lsr 16)

(* The bytes of [s], with no length. *)
let string w s =
  let n = String.length s in
  Bytes.blit_string s 0 w.buf w.wpos n;
  w.wpos <- w.wpos + n

(* A string behind its 16-bit length. *)
let str_size s = 2 + String.length s

let str w s =
  u16 w (String.length s);
  string w s

let sub w src ~off ~len =
  Bytes.blit src off w.buf w.wpos len;
  w.wpos <- w.wpos + len

(** The written frame.  Raises [Invalid_argument] unless the fields
    filled exactly the size it was created with. *)
let finish w =
  if w.wpos <> Bytes.length w.buf then invalid_arg "Frame.finish: size mismatch";
  w.buf

type reader = { src : bytes; mutable rpos : int; stop : int }

(** Reads the [len] bytes of [src] from [off]. *)
let reader src ~off ~len = { src; rpos = off; stop = off + len }

(* Claims the next [n] bytes and returns their offset. *)
let take r n =
  let at = r.rpos in
  if n < 0 || at + n > r.stop then raise Malformed;
  r.rpos <- at + n;
  at

let get_u8 r = Bytes.get_uint8 r.src (take r 1)
let get_u16 r = Bytes.get_uint16_le r.src (take r 2)

let get_u32 r =
  let lo = get_u16 r in
  lo lor (get_u16 r lsl 16)

let get_string r n = Bytes.sub_string r.src (take r n) n
let get_str r = get_string r (get_u16 r)
