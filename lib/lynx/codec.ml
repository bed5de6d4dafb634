(** Marshalling of LYNX values into wire payloads.

    Link ends never travel inside the payload: each [Link] node is
    replaced by the index of the corresponding enclosure, and the ends
    themselves move out of band through the backend's enclosure
    mechanism.  [write] puts the values into a channel's frame and
    [encode] into a buffer of their own, returned with the ordered list
    of enclosed ends; [decode] reverses this given the fresh handles the
    backend produced on receipt. *)

exception Malformed of string

let tag_unit = 0
let tag_false = 1
let tag_true = 2
let tag_int = 3
let tag_str = 4
let tag_link = 5
let tag_pair = 6
let tag_list = 7

(* The values are written straight into the frame that carries them,
   behind the header the channel's frame codec wrote: no payload is
   built on its own and copied in.  The walkers are top-level
   functions that thread the next enclosure index through, so a
   message builds no closures and no cursor of its own. *)
let rec enc w n (v : Value.t) =
  match v with
  | Unit ->
    Frame.u8 w tag_unit;
    n
  | Bool false ->
    Frame.u8 w tag_false;
    n
  | Bool true ->
    Frame.u8 w tag_true;
    n
  | Int i ->
    Frame.u8 w tag_int;
    for shift = 0 to 7 do
      Frame.u8 w (i lsr (shift * 8))
    done;
    n
  | Str s ->
    Frame.u8 w tag_str;
    Frame.u32 w (String.length s);
    Frame.string w s;
    n
  | Link _ ->
    Frame.u8 w tag_link;
    Frame.u32 w n;
    n + 1
  | Pair (a, b) ->
    Frame.u8 w tag_pair;
    enc w (enc w n a) b
  | List items ->
    Frame.u8 w tag_list;
    Frame.u32 w (List.length items);
    enc_list w n items

and enc_list w n = function
  | [] -> n
  | v :: rest -> enc_list w (enc w n v) rest

(** Writes [vs] at the cursor of [w]: {!Value.size_list} bytes.  Each
    [Link] becomes the index of its end in {!Value.links_of_list}, the
    order the ends move in. *)
let write w (vs : Value.t list) = ignore (enc_list w 0 vs)

(** [vs] on its own, at its exact size, with the ends it encloses. *)
let encode (vs : Value.t list) : bytes * Link.t list =
  let w = Frame.writer (Value.size_list vs) in
  write w vs;
  (Frame.finish w, Value.links_of_list vs)

type reader = {
  payload : bytes;
  stop : int;
  mutable rpos : int;
  enclosures : Link.t array;
}

let byte r =
  if r.rpos >= r.stop then raise (Malformed "truncated payload");
  let c = Char.code (Bytes.get r.payload r.rpos) in
  r.rpos <- r.rpos + 1;
  c

let u32 r =
  let a = byte r in
  let b = byte r in
  let c = byte r in
  let d = byte r in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

let rec dec r : Value.t =
  let tag = byte r in
  if tag = tag_unit then Unit
  else if tag = tag_false then Bool false
  else if tag = tag_true then Bool true
  else if tag = tag_int then begin
    let v = ref 0 in
    for shift = 0 to 7 do
      v := !v lor (byte r lsl (shift * 8))
    done;
    Int !v
  end
  else if tag = tag_str then begin
    let n = u32 r in
    if r.rpos + n > r.stop then raise (Malformed "truncated string");
    let s = Bytes.sub_string r.payload r.rpos n in
    r.rpos <- r.rpos + n;
    Str s
  end
  else if tag = tag_link then begin
    let idx = u32 r in
    if idx >= Array.length r.enclosures then
      raise (Malformed "enclosure index out of range");
    Link r.enclosures.(idx)
  end
  else if tag = tag_pair then
    let a = dec r in
    let b = dec r in
    Pair (a, b)
  else if tag = tag_list then begin
    let n = u32 r in
    List (dec_items r n [])
  end
  else raise (Malformed (Printf.sprintf "bad tag %d" tag))

and dec_items r k acc =
  if k = 0 then List.rev acc
  else
    let v = dec r in
    dec_items r (k - 1) (v :: acc)

let rec dec_all r acc =
  if r.rpos >= r.stop then List.rev acc else dec_all r (dec r :: acc)

(** Decodes the [len] bytes of [payload] from [off] in place. *)
let decode_sub (payload : bytes) ~off ~len ~(enclosures : Link.t array) :
    Value.t list =
  dec_all { payload; stop = off + len; rpos = off; enclosures } []

let decode payload ~enclosures =
  decode_sub payload ~off:0 ~len:(Bytes.length payload) ~enclosures
