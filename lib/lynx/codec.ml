(** Marshalling of LYNX values into wire payloads.

    Link ends never travel inside the payload: each [Link] node is
    replaced by the index of the corresponding enclosure, and the ends
    themselves move out of band through the backend's enclosure
    mechanism.  [encode] therefore returns both the payload bytes and the
    ordered list of enclosed ends; [decode] reverses this given the fresh
    handles the backend produced on receipt. *)

exception Malformed of string

let tag_unit = 0
let tag_false = 1
let tag_true = 2
let tag_int = 3
let tag_str = 4
let tag_link = 5
let tag_pair = 6
let tag_list = 7

(* The payload is written straight into a buffer of its exact size,
   {!Value.size_list} — the same size that prices the transfer.  Both
   directions keep their position in a cursor record, so the walkers
   below are top-level functions: a message builds no closures. *)
type writer = {
  buf : bytes;
  mutable pos : int;
  mutable encl : Link.t list;  (* enclosed ends, reversed *)
  mutable n_encl : int;
}

let add_u8 w n =
  Bytes.set w.buf w.pos (Char.unsafe_chr (n land 0xff));
  w.pos <- w.pos + 1

let add_u32 w n =
  for shift = 0 to 3 do
    add_u8 w (n lsr (shift * 8))
  done

let rec enc w (v : Value.t) =
  match v with
  | Unit -> add_u8 w tag_unit
  | Bool false -> add_u8 w tag_false
  | Bool true -> add_u8 w tag_true
  | Int i ->
    add_u8 w tag_int;
    for shift = 0 to 7 do
      add_u8 w (i lsr (shift * 8))
    done
  | Str s ->
    add_u8 w tag_str;
    add_u32 w (String.length s);
    Bytes.blit_string s 0 w.buf w.pos (String.length s);
    w.pos <- w.pos + String.length s
  | Link l ->
    add_u8 w tag_link;
    add_u32 w w.n_encl;
    w.n_encl <- w.n_encl + 1;
    w.encl <- l :: w.encl
  | Pair (a, b) ->
    add_u8 w tag_pair;
    enc w a;
    enc w b
  | List items ->
    add_u8 w tag_list;
    add_u32 w (List.length items);
    enc_list w items

and enc_list w = function
  | [] -> ()
  | v :: rest ->
    enc w v;
    enc_list w rest

let encode (vs : Value.t list) : bytes * Link.t list =
  let w =
    { buf = Bytes.create (Value.size_list vs); pos = 0; encl = []; n_encl = 0 }
  in
  enc_list w vs;
  (w.buf, List.rev w.encl)

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
