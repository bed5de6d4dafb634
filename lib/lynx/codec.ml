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
   {!Value.size_list} — the same size that prices the transfer. *)
let encode (vs : Value.t list) : bytes * Link.t list =
  let buf = Bytes.create (Value.size_list vs) in
  let pos = ref 0 in
  let encl = ref [] in
  let n_encl = ref 0 in
  let add_u8 n =
    Bytes.set buf !pos (Char.unsafe_chr (n land 0xff));
    incr pos
  in
  let add_u32 n =
    for shift = 0 to 3 do
      add_u8 (n lsr (shift * 8))
    done
  in
  let rec enc (v : Value.t) =
    match v with
    | Unit -> add_u8 tag_unit
    | Bool false -> add_u8 tag_false
    | Bool true -> add_u8 tag_true
    | Int i ->
      add_u8 tag_int;
      for shift = 0 to 7 do
        add_u8 (i lsr (shift * 8))
      done
    | Str s ->
      add_u8 tag_str;
      add_u32 (String.length s);
      Bytes.blit_string s 0 buf !pos (String.length s);
      pos := !pos + String.length s
    | Link l ->
      add_u8 tag_link;
      add_u32 !n_encl;
      incr n_encl;
      encl := l :: !encl
    | Pair (a, b) ->
      add_u8 tag_pair;
      enc a;
      enc b
    | List items ->
      add_u8 tag_list;
      add_u32 (List.length items);
      List.iter enc items
  in
  List.iter enc vs;
  (buf, List.rev !encl)

let decode (payload : bytes) ~(enclosures : Link.t array) : Value.t list =
  let pos = ref 0 in
  let len = Bytes.length payload in
  let byte () =
    if !pos >= len then raise (Malformed "truncated payload");
    let c = Char.code (Bytes.get payload !pos) in
    incr pos;
    c
  in
  let u32 () =
    let a = byte () in
    let b = byte () in
    let c = byte () in
    let d = byte () in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)
  in
  let rec dec () : Value.t =
    let tag = byte () in
    if tag = tag_unit then Unit
    else if tag = tag_false then Bool false
    else if tag = tag_true then Bool true
    else if tag = tag_int then begin
      let v = ref 0 in
      for shift = 0 to 7 do
        v := !v lor (byte () lsl (shift * 8))
      done;
      Int !v
    end
    else if tag = tag_str then begin
      let n = u32 () in
      if !pos + n > len then raise (Malformed "truncated string");
      let s = Bytes.sub_string payload !pos n in
      pos := !pos + n;
      Str s
    end
    else if tag = tag_link then begin
      let idx = u32 () in
      if idx >= Array.length enclosures then
        raise (Malformed "enclosure index out of range");
      Link enclosures.(idx)
    end
    else if tag = tag_pair then
      let a = dec () in
      let b = dec () in
      Pair (a, b)
    else if tag = tag_list then begin
      let n = u32 () in
      let rec items k acc =
        if k = 0 then List.rev acc
        else
          let v = dec () in
          items (k - 1) (v :: acc)
      in
      List (items n [])
    end
    else raise (Malformed (Printf.sprintf "bad tag %d" tag))
  in
  let rec all acc = if !pos >= len then List.rev acc else all (dec () :: acc) in
  all []
