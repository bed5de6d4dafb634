type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = { mutable arr : 'a entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length h = h.len
let is_empty h = h.len = 0

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Fill value for fresh backing arrays; never read past [len], so its
   payload's type does not matter.  Filling a major-heap-sized array
   with a young entry would make [Array.make] force a minor collection
   first. *)
let placeholder = { time = 0; seq = 0; payload = () }

let grow h =
  let cap = Array.length h.arr in
  let narr = Array.make (if cap = 0 then 16 else cap * 2) (Obj.magic placeholder) in
  Array.blit h.arr 0 narr 0 h.len;
  h.arr <- narr

let add h ~time ~seq payload =
  let e = { time; seq; payload } in
  if h.len = Array.length h.arr then grow h;
  h.arr.(h.len) <- e;
  h.len <- h.len + 1;
  (* Sift up. *)
  let i = ref (h.len - 1) in
  while !i > 0 && lt h.arr.(!i) h.arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = h.arr.(p) in
    h.arr.(p) <- h.arr.(!i);
    h.arr.(!i) <- tmp;
    i := p
  done

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    (* Clear the vacated slot: a stale entry would keep its payload
       reachable until a later add reused the slot. *)
    h.arr.(h.len) <- Obj.magic placeholder;
    if h.len > 0 then begin
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && lt h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && lt h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.seq, top.payload)
  end

let peek_time h = if h.len = 0 then None else Some h.arr.(0).time

(* Dropping the backing array (not just the length) matters: entries
   past [len] would otherwise keep their payloads — often closures
   capturing whole simulation worlds — reachable until overwritten. *)
let clear h =
  h.len <- 0;
  h.arr <- [||]
