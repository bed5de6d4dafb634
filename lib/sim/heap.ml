type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = { mutable arr : 'a entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length h = h.len
let is_empty h = h.len = 0

let[@inline] lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

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

(* Both sifts move a hole instead of swapping, as [Taskq]'s do: one
   write per level, and the same final slots as a swapping sift. *)
let add h ~time ~seq payload =
  let e = { time; seq; payload } in
  if h.len = Array.length h.arr then grow h;
  let arr = h.arr in
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && lt e arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    arr.(!i) <- arr.(p);
    i := p
  done;
  arr.(!i) <- e

(* The vacated last slot is cleared: a stale entry would keep its
   payload reachable until a later add reused the slot. *)
let take_entry h =
  let arr = h.arr in
  let top = arr.(0) in
  let n = h.len - 1 in
  h.len <- n;
  let last = arr.(n) in
  arr.(n) <- Obj.magic placeholder;
  if n > 0 then begin
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && lt arr.(l + 1) arr.(l) then l + 1 else l in
      if c < n && lt arr.(c) last then begin
        arr.(!i) <- arr.(c);
        i := c
      end
      else continue := false
    done;
    arr.(!i) <- last
  end;
  top

let pop h =
  if h.len = 0 then None
  else
    let top = take_entry h in
    Some (top.time, top.seq, top.payload)

let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap"
  else (take_entry h).payload

let min_time h =
  if h.len = 0 then invalid_arg "Heap.min_time: empty heap"
  else h.arr.(0).time

(* Dropping the backing array (not just the length) matters: entries
   past [len] would otherwise keep their payloads — often closures
   capturing whole simulation worlds — reachable until overwritten. *)
let clear h =
  h.len <- 0;
  h.arr <- [||]
