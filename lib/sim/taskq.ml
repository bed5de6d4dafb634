(* Specialised binary min-heap for the engine's task queue.

   Entries carry the enqueuer's vector clock inline instead of wrapping
   every task in a closure that restores it: one 5-word record per
   enqueue where the generic [Heap] path cost an entry *and* a wrapper
   closure.  Ordering is identical to [Heap]: (time, seq) ascending. *)

type entry = {
  time : int;
  seq : int;
  clk : Vclock.t;
  fn : unit -> unit;
}

type t = { mutable arr : entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length q = q.len

let[@inline] lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Fill value for fresh backing arrays; never read past [len].  Filling
   a major-heap-sized array with a young entry would make [Array.make]
   force a minor collection first. *)
let placeholder = { time = 0; seq = 0; clk = Vclock.empty; fn = ignore }

let grow q =
  let cap = Array.length q.arr in
  let narr = Array.make (if cap = 0 then 16 else cap * 2) placeholder in
  Array.blit q.arr 0 narr 0 q.len;
  q.arr <- narr

(* Both sifts move a hole instead of swapping: each level writes one
   slot, and the moving entry is written once, where it settles.  The
   slots end up exactly as a swapping sift leaves them, so the order of
   equal keys is unchanged too. *)
let add q ~time ~seq ~clk fn =
  let e = { time; seq; clk; fn } in
  if q.len = Array.length q.arr then grow q;
  let arr = q.arr in
  let i = ref q.len in
  q.len <- q.len + 1;
  while !i > 0 && lt e arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    arr.(!i) <- arr.(p);
    i := p
  done;
  arr.(!i) <- e

(* The vacated last slot is overwritten with [placeholder]: left as it
   was, it would keep the moved entry's closure — and whatever world
   that closure captures — reachable until a later add reuses it. *)
let take q =
  if q.len = 0 then invalid_arg "Taskq.take: empty queue"
  else begin
    let arr = q.arr in
    let top = arr.(0) in
    let n = q.len - 1 in
    q.len <- n;
    let last = arr.(n) in
    arr.(n) <- placeholder;
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
  end

let min_time q =
  if q.len = 0 then invalid_arg "Taskq.min_time: empty queue"
  else q.arr.(0).time
