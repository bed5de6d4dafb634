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

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Fill value for fresh backing arrays; never read past [len].  Filling
   a major-heap-sized array with a young entry would make [Array.make]
   force a minor collection first. *)
let placeholder = { time = 0; seq = 0; clk = Vclock.empty; fn = ignore }

let grow q =
  let cap = Array.length q.arr in
  let narr = Array.make (if cap = 0 then 16 else cap * 2) placeholder in
  Array.blit q.arr 0 narr 0 q.len;
  q.arr <- narr

let add q ~time ~seq ~clk fn =
  let e = { time; seq; clk; fn } in
  if q.len = Array.length q.arr then grow q;
  q.arr.(q.len) <- e;
  q.len <- q.len + 1;
  let i = ref (q.len - 1) in
  while !i > 0 && lt q.arr.(!i) q.arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = q.arr.(p) in
    q.arr.(p) <- q.arr.(!i);
    q.arr.(!i) <- tmp;
    i := p
  done

(* The vacated last slot is overwritten with [placeholder]: left as it
   was, it would keep the moved entry's closure — and whatever world
   that closure captures — reachable until a later add reuses it. *)
let take q =
  if q.len = 0 then invalid_arg "Taskq.take: empty queue"
  else begin
    let top = q.arr.(0) in
    q.len <- q.len - 1;
    q.arr.(0) <- q.arr.(q.len);
    q.arr.(q.len) <- placeholder;
    if q.len > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.len && lt q.arr.(l) q.arr.(!smallest) then smallest := l;
        if r < q.len && lt q.arr.(r) q.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = q.arr.(!smallest) in
          q.arr.(!smallest) <- q.arr.(!i);
          q.arr.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    top
  end

let min_time q =
  if q.len = 0 then invalid_arg "Taskq.min_time: empty queue"
  else q.arr.(0).time

let peek_time q = if q.len = 0 then None else Some q.arr.(0).time
