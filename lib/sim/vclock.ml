(* Owner record over a packed tail.  [{ id; n; tail }] gives fiber [id]
   the counter [n]; [tail] holds every other non-zero entry, one word
   each — [(fid lsl bits) lor count] — strictly ascending, and never
   [id]'s.  Because the fid sits in the high bits, packed entries sort
   by fid, and two entries of one fid sort by count.  The fiber that
   ticks a clock is its owner, so its tick builds one record and
   shares the tail; tails are never mutated once built.  The empty
   clock has owner [-1] and counter 0. *)

type t = { id : int; n : int; tail : int array }

let bits = 31
let max_count = (1 lsl bits) - 1

(* The top id is kept free, so that no entry packs to [max_int]: the
   walks read an exhausted tail as [max_int]. *)
let max_id = max_count - 1
let[@inline] fid e = e lsr bits
let[@inline] count e = e land max_count
let[@inline] pack i n = (i lsl bits) lor n
let empty = { id = -1; n = 0; tail = [||] }

let bad_id i =
  invalid_arg
    (Printf.sprintf "Vclock: fiber id %d does not fit in 0..%d" i max_id)

let bad_count i =
  invalid_arg
    (Printf.sprintf "Vclock: the counter of fiber %d would exceed %d" i
       max_count)

let[@inline] check_id i = if i < 0 || i > max_id then bad_id i

(* Interned singleton clocks [{i -> 1}] for small fiber ids: the clock
   every fiber spawned from the empty (scheduler) clock starts from.
   Built once at module initialisation (before any domain can be
   spawned) and immutable afterwards, so sharing them across engines —
   and across domains in a parallel sweep — is safe. *)
let interned_singletons = Array.init 256 (fun i -> { empty with id = i; n = 1 })

let singleton i =
  if i < Array.length interned_singletons then interned_singletons.(i)
  else { empty with id = i; n = 1 }

(* Counter of [i] in a tail, by bisection. *)
let search tail i =
  let lo = ref 0 and hi = ref (Array.length tail) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if fid (Array.unsafe_get tail mid) < i then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length tail && fid (Array.unsafe_get tail !lo) = i then
    count (Array.unsafe_get tail !lo)
  else 0

let get t i = if i = t.id then t.n else search t.tail i

(* [tail] without [i]'s entry (if [has_i]) and with the packed entry
   [o] (whose fid is not in [tail]) slotted in: the tail of a clock
   whose owner changes. *)
let retail tail i ~has_i o =
  let la = Array.length tail in
  let dst = Array.make (if has_i then la else la + 1) 0 in
  let k = ref 0 and o = ref o in
  for j = 0 to la - 1 do
    let e = tail.(j) in
    if !o >= 0 && !o < e then begin
      dst.(!k) <- !o;
      incr k;
      o := -1
    end;
    if fid e <> i then begin
      dst.(!k) <- e;
      incr k
    end
  done;
  if !o >= 0 then dst.(!k) <- !o;
  dst

let tick t i =
  check_id i;
  if i = t.id then
    if t.n < max_count then { t with n = t.n + 1 } else bad_count i
  else if t.id < 0 then singleton i
  else
    let c = search t.tail i in
    if c >= max_count then bad_count i
    else
      let tail = retail t.tail i ~has_i:(c > 0) (pack t.id t.n) in
      { id = i; n = c + 1; tail }

(* The merge buffer: one per domain, grown to the widest merge seen.
   A merge writes its result here and copies it out once. *)
let scratch = Domain.DLS.new_key (fun () -> ref [||])

let buffer len =
  let r = Domain.DLS.get scratch in
  if Array.length !r < len then
    r := Array.make (max len (2 * Array.length !r)) 0;
  !r

(* One walk over [b]'s entries in ascending order: its tail, with its
   owner's entry [p] slotted in (unless [b]'s owner is [a]'s), and
   [max_int] once both are spent.  Up to the first entry that raises
   [a]'s tail the walk only reads, so a merge that raises nothing there
   allocates no tail; from that entry on it writes the pointwise
   maximum into the buffer, after [a]'s prefix.  [b]'s entry for [a]'s
   owner is picked up on the way.  Reads stay below each tail's length
   and writes below [la + lb + 1], the buffer's least length. *)
let merge_slow a b =
  let ai = a.id and at = a.tail and bt = b.tail in
  let la = Array.length at and lb = Array.length bt in
  let bn = ref (if b.id = ai then b.n else 0) in
  let p = ref (if b.id = ai then max_int else pack b.id b.n) in
  let ia = ref 0 and ib = ref 0 in
  let raised = ref false in
  let y = ref (if lb > 0 then Array.unsafe_get bt 0 else max_int) in
  while (not !raised) && (!p < max_int || !y < max_int) do
    let e = if !p < !y then !p else !y in
    if fid e = ai then bn := count e;
    let key = e land lnot max_count in
    while !ia < la && Array.unsafe_get at !ia < key do
      incr ia
    done;
    let x = if !ia < la then Array.unsafe_get at !ia else max_int in
    if fid e = ai || ((x lxor e) lsr bits = 0 && e <= x) then begin
      if fid e <> ai then incr ia;
      if !p < !y then p := max_int
      else begin
        incr ib;
        y := if !ib < lb then Array.unsafe_get bt !ib else max_int
      end
    end
    else raised := true
  done;
  let n = if !bn > a.n then !bn else a.n in
  if not !raised then if n = a.n then a else { a with n }
  else begin
    (* the first raise: copy [a]'s prefix, then write from here *)
    let d = buffer (la + lb + 1) in
    for j = 0 to !ia - 1 do
      Array.unsafe_set d j (Array.unsafe_get at j)
    done;
    let k = ref !ia in
    while !p < max_int || !y < max_int do
      let e = if !p < !y then !p else !y in
      if !p < !y then p := max_int
      else begin
        incr ib;
        y := if !ib < lb then Array.unsafe_get bt !ib else max_int
      end;
      if fid e = ai then bn := count e
      else begin
        let key = e land lnot max_count in
        while !ia < la && Array.unsafe_get at !ia < key do
          Array.unsafe_set d !k (Array.unsafe_get at !ia);
          incr k;
          incr ia
        done;
        let x = if !ia < la then Array.unsafe_get at !ia else max_int in
        if (x lxor e) lsr bits = 0 then begin
          Array.unsafe_set d !k (if e > x then e else x);
          incr ia
        end
        else Array.unsafe_set d !k e;
        incr k
      end
    done;
    while !ia < la do
      Array.unsafe_set d !k (Array.unsafe_get at !ia);
      incr k;
      incr ia
    done;
    let n = if !bn > a.n then !bn else a.n in
    { id = ai; n; tail = Array.sub d 0 !k }
  end

let merge a b =
  if a == b || b.id < 0 then a
  else if a.id < 0 then b
  else if a.tail == b.tail && a.id = b.id then if a.n >= b.n then a else b
  else merge_slow a b

(* Neither clock is [<=] the other.  Bit 1 of [r] is set when some
   component of [a] exceeds [b]'s, bit 2 when some component of [b]
   exceeds [a]'s; the walk stops once both are.  The owners are
   compared first — each side's owner is usually ahead of what the
   other side knows of it, which settles a race without a walk — and
   then one walk over both tails compares the rest, skipping the
   owners' entries.  Counters of one fid compare
   without a branch: [(y - x) lsr 62] is 1 exactly when [x > y], as
   both are below [2^62]. *)
let concurrent a b =
  let ai = a.id and bi = b.id in
  if a.tail == b.tail && ai = bi then false
  else begin
    let at = a.tail and bt = b.tail in
    let b_ai = if bi = ai then b.n else search bt ai in
    let a_bi = if bi = ai then a.n else search at bi in
    let r = if a.n > b_ai then 1 else if a.n < b_ai then 2 else 0 in
    let r = if a_bi > b.n then r lor 1 else if a_bi < b.n then r lor 2 else r in
    let la = Array.length at and lb = Array.length bt in
    let r = ref r and ia = ref 0 and ib = ref 0 in
    while !r <> 3 && !ia < la && !ib < lb do
      let x = Array.unsafe_get at !ia and y = Array.unsafe_get bt !ib in
      if (x lxor y) lsr bits = 0 then begin
        r := !r lor ((y - x) lsr 62) lor (((x - y) lsr 62) lsl 1);
        incr ia;
        incr ib
      end
      else if x < y then begin
        if fid x <> bi then r := !r lor 1;
        incr ia
      end
      else begin
        if fid y <> ai then r := !r lor 2;
        incr ib
      end
    done;
    (* One tail is spent: each entry left in the other exceeds the
       spent side's zero, but for the spent side's owner, compared
       above. *)
    while !r land 1 = 0 && !ia < la do
      if fid (Array.unsafe_get at !ia) <> bi then r := !r lor 1;
      incr ia
    done;
    while !r land 2 = 0 && !ib < lb do
      if fid (Array.unsafe_get bt !ib) <> ai then r := !r lor 2;
      incr ib
    done;
    !r = 3
  end

let of_list entries =
  List.fold_left
    (fun t (i, n) ->
      check_id i;
      if n < 1 || n > max_count then
        invalid_arg
          (Printf.sprintf
             "Vclock.of_list: counter %d of fiber %d is outside 1..%d" n i
             max_count);
      if get t i > 0 then
        invalid_arg (Printf.sprintf "Vclock.of_list: fiber %d repeats" i);
      merge t { empty with id = i; n })
    empty entries

let to_string t =
  let owner = if t.id >= 0 then [ pack t.id t.n ] else [] in
  let entries = List.merge compare owner (Array.to_list t.tail) in
  "{"
  ^ String.concat " "
      (List.map (fun e -> Printf.sprintf "%d:%d" (fid e) (count e)) entries)
  ^ "}"

module For_tests = struct
  let max_id = max_id
  let max_count = max_count
end
