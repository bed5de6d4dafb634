(* ---- Counter keys -------------------------------------------------------

   Counter names are static, so each is interned once, at module
   initialisation, into this process-wide append-only registry, and a
   [t] is an int array indexed by key.  This is the one piece of mutable
   module-level state in lib/ (DESIGN.md §10).  Writers take [lock];
   readers take the published [names]/[order] snapshot from an atomic,
   so listing a block never waits.  Key numbers never reach output:
   every listing walks [order], the keys sorted by name. *)

type key = int

type registry = {
  names : string array;  (* key -> name *)
  order : int array;  (* every key, sorted by name *)
}

let lock = Mutex.create ()
let by_name : (string, key) Hashtbl.t = Hashtbl.create 256
let registry = Atomic.make { names = [||]; order = [||] }

let key name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some k -> k
      | None ->
        let r = Atomic.get registry in
        let k = Array.length r.names in
        (* [name] goes after the [at] keys that sort before it. *)
        let at =
          Array.fold_left
            (fun n j -> if String.compare r.names.(j) name < 0 then n + 1 else n)
            0 r.order
        in
        let order =
          Array.init (k + 1) (fun i ->
              if i < at then r.order.(i) else if i = at then k else r.order.(i - 1))
        in
        let names = Array.append r.names [| name |] in
        Hashtbl.add by_name name k;
        Atomic.set registry { names; order };
        k)

(* A slot that was never bumped: distinct from 0, so a counter bumped
   [~by:0] is still listed. *)
let absent = min_int

type t = { mutable counts : int array }

let create () =
  { counts = Array.make (Array.length (Atomic.get registry).names) absent }

(* A key registered after [t] was created: grow to cover every key
   registered so far, so this happens at most once per late batch. *)
let grow t k =
  let n = max (k + 1) (Array.length (Atomic.get registry).names) in
  let a = Array.make n absent in
  Array.blit t.counts 0 a 0 (Array.length t.counts);
  t.counts <- a

let incr ?(by = 1) t k =
  if k >= Array.length t.counts then grow t k;
  let c = Array.unsafe_get t.counts k in
  Array.unsafe_set t.counts k (if c = absent then by else c + by)

let get t name =
  match Mutex.protect lock (fun () -> Hashtbl.find_opt by_name name) with
  | Some k when k < Array.length t.counts && t.counts.(k) <> absent ->
    t.counts.(k)
  | _ -> 0

let to_list t =
  let r = Atomic.get registry in
  let a = t.counts in
  Array.fold_right
    (fun k acc ->
      if k < Array.length a && a.(k) <> absent then (r.names.(k), a.(k)) :: acc
      else acc)
    r.order []

let clear t = Array.fill t.counts 0 (Array.length t.counts) absent
let snapshot = to_list

let sum ts =
  let s = create () in
  Array.iter
    (fun t -> Array.iteri (fun k c -> if c <> absent then incr ~by:c s k) t.counts)
    ts;
  s

(* Both snapshots are sorted by name, so one merge walk pairs them. *)
let rec diff ~before ~after =
  match (before, after) with
  | _, [] -> []
  | (kb, _) :: before, (ka, _) :: _ when String.compare kb ka < 0 ->
    diff ~before ~after
  | (kb, prev) :: before', (ka, v) :: after when String.equal kb ka ->
    if v = prev then diff ~before:before' ~after
    else (ka, v - prev) :: diff ~before:before' ~after
  | _, ((_, v) as kv) :: after ->
    if v = 0 then diff ~before ~after else kv :: diff ~before ~after

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter (fun (k, v) -> Format.fprintf ppf "%-40s %d@," k v) (to_list t);
  Format.pp_close_box ppf ()

(* Shared nearest-rank index: the observation reported for quantile [p]
   over [n] sorted observations.  Series and Histogram use the same
   formula so the exact series doubles as the histogram's test oracle. *)
let nearest_rank ~n p =
  Stdlib.min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1))))

module Series = struct
  (* [obs] retains every observation (this module is the exact oracle —
     use [Histogram] for bounded-memory summaries).  [sorted] caches the
     sorted form so repeated [percentile] calls don't re-sort; any [add]
     invalidates it. *)
  type s = {
    mutable obs : Time.t list;
    mutable n : int;
    mutable sorted : Time.t array option;
  }

  let create () = { obs = []; n = 0; sorted = None }

  let add s t =
    s.obs <- t :: s.obs;
    s.n <- s.n + 1;
    s.sorted <- None

  let count s = s.n

  let fail_empty () = invalid_arg "Stats.Series: empty series"

  let mean s =
    if s.n = 0 then fail_empty ();
    let total = List.fold_left (fun acc t -> acc + Time.to_ns t) 0 s.obs in
    Time.ns (total / s.n)

  let min s =
    if s.n = 0 then fail_empty ();
    List.fold_left Time.min (List.hd s.obs) s.obs

  let max s =
    if s.n = 0 then fail_empty ();
    List.fold_left Time.max (List.hd s.obs) s.obs

  let sorted s =
    match s.sorted with
    | Some a -> a
    | None ->
      let a = List.sort Time.compare s.obs |> Array.of_list in
      s.sorted <- Some a;
      a

  let percentile s p =
    if s.n = 0 then fail_empty ();
    let sorted = sorted s in
    sorted.(nearest_rank ~n:(Array.length sorted) p)

  let pp ppf s =
    if s.n = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%a min=%a max=%a" s.n Time.pp (mean s)
        Time.pp (min s) Time.pp (max s)
end

module Histogram = struct
  (* Log-linear bucketing (HDR-style): values below 64 ns get exact
     one-ns buckets; each octave [2^m, 2^{m+1}) above that is split into
     64 linear sub-buckets, so the relative width of any bucket is at
     most 1/64 (≈ 1.6%).  The bucket array is a fixed ≤3712-slot int
     array regardless of how many observations are recorded, and merge
     is bucket-wise addition — commutative and associative, so merged
     summaries are independent of shard count and merge order. *)

  let sub_bits = 6 (* 64 sub-buckets per octave *)
  let subs = 1 lsl sub_bits
  let max_octave = 62 (* Time.t is an int of ns; 62 covers max_int *)
  let buckets = subs * (max_octave - sub_bits + 2) (* 3712 *)

  type h = {
    counts : int array;
    mutable total : int;
    mutable sum : int;
    mutable lo : int; (* exact min, valid when total > 0 *)
    mutable hi : int; (* exact max, valid when total > 0 *)
  }

  type summary = {
    h_count : int;
    h_mean : Time.t;
    h_min : Time.t;
    h_max : Time.t;
    h_p50 : Time.t;
    h_p99 : Time.t;
    h_p999 : Time.t;
  }

  let create () =
    { counts = Array.make buckets 0; total = 0; sum = 0; lo = 0; hi = 0 }

  let msb v =
    (* index of the highest set bit; v > 0 *)
    let rec go v m = if v <= 1 then m else go (v lsr 1) (m + 1) in
    go v 0

  let index_of v =
    if v < subs then v
    else
      let m = msb v in
      let sub = (v lsr (m - sub_bits)) land (subs - 1) in
      ((m - sub_bits + 1) * subs) + sub

  (* Largest value mapping to bucket [i] — the reported representative,
     so histogram quantiles never under-estimate the exact oracle. *)
  let upper_of i =
    if i < subs then i
    else
      let m = (i / subs) + sub_bits - 1 in
      let sub = i land (subs - 1) in
      let lower = (subs + sub) lsl (m - sub_bits) in
      lower + (1 lsl (m - sub_bits)) - 1

  let add h t =
    let v = Time.to_ns t in
    if v < 0 then invalid_arg "Stats.Histogram: negative observation";
    let i = index_of v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum + v;
    if h.total = 0 then (
      h.lo <- v;
      h.hi <- v)
    else (
      if v < h.lo then h.lo <- v;
      if v > h.hi then h.hi <- v);
    h.total <- h.total + 1

  let count h = h.total

  let merge a b =
    let h = create () in
    Array.iteri (fun i c -> h.counts.(i) <- c + b.counts.(i)) a.counts;
    h.total <- a.total + b.total;
    h.sum <- a.sum + b.sum;
    (if a.total = 0 then (
       h.lo <- b.lo;
       h.hi <- b.hi)
     else if b.total = 0 then (
       h.lo <- a.lo;
       h.hi <- a.hi)
     else (
       h.lo <- Stdlib.min a.lo b.lo;
       h.hi <- Stdlib.max a.hi b.hi));
    h

  let fail_empty () = invalid_arg "Stats.Histogram: empty histogram"
  let mean h = if h.total = 0 then fail_empty () else Time.ns (h.sum / h.total)
  let min h = if h.total = 0 then fail_empty () else Time.ns h.lo
  let max h = if h.total = 0 then fail_empty () else Time.ns h.hi

  let quantile h p =
    if h.total = 0 then fail_empty ();
    let rank = nearest_rank ~n:h.total p in
    let i = ref 0 and cum = ref 0 in
    while !cum + h.counts.(!i) <= rank do
      cum := !cum + h.counts.(!i);
      i := !i + 1
    done;
    (* Clamp to the exact extremes: the top bucket's upper bound can
       overshoot the true max, and the bottom one undershoot nothing. *)
    Time.ns (Stdlib.min (upper_of !i) h.hi)

  let summary h =
    if h.total = 0 then None
    else
      Some
        {
          h_count = h.total;
          h_mean = mean h;
          h_min = min h;
          h_max = max h;
          h_p50 = quantile h 0.5;
          h_p99 = quantile h 0.99;
          h_p999 = quantile h 0.999;
        }

  let pp ppf h =
    if h.total = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%a p50=%a p99=%a p999=%a max=%a" h.total
        Time.pp (mean h) Time.pp (quantile h 0.5) Time.pp (quantile h 0.99)
        Time.pp (quantile h 0.999) Time.pp (max h)
end
