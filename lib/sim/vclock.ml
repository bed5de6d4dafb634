(* Owner-first clock: one block per entry.  [C (i, n, rest)] gives fiber
   [i] the counter [n]; [rest] holds every other entry, strictly
   ascending by id, and never [i].  Only the head cell may be out of
   order.  The fiber that ticks a clock keeps its own entry there, so
   its tick replaces one cell and walks nothing; merges keep the left
   operand's head and share the suffixes neither side changes. *)

type t = E | C of int * int * t

let empty = E

(* Interned singleton clocks [{i -> 1}] for small fiber ids: the clock
   every fiber spawned from the empty (scheduler) clock starts from.
   Built once at module initialisation (before any domain can be
   spawned) and immutable afterwards, so sharing them across engines —
   and across domains in a parallel sweep — is safe. *)
let interned_singletons = Array.init 256 (fun i -> C (i, 1, E))

let singleton i =
  if i >= 0 && i < Array.length interned_singletons then
    interned_singletons.(i)
  else C (i, 1, E)

(* ---- sorted tails ---------------------------------------------------- *)

let rec sget s i =
  match s with
  | E -> 0
  | C (j, n, r) -> if j = i then n else if j > i then 0 else sget r i

(* [s] with [(i, n)] added; [i] is not in [s]. *)
let rec sadd s i n =
  match s with
  | C (j, m, r) when j < i -> C (j, m, sadd r i n)
  | _ -> C (i, n, s)

(* [s] without [i]'s entry; [s] itself when it has none. *)
let rec sdel s i =
  match s with
  | C (j, m, r) when j < i ->
    let r' = sdel r i in
    if r' == r then s else C (j, m, r')
  | C (j, _, r) when j = i -> r
  | _ -> s

(* The cell [C (i, max n v, r)], reusing [a = C (i, n, ra)] when
   neither its counter nor its tail changed. *)
let[@inline] cell a i n ra v r =
  if n < v then C (i, v, r) else if r == ra then a else C (i, n, r)

(* Pointwise maximum of two sorted tails, ignoring [b]'s entry for [s]
   ([a] has none).  Whenever one side dominates a suffix, that suffix is
   returned as-is, so merging a tail [a] already dominates allocates
   nothing.  A [b] suffix is only returned when it holds no [s] entry:
   by induction [r == rb] implies it. *)
let rec smerge a b s =
  if a == b then a
  else
    match (a, b) with
    | _, E -> a
    | E, _ -> sdel b s
    | C (i, n, ra), C (j, m, rb) ->
      if j = s then smerge a rb s
      else if i = j then
        let r = smerge ra rb s in
        if n >= m && r == ra then a
        else if m >= n && r == rb then b
        else C (i, (if n >= m then n else m), r)
      else if i < j then cell a i n ra 0 (smerge ra b s)
      else
        let r = smerge a rb s in
        if r == rb then b else C (j, m, r)

(* [smerge a (b + (j, m)) s]: [b]'s own head entry [(j, m)] is still
   pending ([j] is not in [b] and is not [s]).  No [b] suffix can be
   shared until it has been placed. *)
let rec smerge_pending a b j m s =
  match b with
  | C (k, v, rb) when k < j -> (
    (* [b]'s next entry is its list head *)
    match a with
    | C (i, n, ra) when i < k -> cell a i n ra 0 (smerge_pending ra b j m s)
    | C (i, n, ra) when i = k -> cell a i n ra v (smerge_pending ra rb j m s)
    | _ ->
      let r = smerge_pending a rb j m s in
      if k = s then r else C (k, v, r))
  | _ -> (
    (* [b]'s next entry is the pending one *)
    match a with
    | C (i, n, ra) when i < j -> cell a i n ra 0 (smerge_pending ra b j m s)
    | C (i, n, ra) when i = j -> cell a i n ra m (smerge ra b s)
    | _ -> C (j, m, smerge a b s))

(* ---- clocks ---------------------------------------------------------- *)

let get t i =
  match t with E -> 0 | C (j, n, r) -> if j = i then n else sget r i

let tick t i =
  match t with
  | C (j, n, r) when j = i -> C (i, n + 1, r)
  | E -> singleton i
  | C (j, n, r) -> C (i, sget r i + 1, sadd (sdel r i) j n)

let merge a b =
  if a == b then a
  else
    match (a, b) with
    | E, c | c, E -> c
    | C (i, n, ra), C (j, m, rb) ->
      if j = i then cell a i n ra m (smerge ra rb i)
      else cell a i n ra (sget rb i) (smerge_pending ra rb j m i)

(* Every entry of the sorted tail [a] is at most [b + (j, m)]'s ([j] is
   not in [b]).  One pointer step per entry on either side. *)
let rec sleq a b j m =
  match (a, b) with
  | E, _ -> true
  | C (i, n, ra), _ when i = j -> n <= m && sleq ra b j m
  | C _, E -> false
  | C (i, n, ra), C (k, v, rb) ->
    if i = k then n <= v && sleq ra rb j m
    else if i > k then sleq a rb j m
    else (* [b] has no entry for [i]: its component is 0 < n *)
      false

let leq a b =
  match (a, b) with
  | E, _ -> true
  | C _, E -> false
  | C (i, n, ra), C (j, m, rb) ->
    n <= (if j = i then m else sget rb i) && sleq ra rb j m

let compare_causal a b =
  match (leq a b, leq b a) with
  | true, true -> `Equal
  | true, false -> `Before
  | false, true -> `After
  | false, false -> `Concurrent

let concurrent a b = (not (leq a b)) && not (leq b a)

let to_string t =
  let rec entries = function
    | E -> []
    | C (i, n, r) -> Printf.sprintf "%d:%d" i n :: entries r
  in
  let sorted = match t with E -> E | C (i, n, r) -> sadd r i n in
  "{" ^ String.concat " " (entries sorted) ^ "}"
