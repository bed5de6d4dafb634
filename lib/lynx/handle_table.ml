(** A table keyed by backend handles.

    Handles are dense per process — every channel counts them from 0 — so
    lookups go through an array indexed by handle: no hashing, and
    nothing allocated.  Iteration ([iter], [fold]) still follows the
    [Hashtbl] the table used to be: several callers issue kernel calls or
    wake fibers in that order, so the schedule, and with it every
    fingerprint, depends on it. *)

type 'a t = {
  by_handle : (int, 'a) Hashtbl.t;  (** the entries, in iteration order *)
  mutable index : 'a option array;  (** the same entries, by handle *)
}

let create n = { by_handle = Hashtbl.create n; index = [||] }

(** Every handle stored is below it. *)
let bound t = Array.length t.index

let find_opt t h =
  if h >= 0 && h < Array.length t.index then Array.unsafe_get t.index h
  else None

let find t h = match find_opt t h with Some v -> v | None -> raise Not_found

let replace t h v =
  if h >= Array.length t.index then begin
    let grown = Array.make (max (h + 1) (2 * Array.length t.index)) None in
    Array.blit t.index 0 grown 0 (Array.length t.index);
    t.index <- grown
  end;
  t.index.(h) <- Some v;
  Hashtbl.replace t.by_handle h v

let remove t h =
  if h >= 0 && h < Array.length t.index then t.index.(h) <- None;
  Hashtbl.remove t.by_handle h

let iter f t = Hashtbl.iter f t.by_handle
let fold f t acc = Hashtbl.fold f t.by_handle acc
