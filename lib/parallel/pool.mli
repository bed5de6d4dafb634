(** Fixed-batch multicore job pool.

    [jobs - 1] extra domains plus the caller drain a shared job array
    through one atomic cursor; the cursor only decides {e who runs
    what} — results land at their job's index, so output order equals
    input order no matter how execution interleaves.  This is what lets
    the explore sweep promise byte-identical reports at any [-j].

    Jobs must be self-contained: no shared mutable state (every sweep
    case owns a private engine) and no printing (collect first, report
    after).  If any job raises, the lowest-indexed exception is
    re-raised after all domains have joined — the same error a
    sequential run would have surfaced first. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run : ?jobs:int -> (unit -> 'a) array -> 'a array
(** Runs every thunk, using [jobs] domains in total — the caller plus
    [jobs - 1] spawned for this call and joined before it returns
    (default {!default_jobs}, clamped to at least 1 and at most the job
    count).  [jobs <= 1] runs inline with no domain spawned at all. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** Resident pool: create the worker domains once, submit many rounds.

    [run] above spawns and joins domains per call — micro- to
    millisecond overhead that is irrelevant for a sweep batch but fatal
    for the shard coordinator, which synchronises its domains at every
    conservative lookahead window.  A [Persistent.t] keeps [workers - 1]
    domains parked on a condition variable between submissions. *)
module Persistent : sig
  type t

  val create : ?workers:int -> unit -> t
  (** Spawns [workers - 1] resident domains (default {!default_jobs};
      clamped to at least 1 — [workers = 1] means every submission runs
      inline on the caller). *)

  val workers : t -> int
  (** Total participants per round: the caller plus the resident
      domains. *)

  val round : t -> (int -> unit) -> unit
  (** [round t f] runs [f slot] once for every slot [0 .. workers-1] —
      slot 0 on the caller, the rest on the resident domains, each slot
      always on the same domain across rounds (what lets the shard
      coordinator pin shard [i] to slot [i mod workers], so a shard's
      effect continuations resume where they were captured).  Returns
      when every slot has finished; if any slot raised, the
      lowest-slot exception is re-raised with its backtrace. *)

  val shutdown : t -> unit
  (** Joins the resident domains.  Idempotent; further submissions
      raise [Invalid_argument]. *)
end
