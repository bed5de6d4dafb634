(** Shared types for the Chrysalis interface on the BBN Butterfly
    (paper §5.1). *)

type pid = int
type node = int

(** Address-space-independent name of a memory object.  A process must
    map an object before touching its contents. *)
type obj_name = int

(** Name of an event block.  Anyone may post; only the owner may wait. *)
type event_name = int

(** Name of a dual queue. *)
type dualq_name = int

type fault =
  | Unmapped_object  (** access to an object not mapped by the caller *)
  | Bad_name  (** unknown object/event/queue name *)
  | Not_owner  (** waiting on an event block one does not own *)
  | Bounds  (** out-of-range memory access *)

exception Memory_fault of fault
