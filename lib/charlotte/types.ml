(** Shared types for the Charlotte kernel interface (Artsy, Chang &
    Finkel; paper §3.1). *)

type pid = int
type node = int

(** A capability for one end of a kernel link.  Values are opaque handles;
    the kernel validates ownership on every call (the redundant checking
    the paper's end-to-end discussion calls out). *)
type link_end = { link_id : int; side : int (* 0 or 1 *) }

type direction = Sent | Received

(** Status codes returned by kernel calls and completions. *)
type status =
  | Ok_done
  | E_destroyed  (** link destroyed or peer process terminated *)
  | E_bad_end  (** caller does not own this end / end is in transit *)
  | E_busy  (** an activity in that direction is already outstanding *)
  | E_too_long  (** message exceeded the receive buffer *)
  | E_no_activity  (** cancel found nothing to cancel *)
  | E_enclosure_busy  (** enclosure has outstanding activities *)
  | E_enclosure_self  (** tried to enclose an end of the carrying link *)

let status_to_string = function
  | Ok_done -> "ok"
  | E_destroyed -> "destroyed"
  | E_bad_end -> "bad-end"
  | E_busy -> "busy"
  | E_too_long -> "too-long"
  | E_no_activity -> "no-activity"
  | E_enclosure_busy -> "enclosure-busy"
  | E_enclosure_self -> "enclosure-self"

(** Activity completion descriptor, returned by [Wait] (paper §3.1). *)
type completion = {
  c_end : link_end;
  c_dir : direction;
  c_status : status;
  c_data : bytes;  (** received payload; empty for send completions *)
  c_length : int;
  c_enclosure : link_end option;
}
